(* The three workloads: what setup preloads, the seeded per-client
   request streams, and the model each reply is checked against.

   Everything here is a pure function of (workload, seed, client): the
   same seed gives the same TL text, byte for byte. *)

type kind =
  | Read  (** find(k), fK(x), a Stanford entry call *)
  | Write  (** an insert (rel-oltp) or a definition (long-session) *)
  | Commit  (** the transaction's sealing commit *)
  | Repin  (** an empty commit that moves the session's snapshot forward *)
  | Open  (** connect + handshake: the server restores a session *)
  | Close  (** Bye *)

let kind_name = function
  | Read -> "read"
  | Write -> "write"
  | Commit -> "commit"
  | Repin -> "repin"
  | Open -> "open"
  | Close -> "close"

let all_kinds = [ Read; Write; Commit; Repin; Open; Close ]

type expect =
  | Value of int  (** [- : N (in S instructions)] *)
  | Defined of string  (** [defined NAME] *)
  | Inserted of int  (** a rel-oltp insert of this key: an empty result *)
  | Printed of string * int
      (** a Stanford entry: (program, n-th call in this session); the
          printed text comes from the tree-evaluator oracle, then [- : 0] *)
  | Sealed  (** [Committed] *)
  | Session  (** [Hello_ok] / [Bye_ok] *)

type req = { kind : kind; src : string; expect : expect }

(* A setup step is sent over the wire before the measured window. *)
type setup_step =
  | Feed of string
  | Seal

type t = {
  name : string;
  preload : setup_step list;
  history : string list;
      (** the definition sources the store's session manifest holds after
          setup, in order — what [Repl.restore] replays *)
  next_unit : client:int -> unit -> req list;
      (** a fresh stream per call; each unit is one session, from [Open]
          to [Close]: a transaction, a session cycle, or a round of entry
          calls *)
}

let wire_req ~client r =
  match r.kind with
  | Read | Write -> Tml_server.Wire.Eval r.src
  | Commit | Repin -> Tml_server.Wire.Commit
  | Open ->
    Tml_server.Wire.Hello
      { version = Tml_server.Wire.protocol_version; client = Printf.sprintf "wirebench-%d" client }
  | Close -> Tml_server.Wire.Bye

(* ------------------------------------------------------------------ *)
(* rel-oltp                                                             *)
(* ------------------------------------------------------------------ *)

let accts_rows = 10_000

(* one row of accts, the same expression the preload loop evaluates *)
let row k = (k, k mod 97, 3 * k)

let rel_oltp_preload =
  [
    Feed (Printf.sprintf "let accts = relation(tuple(0, 0, 0))");
    Feed
      (Printf.sprintf
         "do for k = 1 upto %d do insert(accts, tuple(k, k %% 97, 3 * k)) end end"
         (accts_rows - 1));
    Feed "do mkindex(accts, 1) end";
    Feed "let find(k: Int): Int = count(select a from a in accts where a.1 == k end)";
    Seal;
    Feed ":optimize find";
    Seal;
  ]

let rel_oltp_history =
  [
    "let accts = relation(tuple(0, 0, 0))";
    "let find(k: Int): Int = count(select a from a in accts where a.1 == k end)";
  ]

(* Client [c]'s i-th insert: fresh keys above the preload, disjoint
   across clients. *)
let insert_key ~client i = accts_rows + (2 * i) + client

let insert_src k =
  let k, m, t = row k in
  Printf.sprintf "do insert(accts, tuple(%d, %d, %d)) end" k m t

let find_src k = Printf.sprintf "find(%d)" k

(* A transaction runs in a session of its own: open, three reads, an
   insert, commit, close.  Two things shape it (README, "What the
   benchmark works around"):
   - a session cannot fault an object committed from a higher OID
     stripe than its own, and stripes grow with session age, so a
     long-lived session that scans rows another session inserted
     later dies on a dangling OID; a fresh session has the highest
     stripe of everything it can see;
   - commits are first-committer-wins per object, so two appends to
     one relation conflict; the write phase (an empty commit that moves
     the snapshot forward, the insert, the sealing commit) holds a
     client-side token.

   Keys are drawn Zipfian (theta 0.99) over the keys present in the
   client's view: the preload (hotness order a seeded permutation) and
   then its own committed inserts, coldest last.  Every present key
   holds exactly one row. *)
let rel_oltp_stream ~seed ~client =
  let g = Prng.make ~seed ~salt:(100 + client) in
  let perm = Array.init accts_rows Fun.id in
  Prng.shuffle (Prng.make ~seed ~salt:99) perm;
  let z = Prng.zipf ~theta:0.99 accts_rows in
  let inserted = ref 0 in
  fun () ->
    let read () =
      let r = Prng.zipf_rank z g in
      let k = if r < accts_rows then perm.(r) else insert_key ~client (r - accts_rows) in
      { kind = Read; src = find_src k; expect = Value 1 }
    in
    let reads = List.init 3 (fun _ -> read ()) in
    let k = insert_key ~client !inserted in
    incr inserted;
    Prng.zipf_grow z;
    ({ kind = Open; src = ""; expect = Session } :: reads)
    @ [
        { kind = Repin; src = ""; expect = Sealed };
        { kind = Write; src = insert_src k; expect = Inserted k };
        { kind = Commit; src = ""; expect = Sealed };
        { kind = Close; src = ""; expect = Session };
      ]

(* ------------------------------------------------------------------ *)
(* long-session                                                         *)
(* ------------------------------------------------------------------ *)

let history_functions = 400

type fn =
  | Base of int * int * int  (** (x * a + b) % m *)
  | Call of int * int * int  (** f_j(x + a) % 1000 + b *)

let functions ~seed =
  let g = Prng.make ~seed ~salt:7 in
  Array.init history_functions (fun i ->
      if i < 10 || Prng.float g < 0.4 then
        Base (Prng.range g 1 9, Prng.range g 0 99, Prng.range g 50 999)
      else Call (Prng.range g (max 0 (i - 50)) (i - 1), Prng.range g 1 9, Prng.range g 0 99))

let fn_src i = function
  | Base (a, b, m) -> Printf.sprintf "let f%d(x: Int): Int = (x * %d + %d) %% %d" i a b m
  | Call (j, a, b) -> Printf.sprintf "let f%d(x: Int): Int = f%d(x + %d) %% 1000 + %d" i j a b

let rec fn_eval fns i x =
  match fns.(i) with
  | Base (a, b, m) -> ((x * a) + b) mod m
  | Call (j, a, b) -> (fn_eval fns j (x + a) mod 1000) + b

let long_session_history ~seed = Array.to_list (Array.mapi fn_src (functions ~seed))

(* one definition per Eval, as a user types them: the manifest holds
   400 sources, which is what session restore replays *)
let long_session_preload ~seed =
  List.map (fun s -> Feed s) (long_session_history ~seed) @ [ Seal ]

let long_session_stream ~seed ~client =
  let fns = functions ~seed in
  let g = Prng.make ~seed ~salt:(200 + client) in
  let cycle = ref 0 in
  fun () ->
    let c = !cycle in
    incr cycle;
    let call () =
      let k = Prng.int g history_functions and x = Prng.int g 1000 in
      { kind = Read; src = Printf.sprintf "f%d(%d)" k x; expect = Value (fn_eval fns k x) }
    in
    let define j =
      let name = Printf.sprintf "g%d_%d_%d" client c j in
      let k = Prng.int g history_functions and b = Prng.range g 1 99 in
      {
        kind = Write;
        src = Printf.sprintf "let %s(x: Int): Int = f%d(x) + %d" name k b;
        expect = Defined name;
      }
    in
    let body =
      List.concat
        (List.init 4 (fun j ->
             let a = call () in
             let b = call () in
             let d = call () in
             [ a; b; d; define j ]))
    in
    ({ kind = Open; src = ""; expect = Session } :: body)
    @ [ { kind = Close; src = ""; expect = Session } ]

(* ------------------------------------------------------------------ *)
(* stanford-compute                                                     *)
(* ------------------------------------------------------------------ *)

(* The programs whose optimized entry runs in 15-40 ms on the machine.
   puzzle (seconds per call), perm and bubble (150-220 ms) would turn a
   window into a few dozen samples with a latency mix dominated by
   whichever of them the other client happens to be running. *)
let stanford_programs =
  List.filter
    (fun n -> not (List.mem n [ "puzzle"; "perm"; "bubble" ]))
    Tml_stanford.Suite.all_names

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident c = is_ident_start c || (c >= '0' && c <= '9')

(* top-level names: every [let NAME] at the start of a line *)
let top_level_names src =
  List.filter_map
    (fun line ->
      if String.length line > 4 && String.sub line 0 4 = "let " then begin
        let j = ref 4 in
        while !j < String.length line && is_ident line.[!j] do incr j done;
        Some (String.sub line 4 (!j - 4))
      end
      else None)
    (String.split_on_char '\n' src)

(* Prefix every occurrence of a top-level name with [prefix], leaving
   member accesses ([io.newline]), string literals and [--] comments
   alone: the programs' globals no longer clash once they share a
   store. *)
let rename ~prefix names src =
  let n = String.length src in
  let b = Buffer.create (n + 256) in
  let i = ref 0 in
  while !i < n do
    let c = src.[!i] in
    if c = '"' then begin
      let j = ref (!i + 1) in
      while !j < n && src.[!j] <> '"' do
        if src.[!j] = '\\' then incr j;
        incr j
      done;
      Buffer.add_string b (String.sub src !i (!j + 1 - !i));
      i := !j + 1
    end
    else if c = '-' && !i + 1 < n && src.[!i + 1] = '-' then begin
      let j = ref !i in
      while !j < n && src.[!j] <> '\n' do incr j done;
      Buffer.add_string b (String.sub src !i (!j - !i));
      i := !j
    end
    else if is_ident_start c && (!i = 0 || not (is_ident src.[!i - 1])) then begin
      let j = ref !i in
      while !j < n && is_ident src.[!j] do incr j done;
      let id = String.sub src !i (!j - !i) in
      let member = !i > 0 && src.[!i - 1] = '.' in
      if (not member) && List.mem id names then Buffer.add_string b (prefix ^ id)
      else Buffer.add_string b id;
      i := !j
    end
    else begin
      Buffer.add_char b c;
      incr i
    end
  done;
  Buffer.contents b

let entry_name prog = prog ^ "_main"

(* A Stanford program as a stored library: its definitions with
   prefixed globals, and its [do] block turned into the entry function
   [PROG_main(): Int], which prints the program's checksum and returns 0. *)
let stanford_source prog =
  let src = Tml_stanford.Suite.source prog in
  let marker = "\ndo\n" in
  let rec last i =
    if i < 0 then failwith ("stanford program without a do block: " ^ prog)
    else if String.sub src i (String.length marker) = marker then i
    else last (i - 1)
  in
  let at = last (String.length src - String.length marker) in
  let defs = String.sub src 0 at in
  let from = at + String.length marker in
  let body = String.sub src from (String.length src - from) in
  let body = String.trim body in
  let body =
    if String.length body >= 3 && String.sub body (String.length body - 3) 3 = "end" then
      String.trim (String.sub body 0 (String.length body - 3))
    else failwith ("stanford program do block does not end with end: " ^ prog)
  in
  let names = top_level_names defs in
  let renamed = rename ~prefix:(prog ^ "_") names (defs ^ "\n") in
  let body = rename ~prefix:(prog ^ "_") names body in
  Printf.sprintf "%s\nlet %s(): Int =\n  %s;\n  0\n" (String.trim renamed) (entry_name prog) body

(* the preload order is a seeded permutation of the programs *)
let stanford_order ~seed =
  let a = Array.of_list stanford_programs in
  Prng.shuffle (Prng.make ~seed ~salt:11) a;
  Array.to_list a

let stanford_history ~seed = List.map stanford_source (stanford_order ~seed)

let stanford_preload ~seed =
  List.map (fun s -> Feed s) (stanford_history ~seed) @ [ Feed ":optimize-all"; Seal ]

(* Each unit is one session that calls every entry once, in a seeded
   order, so every seed runs the same mix.  A session starts from the
   committed store, so every call is its program's first.  (One session
   per round rather than per client: a session that never commits
   re-encodes every object it ever allocated after each eval, so its
   latency climbs without bound — see README.) *)
let stanford_stream ~seed ~client =
  let g = Prng.make ~seed ~salt:(300 + client) in
  fun () ->
    let a = Array.of_list stanford_programs in
    Prng.shuffle g a;
    ({ kind = Open; src = ""; expect = Session }
    :: Array.to_list
         (Array.map
            (fun prog -> { kind = Read; src = entry_name prog ^ "()"; expect = Printed (prog, 1) })
            a))
    @ [ { kind = Close; src = ""; expect = Session } ]

(* ------------------------------------------------------------------ *)

let names = [ "rel-oltp"; "long-session"; "stanford-compute" ]

let make name ~seed =
  match name with
  | "rel-oltp" ->
    {
      name;
      preload = rel_oltp_preload;
      history = rel_oltp_history;
      next_unit = (fun ~client -> rel_oltp_stream ~seed ~client);
    }
  | "long-session" ->
    {
      name;
      preload = long_session_preload ~seed;
      history = long_session_history ~seed;
      next_unit = (fun ~client -> long_session_stream ~seed ~client);
    }
  | "stanford-compute" ->
    {
      name;
      preload = stanford_preload ~seed;
      history = stanford_history ~seed;
      next_unit = (fun ~client -> stanford_stream ~seed ~client);
    }
  | _ -> invalid_arg ("unknown workload " ^ name)

(* ------------------------------------------------------------------ *)
(* Reply checking                                                       *)
(* ------------------------------------------------------------------ *)

(* "- : V (in S instructions)\n" closing a reply: (prefix, V, S) *)
let split_value reply =
  let tag = "- : " in
  let n = String.length reply in
  (* the value line starts the reply or follows a newline *)
  let rec find i =
    if i < 0 then None
    else if (i = 0 || reply.[i - 1] = '\n') && String.sub reply i (String.length tag) = tag then
      Some i
    else find (i - 1)
  in
  match find (n - String.length tag) with
  | None -> None
  | Some j -> (
    let line = String.sub reply j (n - j) in
    match Scanf.sscanf line "- : %d (in %d instructions)\n%!" (fun v s -> v, s) with
    | v, s -> Some (String.sub reply 0 j, v, s)
    | exception _ -> None)

(* [check ~oracle e reply]: [Ok steps] ([-1] when the reply carries no
   instruction count) or [Error why] *)
let check_result ~oracle expect reply =
  match expect with
  | Value v -> (
    match split_value reply with
    | Some ("", v', s) when v' = v -> Ok s
    | Some (_, v', _) -> Error (Printf.sprintf "expected %d, got %d: %S" v v' reply)
    | None -> Error (Printf.sprintf "expected %d, got %S" v reply))
  | Defined name ->
    if reply = "defined " ^ name ^ "\n" then Ok (-1)
    else Error (Printf.sprintf "expected definition of %s, got %S" name reply)
  | Inserted _ ->
    if reply = "" then Ok (-1) else Error (Printf.sprintf "expected no output, got %S" reply)
  | Printed (prog, n) -> (
    let want = oracle prog n in
    match split_value reply with
    | Some (out, 0, s) when out = want -> Ok s
    | _ -> Error (Printf.sprintf "%s call %d: expected %S then 0, got %S" prog n want reply))
  | Sealed | Session -> Error "not an evaluation"

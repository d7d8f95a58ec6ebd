(* In-process replay: the same request stream, fed through the public
   functions of each library against a copy of the workload's store
   taken right after setup, one call timed at a time.  Sessions are
   opened the way tmld opens them (a snapshot-backed heap over one
   shared log, [Repl.restore]) and commits are sealed the way its group
   committer seals them (collect, put, one fsynced log commit, re-pin),
   so the replay attributes a request's cost to wire codec, parse, type
   check, lowering, the rest of [Repl.feed] (linking and the machine),
   the post-eval collect, the log commit and session restore. *)

open Tml_vm
open Tml_frontend
module Ls = Tml_store.Log_store
module Wire = Tml_server.Wire

type step = {
  kind : Workload.kind;
  client : int;
  codec : float;  (** seconds; encode + decode of the request and reply frames *)
  parse : float;
  typecheck : float;
  lower : float;
  feed : float;  (** all of [Repl.feed] *)
  collect : float;
  commit : float;
  restore : float;
  steps : int;  (** the reply's instruction count, or -1 *)
  objects : int;  (** objects sealed by a commit, or -1 *)
  bytes : int;  (** log growth of a commit *)
  probes : int;  (** index probes during the feed *)
}

let zero kind client =
  {
    kind;
    client;
    codec = 0.;
    parse = 0.;
    typecheck = 0.;
    lower = 0.;
    feed = 0.;
    collect = 0.;
    commit = 0.;
    restore = 0.;
    steps = -1;
    objects = -1;
    bytes = 0;
    probes = 0;
  }

(* [feed] minus the phases that [Repl.feed] runs inside it and the replay
   re-times on their own *)
let feed_self s = Float.max 0. (s.feed -. s.parse -. s.typecheck -. s.lower)

type result = {
  requests : step list;  (** in replay order *)
  failures : string list;
  optimize : float list;  (** seconds per [Reflect.optimize_inplace] call *)
  rule_fires : int;
  exec : float list;  (** seconds per machine run of a Stanford entry *)
  spans : Tml_obs.Trace.event list;  (** begin/end pairs, tid 100 + client *)
}

let now = Unix.gettimeofday

(* --- spans ---------------------------------------------------------- *)

let spans : Tml_obs.Trace.event list ref = ref []

let span ph ~tid name t =
  spans :=
    {
      Tml_obs.Trace.ev_name = name;
      ev_cat = "replay";
      ev_ph = ph;
      ev_ts = t *. 1e6;
      ev_args = [];
      ev_tid = tid;
    }
    :: !spans

let span_begin = span Tml_obs.Trace.B
let span_end = span Tml_obs.Trace.E

(* time [f], record it as a child span *)
let timed ~tid name f =
  let t0 = now () in
  let x = f () in
  let t1 = now () in
  span_begin ~tid name t0;
  span_end ~tid name t1;
  x, t1 -. t0

(* Self time per span name: each span's duration minus the durations of
   the spans nested directly inside it, summed; with the call count. *)
let self_times (events : Tml_obs.Trace.event list) =
  let totals = Hashtbl.create 16 in
  let stacks = Hashtbl.create 4 in
  List.iter
    (fun (e : Tml_obs.Trace.event) ->
      let stack = Option.value ~default:[] (Hashtbl.find_opt stacks e.ev_tid) in
      match e.ev_ph, stack with
      | Tml_obs.Trace.B, _ ->
        Hashtbl.replace stacks e.ev_tid ((e.ev_name, e.ev_ts, ref 0.) :: stack)
      | Tml_obs.Trace.E, (name, t0, children) :: rest ->
        let dur = e.ev_ts -. t0 in
        (match rest with
        | (_, _, parent) :: _ -> parent := !parent +. dur
        | [] -> ());
        let n, self = Option.value ~default:(0, 0.) (Hashtbl.find_opt totals name) in
        Hashtbl.replace totals name (n + 1, self +. ((dur -. !children) /. 1e6));
        Hashtbl.replace stacks e.ev_tid rest
      | _ -> ())
    events;
  List.sort compare (Hashtbl.fold (fun name (n, self) acc -> (name, n, self) :: acc) totals [])

(* --- sessions ------------------------------------------------------- *)

let stripe = 1 lsl 16

type sess = {
  ps : Pstore.t;
  repl : Repl.session;
  mutable hist : Ast.item list;  (** definitions, for the parallel type check *)
  mutable ntdefs : int;
  lenv : Lower.env;
}

let defs_of items =
  List.filter
    (function
      | Ast.Imodule _ | Ast.Idef _ -> true
      | Ast.Ido _ -> false)
    items

let prelude () = Stdlib_tl.program ()

type base = { b_hist : Ast.item list; b_ntdefs : int }

let base_of history =
  let hist = List.concat_map (fun s -> defs_of (Parser.parse_program s)) history in
  let tp = Typecheck.check_with_prelude ~prelude:(prelude ()) hist in
  { b_hist = hist; b_ntdefs = List.length tp.Typecheck.tdefs }

let open_session log base ~alloc_base ~first =
  let ps = Pstore.open_snapshot log ~alloc_base in
  let repl = Repl.restore ~preserve_caches:(not first) ps in
  let lenv = Lower.env_create ~mode:Lower.Library in
  { ps; repl; hist = base.b_hist; ntdefs = base.b_ntdefs; lenv }

(* how tmld renders a feed result into its reply *)
let render (r : Repl.feed_result) =
  let buf = Buffer.create 128 in
  List.iter (fun name -> Buffer.add_string buf ("defined " ^ name ^ "\n")) r.Repl.defined;
  Buffer.add_string buf r.Repl.output;
  if r.Repl.output <> "" && r.Repl.output.[String.length r.Repl.output - 1] <> '\n' then
    Buffer.add_char buf '\n';
  (match r.Repl.result with
  | Some (Eval.Done Value.Unit, _) -> ()
  | Some (Eval.Done v, steps) ->
    Buffer.add_string buf (Format.asprintf "- : %a (in %d instructions)@." Value.pp v steps)
  | Some (Eval.Raised v, _) ->
    Buffer.add_string buf (Format.asprintf "uncaught exception: %a@." Value.pp v)
  | Some (o, _) -> Buffer.add_string buf (Format.asprintf "%a@." Eval.pp_outcome o)
  | None -> ());
  Buffer.contents buf

let codec ~tid req resp =
  snd
    (timed ~tid "wire.codec" (fun () ->
         let q = Wire.encode_req req in
         ignore (Wire.decode_req q);
         let p = Wire.encode_resp resp in
         ignore (Wire.decode_resp p)))

let parse src =
  match Parser.parse_program src with
  | items -> items
  | exception Parser.Parse_error _ -> [ Ast.Ido (Parser.parse_expr src) ]

let drop n xs = List.filteri (fun i _ -> i >= n) xs

(* one Eval: the parallel front-end phases, then the real feed, then
   the collect tmld runs after every eval *)
let eval ~tid ~oracle s (r : Workload.req) client =
  let items, t_parse = timed ~tid "tl.parse" (fun () -> parse r.Workload.src) in
  let defs = defs_of items in
  let tprog, t_check =
    timed ~tid "tl.typecheck" (fun () ->
        Typecheck.check_with_prelude ~prelude:(prelude ()) (s.hist @ items))
  in
  let (), t_lower =
    timed ~tid "tl.lower" (fun () ->
        ignore (Lower.lower_defs s.lenv (drop s.ntdefs tprog.Typecheck.tdefs));
        match tprog.Typecheck.tmain with
        | Some m -> ignore (Lower.lower_main s.lenv m)
        | None -> ())
  in
  if defs <> [] then begin
    s.hist <- s.hist @ defs;
    s.ntdefs <- List.length tprog.Typecheck.tdefs
  end;
  let probes0 = !Tml_query.Rel.index_probes in
  let fr, t_feed = timed ~tid "tl.feed" (fun () -> Repl.feed s.repl r.Workload.src) in
  let probes = !Tml_query.Rel.index_probes - probes0 in
  let reply = render fr in
  let _, t_collect = timed ~tid "vm.collect" (fun () -> Pstore.collect s.ps) in
  let t_codec = codec ~tid (Wire.Eval r.Workload.src) (Wire.Result reply) in
  let checked = Workload.check_result ~oracle r.Workload.expect reply in
  ( {
      (zero r.Workload.kind client) with
      codec = t_codec;
      parse = t_parse;
      typecheck = t_check;
      lower = t_lower;
      feed = t_feed;
      collect = t_collect;
      steps = (match checked with Ok n -> n | Error _ -> -1);
      probes;
    },
    match checked with Ok _ -> None | Error e -> Some e )

(* the group committer's seal for one session, fsync on *)
let commit ~tid log s kind client =
  let batch, t_collect = timed ~tid "vm.collect" (fun () -> Pstore.collect s.ps) in
  let before = Ls.file_bytes log in
  let (), t_commit =
    timed ~tid "store.commit" (fun () ->
        if batch <> [] then begin
          List.iter (fun (oid, payload) -> Ls.put log oid payload) batch;
          ignore (Ls.commit log)
        end)
  in
  Pstore.mark_committed s.ps (Ls.pin log);
  let t_codec =
    codec ~tid Wire.Commit
      (Wire.Committed { epoch = Ls.seq log; objects = List.length batch; group = 1 })
  in
  {
    (zero kind client) with
    codec = t_codec;
    collect = t_collect;
    commit = t_commit;
    objects = List.length batch;
    bytes = Ls.file_bytes log - before;
  }

(* --- the replay ------------------------------------------------------ *)

let sum_fires () =
  let j = Json.parse (Tml_obs.Metrics.snapshot_json ()) in
  List.fold_left
    (fun acc (k, v) ->
      if String.length k > 6 && String.sub k 0 6 = "fires." then
        acc + int_of_float (match v with Json.Num f -> f | _ -> 0.)
      else acc)
    0
    (Json.fields j [ "sources"; "optimizer" ])

(* Setup's reflective optimization ([:optimize NAME], [:optimize-all]),
   redone in-process on a fresh in-memory session with cold caches: each
   function it covers through [Reflect.optimize_inplace], one timed call
   each. *)
let replay_optimize (wl : Workload.t) =
  let targets =
    List.concat_map
      (function
        | Workload.Feed ":optimize-all" ->
          List.concat_map
            (fun src ->
              List.filter_map
                (function Ast.Idef (Ast.Dfun { name; _ }) -> Some name | _ -> None)
                (Parser.parse_program src))
            wl.Workload.history
        | Workload.Feed src when String.starts_with ~prefix:":optimize " src ->
          [ String.sub src 10 (String.length src - 10) ]
        | _ -> [])
      wl.Workload.preload
  in
  if targets = [] then [], 0
  else begin
    Speccache.clear ();
    Tml_analysis.Cache.clear ();
    let s = Repl.create () in
    List.iter
      (function
        | Workload.Feed src when src.[0] <> ':' -> ignore (Repl.feed s src)
        | _ -> ())
      wl.Workload.preload;
    let before = sum_fires () in
    let times =
      List.filter_map
        (fun name ->
          Option.map
            (fun oid ->
              let t0 = now () in
              ignore (Tml_reflect.Reflect.optimize_inplace (Repl.ctx s) oid);
              now () -. t0)
            (Repl.function_oid s name))
        targets
    in
    times, sum_fires () - before
  end

(* The Stanford entries on the abstract machine, outside any server:
   the preloaded programs linked into one program and reflectively
   optimized as setup does, each replayed call timed. *)
let replay_exec (wl : Workload.t) calls =
  if wl.Workload.name <> "stanford-compute" then []
  else begin
    let p = Link.load (String.concat "\n" wl.Workload.history) in
    Tml_reflect.Reflect.optimize_all p.Link.ctx (Link.all_function_oids p);
    List.map
      (fun (r : Workload.req) ->
        let name = String.sub r.Workload.src 0 (String.index r.Workload.src '(') in
        let t0 = now () in
        ignore (Link.run_function p name [] ~engine:`Machine);
        now () -. t0)
      calls
  end

let units_per_client = function
  | "rel-oltp" -> 12
  | "long-session" -> 4
  | _ -> 3

(* [run wl ~store]: replay the first units of both clients' streams,
   interleaved unit by unit (client 0 first), against [store] — a copy
   of the server's store right after setup.  Deterministic for a seed:
   the same requests in the same order against the same store. *)
let run ?units (wl : Workload.t) ~store =
  spans := [];
  Tml_query.Qprims.install ();
  let units = Option.value units ~default:(units_per_client wl.Workload.name) in
  let log = Ls.open_ ~fsync:true store in
  let base = base_of wl.Workload.history in
  let next_base = ref (((Ls.max_oid log + stripe) / stripe) * stripe) in
  let alloc () =
    let b = !next_base in
    next_base := b + stripe;
    b
  in
  let first = ref true in
  let open_ ~tid client =
    let s, t_restore =
      timed ~tid "tl.restore" (fun () ->
          let s = open_session log base ~alloc_base:(alloc ()) ~first:!first in
          first := false;
          s)
    in
    let t_codec =
      codec ~tid
        (Wire.Hello { version = Wire.protocol_version; client = "wirebench" })
        (Wire.Hello_ok { session = client; epoch = Ls.seq log; server = "tmld" })
    in
    s, { (zero Workload.Open client) with restore = t_restore; codec = t_codec }
  in
  let streams = Array.init 2 (fun c -> wl.Workload.next_unit ~client:c) in
  let sessions = Array.make 2 None in
  let out = ref [] and failures = ref [] and calls = ref [] in
  let record st = out := st :: !out in
  let sess c = match sessions.(c) with Some s -> s | None -> failwith "replay: no session" in
  for _ = 1 to units do
    for c = 0 to 1 do
      let tid = 100 + c in
      List.iter
        (fun (r : Workload.req) ->
          let name = "replay." ^ Workload.kind_name r.Workload.kind in
          let t0 = now () in
          span_begin ~tid name t0;
          (match r.Workload.kind with
          | Workload.Open ->
            let s, st = open_ ~tid c in
            sessions.(c) <- Some s;
            record st
          | Workload.Close ->
            let t = codec ~tid Wire.Bye Wire.Bye_ok in
            Pstore.close (sess c).ps;
            sessions.(c) <- None;
            record { (zero Workload.Close c) with codec = t }
          | Workload.Read | Workload.Write ->
            if r.Workload.kind = Workload.Read then calls := r :: !calls;
            let st, err = eval ~tid ~oracle:Oracle.output (sess c) r c in
            record st;
            Option.iter
              (fun e ->
                let why = Printf.sprintf "replay client %d %S: %s" c r.Workload.src e in
                failures := why :: !failures)
              err
          | Workload.Commit | Workload.Repin ->
            record (commit ~tid log (sess c) r.Workload.kind c));
          span_end ~tid name (now ()))
        (streams.(c) ())
    done
  done;
  Array.iter (function Some s -> Pstore.close s.ps | None -> ()) sessions;
  Ls.close log;
  let exec = replay_exec wl (List.rev !calls) in
  let optimize, rule_fires = replay_optimize wl in
  {
    requests = List.rev !out;
    failures = List.rev !failures;
    optimize;
    rule_fires;
    exec;
    spans = List.rev !spans;
  }

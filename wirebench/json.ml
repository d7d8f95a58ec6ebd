(* Just enough JSON to read tmld's [Stat] snapshot. *)

type t =
  | Obj of (string * t) list
  | Arr of t list
  | Num of float
  | Str of string
  | Bool of bool
  | Null

exception Bad of string

let parse s =
  let n = String.length s in
  let i = ref 0 in
  let peek () = if !i < n then s.[!i] else '\000' in
  let rec ws () =
    if !i < n && (s.[!i] = ' ' || s.[!i] = '\n' || s.[!i] = '\t' || s.[!i] = '\r') then begin
      incr i;
      ws ()
    end
  in
  let expect c =
    ws ();
    if peek () <> c then raise (Bad (Printf.sprintf "expected %c at %d" c !i));
    incr i
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    while peek () <> '"' do
      if !i >= n then raise (Bad "unterminated string");
      (if s.[!i] = '\\' then begin
         incr i;
         match peek () with
         | 'n' -> Buffer.add_char b '\n'
         | 't' -> Buffer.add_char b '\t'
         | 'u' ->
           Buffer.add_char b '?';
           i := !i + 4
         | c -> Buffer.add_char b c
       end
       else Buffer.add_char b s.[!i]);
      incr i
    done;
    incr i;
    Buffer.contents b
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
      incr i;
      ws ();
      if peek () = '}' then (incr i; Obj [])
      else begin
        let rec fields acc =
          let k = str () in
          expect ':';
          let v = value () in
          ws ();
          match peek () with
          | ',' ->
            incr i;
            fields ((k, v) :: acc)
          | '}' ->
            incr i;
            Obj (List.rev ((k, v) :: acc))
          | _ -> raise (Bad (Printf.sprintf "bad object at %d" !i))
        in
        fields []
      end
    | '[' ->
      incr i;
      ws ();
      if peek () = ']' then (incr i; Arr [])
      else begin
        let rec items acc =
          let v = value () in
          ws ();
          match peek () with
          | ',' ->
            incr i;
            items (v :: acc)
          | ']' ->
            incr i;
            Arr (List.rev (v :: acc))
          | _ -> raise (Bad (Printf.sprintf "bad array at %d" !i))
        in
        items []
      end
    | '"' -> Str (str ())
    | 't' -> i := !i + 4; Bool true
    | 'f' -> i := !i + 5; Bool false
    | 'n' -> i := !i + 4; Null
    | _ ->
      let j = !i in
      while
        !i < n
        && match s.[!i] with
           | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
           | _ -> false
      do
        incr i
      done;
      if !i = j then raise (Bad (Printf.sprintf "unexpected %c at %d" (peek ()) j));
      Num (float_of_string (String.sub s j (!i - j)))
  in
  value ()

(* [path j ["metrics"; "counters"; "server.evals"]]: the number there, or
   [0.] when absent (a metric not registered yet has not moved) *)
let rec path j keys =
  match keys, j with
  | [], Num f -> f
  | [], Bool b -> if b then 1. else 0.
  | k :: rest, Obj fields -> (
    match List.assoc_opt k fields with
    | Some v -> path v rest
    | None -> 0.)
  | _ -> 0.

let fields j keys =
  let rec go j = function
    | [] -> ( match j with Obj f -> f | _ -> [])
    | k :: rest -> (
      match j with
      | Obj f -> ( match List.assoc_opt k f with Some v -> go v rest | None -> [])
      | _ -> [])
  in
  go j keys

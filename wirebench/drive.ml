(* Closed-loop clients: each sends its next request only when the reply
   to the previous one has arrived, and checks every reply. *)

open Workload
module Client = Tml_server.Client
module Wire = Tml_server.Wire

type sample = {
  s_kind : kind;
  s_t0 : float;
  s_lat : float;  (** seconds, at the client *)
  s_trace : int;  (** [Client.last_trace_id], 0 untraced *)
  s_client : int;
}

type client = {
  id : int;
  next_unit : unit -> req list;
  trace : bool;
  mutable conn : Client.t option;
  mutable samples : sample list;  (** in the measured window *)
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (** every failure, in or out of the window *)
  mutable inserts : int;  (** rel-oltp inserts sent *)
  mutable pending : int list;  (** rel-oltp keys inserted, not yet committed *)
  mutable acked : int list;  (** rel-oltp keys whose commit was acknowledged *)
  mutable commit_objects : int list;  (** [Committed.objects] of sealing commits *)
}

let make_client ~trace (wl : Workload.t) id =
  {
    id;
    next_unit = wl.next_unit ~client:id;
    trace;
    conn = None;
    samples = [];
    attempted = 0;
    failed = 0;
    errors = [];
    inserts = 0;
    pending = [];
    acked = [];
    commit_objects = [];
  }

(* rel-oltp writers hold this from the re-pinning commit to the sealing
   one (see README: concurrent appends to one relation conflict) *)
let write_token = Mutex.create ()

let conn c =
  match c.conn with
  | Some x -> x
  | None -> failwith "client has no session"

let note_failure c ~record msg =
  c.errors <- msg :: c.errors;
  if record then c.failed <- c.failed + 1

let exec proc c ~record (r : req) =
  let t0 = Unix.gettimeofday () in
  let result =
    match r.kind with
    | Open ->
      c.conn <-
        Some
          (Client.connect ~client:(Printf.sprintf "wirebench-%d" c.id) ~trace:c.trace
             (Wire.Unix_path proc.Proc.sock));
      Ok ()
    | Close ->
      Client.close (conn c);
      c.conn <- None;
      Ok ()
    | Read | Write -> (
      match Client.eval (conn c) r.src with
      | Error e -> Error e
      | Ok reply -> (
        match Workload.check_result ~oracle:Oracle.output r.expect reply with
        | Ok _ ->
          (match r.expect with
          | Inserted k ->
            c.inserts <- c.inserts + 1;
            c.pending <- k :: c.pending
          | _ -> ());
          Ok ()
        | Error e -> Error e))
    | Repin | Commit -> (
      if r.kind = Repin then Mutex.lock write_token;
      let res = Client.commit (conn c) in
      if r.kind = Commit then Mutex.unlock write_token;
      match res with
      | Ok (Client.Committed { objects; _ }) ->
        if r.kind = Commit then begin
          c.acked <- c.pending @ c.acked;
          c.pending <- [];
          c.commit_objects <- objects :: c.commit_objects
        end;
        Ok ()
      | Ok (Client.Conflicted { oid }) -> Error (Printf.sprintf "commit conflict on oid %d" oid)
      | Error e -> Error e)
  in
  let t1 = Unix.gettimeofday () in
  if record then begin
    c.attempted <- c.attempted + 1;
    let trace = match c.conn with Some x when c.trace -> Client.last_trace_id x | _ -> 0 in
    c.samples <-
      { s_kind = r.kind; s_t0 = t0; s_lat = t1 -. t0; s_trace = trace; s_client = c.id }
      :: c.samples
  end;
  match result with
  | Ok () -> ()
  | Error e ->
    note_failure c ~record (Printf.sprintf "client %d %s %S: %s" c.id (kind_name r.kind) r.src e)

(* Units always run to their end, so every session opened is closed
   and every transaction's commit is acknowledged or failed. *)
let run_client proc c ~t_measure ~t_end =
  try
    while Unix.gettimeofday () < t_end do
      List.iter
        (fun r ->
          let now = Unix.gettimeofday () in
          try exec proc c ~record:(now >= t_measure && now < t_end) r
          with e ->
            failwith (Printf.sprintf "%s %S: %s" (kind_name r.kind) r.src (Printexc.to_string e)))
        (c.next_unit ())
    done
  with e ->
    (* a broken connection or a protocol error ends this client; the
       run is marked incorrect *)
    (try Mutex.unlock write_token with _ -> ());
    note_failure c ~record:true
      (Printf.sprintf "client %d aborted: %s" c.id (Printexc.to_string e))

(* Run every client closed-loop until [t_end]; samples count from
   [t_measure].  [at] is called at [t_measure] and [t_end] from this
   thread (stats snapshots). *)
let window proc clients ~t_measure ~t_end ~at =
  let threads =
    List.map (fun c -> Thread.create (fun () -> run_client proc c ~t_measure ~t_end) ()) clients
  in
  let sleep_until t =
    let d = t -. Unix.gettimeofday () in
    if d > 0. then Thread.delay d
  in
  sleep_until t_measure;
  let first = at () in
  sleep_until t_end;
  let last = at () in
  List.iter Thread.join threads;
  first, last

let percentile xs p =
  match xs with
  | [] -> 0.
  | _ ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let rank = p *. float_of_int (n - 1) in
    let lo = truncate rank in
    let hi = min (n - 1) (lo + 1) in
    let f = rank -. float_of_int lo in
    (a.(lo) *. (1. -. f)) +. (a.(hi) *. f)

let median xs = percentile xs 0.5

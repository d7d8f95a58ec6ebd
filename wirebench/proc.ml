(* The tmld child process: start, connect, stop, kill, peak RSS.  Every
   started daemon is remembered so that an aborted run still stops it
   and waits for it. *)

module Client = Tml_server.Client
module Wire = Tml_server.Wire

type t = {
  pid : int;
  store : string;
  sock : string;
  mutable alive : bool;
}

let live : t list ref = ref []

let reap t =
  if t.alive then begin
    t.alive <- false;
    live := List.filter (fun u -> u != t) !live;
    let rec wait () =
      match Unix.waitpid [] t.pid with
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    wait ()
  end

let signal t s =
  if t.alive then (try Unix.kill t.pid s with Unix.Unix_error _ -> ());
  reap t

(* graceful: the daemon drains its sessions and seals its last group *)
let stop t = signal t Sys.sigterm
let kill t = signal t Sys.sigkill
let () = at_exit (fun () -> List.iter kill !live)

let start ~tmld ~store ~sock ~log =
  (try Sys.remove sock with Sys_error _ -> ());
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid =
    (* the defaults are what the benchmark measures: fsync on, 2 ms
       group-commit window, server-side tracing off *)
    Unix.create_process tmld [| tmld; "--store"; store; "--socket"; sock |] Unix.stdin fd fd
  in
  Unix.close fd;
  let t = { pid; store; sock; alive = true } in
  live := t :: !live;
  t

let exited t =
  t.alive
  &&
  match Unix.waitpid [ Unix.WNOHANG ] t.pid with
  | 0, _ -> false
  | _ ->
    t.alive <- false;
    live := List.filter (fun u -> u != t) !live;
    true
  | exception Unix.Unix_error _ -> false

(* Dial until the daemon listens (it binds after bootstrapping the
   store); fails if it dies or takes longer than [timeout] seconds. *)
let connect ?(trace = false) ?(timeout = 60.) ~client t =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    match Client.connect ~client ~trace (Wire.Unix_path t.sock) with
    | c -> c
    | exception (Client.Client_error _ as e) ->
      if exited t then failwith "tmld exited during startup";
      if Unix.gettimeofday () > deadline then raise e;
      Thread.delay 0.002;
      go ()
  in
  go ()

(* peak resident set of the daemon (VmHWM), in MiB *)
let peak_rss_mb t =
  let ic = open_in (Printf.sprintf "/proc/%d/status" t.pid) in
  let rec scan () =
    match input_line ic with
    | line -> (
      match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
      | kb -> Some kb
      | exception _ -> scan ())
    | exception End_of_file -> None
  in
  let kb = scan () in
  close_in ic;
  match kb with
  | Some kb -> float_of_int kb /. 1024.
  | None -> failwith "no VmHWM in /proc status"

let file_bytes path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let remove_store store =
  List.iter
    (fun f -> try Sys.remove f with Sys_error _ -> ())
    [ store; store ^ ".slowlog"; store ^ ".prof" ]

let copy_file src dst =
  let ic = open_in_bin src in
  let oc = open_out_bin dst in
  let buf = Bytes.create 65536 in
  let rec go () =
    let n = input ic buf 0 65536 in
    if n > 0 then begin
      output oc buf 0 n;
      go ()
    end
  in
  go ();
  close_in ic;
  close_out oc

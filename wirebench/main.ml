(* wirebench — the tmld benchmark.

     wirebench --tmld PATH --workload W --seed N --seconds S --trace 0|1

   Starts a real tmld on a freshly preloaded store, drives it from this
   one process through two closed-loop Tml_server.Client connections,
   checks every reply, and prints the metrics as the last line of
   standard output (README.md has the metric map).  --trace 0 reports
   the end-to-end metrics; --trace 1 reports the per-layer ones: an
   untraced window, a traced window of the same seeded stream, and an
   in-process replay of its first units. *)

open Workload
module Client = Tml_server.Client

let now = Unix.gettimeofday

(* --- arguments ------------------------------------------------------ *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let trace = ref 0
let tmld = ref ""
(* scratch directory, relative to the checkout *)
let work = ".wirebench"
let selftest = ref false

(* unmeasured lead-in before the window: sessions, caches and the
   daemon's heap settle *)
let warmup = 2.

(* set-ups per run; setup_s and server_rss_mb are their medians *)
let setups = 7

let spec =
  [
    "--workload", Arg.Set_string workload, "NAME rel-oltp | long-session | stanford-compute";
    "--seed", Arg.Set_int seed, "N seed of the request stream";
    "--seconds", Arg.Set_float seconds, "S length of the measured window";
    "--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer metrics (1)";
    "--tmld", Arg.Set_string tmld, "PATH the tmld executable";
    "--selftest", Arg.Set selftest, " check stream determinism and exact counts, then exit";
  ]

(* --- set-up ---------------------------------------------------------- *)

type server = {
  proc : Proc.t;
  probe : Client.t;  (** the first connection after the preload *)
  setup_s : float;
  setup_rss_mb : float;  (** tmld's peak RSS when set-up ends *)
}

let run_dir () = Filename.concat work (Printf.sprintf "run-%d" (Unix.getpid ()))
let close_quietly c = try Client.close c with _ -> ()

let start_tmld ~store ~sock =
  Proc.start ~tmld:!tmld ~store ~sock ~log:(Filename.concat (run_dir ()) "tmld.log")

(* Store build, tmld start, preload, up to the first Hello_ok after it. *)
let setup (wl : Workload.t) ~tag =
  let store = Filename.concat (run_dir ()) (tag ^ ".tml") in
  Proc.remove_store store;
  let t0 = now () in
  let proc = start_tmld ~store ~sock:(Filename.concat (run_dir ()) (tag ^ ".sock")) in
  let c = Proc.connect ~client:"wirebench-setup" proc in
  let fail what e = failwith (Printf.sprintf "setup: %s: %s" what e) in
  List.iter
    (function
      | Feed src -> (
        match Client.eval c src with
        | Ok _ -> ()
        | Error e -> fail (String.sub src 0 (min 60 (String.length src))) e)
      | Seal -> (
        match Client.commit c with
        | Ok (Client.Committed _) -> ()
        | Ok (Client.Conflicted { oid }) -> fail "commit" (Printf.sprintf "conflict on %d" oid)
        | Error e -> fail "commit" e))
    wl.preload;
  Client.close c;
  let probe = Proc.connect ~client:"wirebench-0" proc in
  let setup_s = now () -. t0 in
  { proc; probe; setup_s; setup_rss_mb = Proc.peak_rss_mb proc }

(* --- one measured window ---------------------------------------------- *)

type phase = {
  clients : Drive.client list;
  t_measure : float;  (** the window *)
  t_end : float;
  stats0 : Json.t;  (** [Stat] snapshots at the window's start and end *)
  stats1 : Json.t;
  bytes0 : int;  (** store file size at the window's start and end *)
  bytes1 : int;
  rss0_mb : float;  (** tmld's peak RSS at the window's start and end *)
  rss_mb : float;
  durable : string list;  (** durability-check failures *)
}

(* rel-oltp only: leave one insert per client uncommitted, SIGKILL the
   daemon, restart it on the same store and check that every
   acknowledged insert is there, intact, and the unacknowledged ones
   are not.  The OS page cache survives a SIGKILL, so this proves less
   than a power cut would. *)
let durability_check srv (clients : Drive.client list) =
  let unacked =
    List.filter_map
      (fun (c : Drive.client) ->
        let conn = Proc.connect ~client:(Printf.sprintf "wirebench-%d" c.Drive.id) srv.proc in
        c.Drive.conn <- Some conn;
        let k = Workload.insert_key ~client:c.Drive.id c.Drive.inserts in
        let lost why =
          Drive.note_failure c ~record:false ("durability: uncommitted insert: " ^ why);
          None
        in
        match Client.eval conn (Workload.insert_src k) with
        | Ok "" -> Some k
        | Ok r | Error r -> lost r
        | exception e -> lost (Printexc.to_string e))
      clients
  in
  Proc.kill srv.proc;
  List.iter
    (fun (c : Drive.client) ->
      Option.iter close_quietly c.Drive.conn;
      c.Drive.conn <- None)
    clients;
  let proc = start_tmld ~store:srv.proc.Proc.store ~sock:srv.proc.Proc.sock in
  let c = Proc.connect ~client:"wirebench-check" proc in
  let expect what src want =
    match Client.eval c src with
    | Ok reply -> (
      match Workload.split_value reply with
      | Some ("", v, _) when v = want -> []
      | Some ("", v, _) -> [ Printf.sprintf "durability: %s: %d, expected %d" what v want ]
      | _ -> [ Printf.sprintf "durability: %s: %S" what reply ])
    | Error e -> [ Printf.sprintf "durability: %s: %s" what e ]
  in
  let acked = List.concat_map (fun (cl : Drive.client) -> cl.Drive.acked) clients in
  let sum =
    List.fold_left
      (fun a k ->
        let k, m, t = Workload.row k in
        a + k + m + t)
      0 acked
  in
  let failures =
    expect "rows" "count(accts)" (Workload.accts_rows + List.length acked)
    @ expect "acknowledged rows"
        (Printf.sprintf
           "do var s := 0; foreach a in accts do if a.1 >= %d then s := s + a.1 + a.2 + a.3 end \
            end; s end"
           Workload.accts_rows)
        sum
    @ List.concat_map
        (fun k -> expect (Printf.sprintf "unacknowledged key %d" k) (Workload.find_src k) 0)
        unacked
  in
  close_quietly c;
  Proc.stop proc;
  failures

let measure (wl : Workload.t) srv ~traced =
  let clients = List.init 2 (fun i -> Drive.make_client ~trace:traced wl i) in
  close_quietly srv.probe;
  (* the tree-evaluator oracle runs before the window, not inside it *)
  if wl.name = "stanford-compute" then
    List.iter (fun prog -> ignore (Oracle.output prog 1)) Workload.stanford_programs;
  let obs = Proc.connect ~client:"wirebench-observer" srv.proc in
  let t_measure = now () +. warmup in
  let t_end = t_measure +. !seconds in
  let snap () =
    ( Json.parse (Client.stats obs),
      Proc.file_bytes srv.proc.Proc.store,
      Proc.peak_rss_mb srv.proc )
  in
  let (stats0, bytes0, rss0_mb), (stats1, bytes1, rss_mb) =
    Drive.window srv.proc clients ~t_measure ~t_end ~at:snap
  in
  close_quietly obs;
  let durable = if wl.name = "rel-oltp" then durability_check srv clients else [] in
  List.iter (fun (c : Drive.client) -> Option.iter close_quietly c.Drive.conn) clients;
  Proc.stop srv.proc;
  { clients; t_measure; t_end; stats0; stats1; bytes0; bytes1; rss0_mb; rss_mb; durable }

(* --- window statistics ------------------------------------------------- *)

let sum_clients p f = List.fold_left (fun a (c : Drive.client) -> a + f c) 0 p.clients
let attempted p = sum_clients p (fun c -> c.Drive.attempted)
let failed p = sum_clients p (fun c -> c.Drive.failed)
let errors p = List.concat_map (fun (c : Drive.client) -> c.Drive.errors) p.clients @ p.durable
let ratio a b = if b > 0. then a /. b else 0.
let failed_ratio p = ratio (float_of_int (failed p)) (float_of_int (attempted p))
let req_per_s p = float_of_int (attempted p) /. !seconds
let samples p = List.concat_map (fun (c : Drive.client) -> c.Drive.samples) p.clients

let lat_in p kind ~lo ~hi =
  List.filter_map
    (fun (s : Drive.sample) ->
      if s.Drive.s_kind = kind && s.Drive.s_t0 >= lo && s.Drive.s_t0 < hi then
        Some (s.Drive.s_lat *. 1000.)
      else None)
    (samples p)

let lat p kind = lat_in p kind ~lo:neg_infinity ~hi:infinity
let p50 p kind = Drive.percentile (lat p kind) 0.5
let p99 p kind = Drive.percentile (lat p kind) 0.99

(* (start, ms) of every unit wholly inside the window, from its Open to
   the end of its Close: a transaction, a definition cycle, or a round
   of entry calls *)
let units p =
  List.concat_map
    (fun (c : Drive.client) ->
      let rec go acc start = function
        | [] -> acc
        | (s : Drive.sample) :: rest -> (
          match s.Drive.s_kind, start with
          | Open, _ -> go acc (Some s.Drive.s_t0) rest
          | Close, Some t0 ->
            go ((t0, (s.Drive.s_t0 +. s.Drive.s_lat -. t0) *. 1000.) :: acc) None rest
          | _ -> go acc start rest)
      in
      go [] None (List.rev c.Drive.samples))
    p.clients

(* The gated latencies are medians over one-second slices of the window
   (a sample belongs to the slice its request started in): a burst of
   noise from outside, or one slow garbage collection, moves a slice,
   not the figure.  A slice without samples has no say. *)
let sliced p f =
  let n = max 1 (int_of_float (Float.round (p.t_end -. p.t_measure))) in
  let w = (p.t_end -. p.t_measure) /. float_of_int n in
  Drive.median
    (List.filter_map
       (fun i ->
         let lo = p.t_measure +. (w *. float_of_int i) in
         match f ~lo ~hi:(lo +. w) with
         | [] -> None
         | xs -> Some (Drive.median xs))
       (List.init n Fun.id))

let steady_read_p50 p = sliced p (lat_in p Read)

let steady_unit_p50 p =
  sliced p (fun ~lo ~hi ->
      List.filter_map (fun (t0, ms) -> if t0 >= lo && t0 < hi then Some ms else None) (units p))

let commits p = List.concat_map (fun (c : Drive.client) -> c.Drive.commit_objects) p.clients

let log_bytes_per_commit p =
  match commits p with
  | [] -> 0.
  | l -> float_of_int (p.bytes1 - p.bytes0) /. float_of_int (List.length l)

(* --- reporting ----------------------------------------------------------- *)

(* the whole window, per request kind *)
let print_table (wl : Workload.t) p =
  Printf.printf "wirebench %s: seed %d, %.0f s window after %.1f s warm-up, 2 closed-loop clients\n"
    wl.name !seed !seconds warmup;
  Printf.printf "  tmld defaults: fsync on, group-commit window 2 ms, server tracing off\n";
  Printf.printf "  %-22s %12.1f req/s\n" "req_per_s" (req_per_s p);
  List.iter
    (fun k ->
      match lat p k with
      | [] -> ()
      | xs ->
        let name = kind_name k in
        Printf.printf "  %-22s %12.3f ms   %s_p90_ms %10.3f ms   %s_p99_ms %10.3f ms   (n=%d)\n"
          (name ^ "_p50_ms") (Drive.median xs) name (Drive.percentile xs 0.9) name
          (Drive.percentile xs 0.99) (List.length xs))
    Workload.all_kinds;
  Printf.printf "  %-22s %12.3f ms\n" "txn_p50_ms" (Drive.median (List.map snd (units p)));
  Printf.printf "  %-22s %12.6f       (%d of %d)\n" "failed_ratio" (failed_ratio p) (failed p)
    (attempted p);
  if commits p <> [] then
    Printf.printf "  %-22s %12.0f B\n" "log_bytes_per_commit" (log_bytes_per_commit p);
  Printf.printf "  %-22s %12.2f MiB at the window's end (%.2f at its start)\n" "peak RSS" p.rss_mb
    p.rss0_mb

let emit ~correct ~attempted ~failed metrics =
  let metric (name, v, unit) =
    let v = if Float.is_finite v then v else 0. in
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " (List.map metric metrics))

(* a failed run keeps its directory (tmld.log, stores) for inspection *)
let keep_run_dir = ref false

let report_errors errs =
  if errs <> [] then keep_run_dir := true;
  List.iteri (fun i e -> if i < 20 then Printf.printf "  FAILED %s\n" e) errs;
  if List.length errs > 20 then Printf.printf "  ... %d more failures\n" (List.length errs - 20)

(* --- per-layer metrics (traced run) ------------------------------------ *)

let stat j keys = Json.path j ("metrics" :: keys)
let diff p keys = stat p.stats1 keys -. stat p.stats0 keys
let ms_of_s x = x *. 1000.

let per_layer ~untraced ~traced (r : Replay.result) =
  let steps kinds =
    List.filter (fun (s : Replay.step) -> List.mem s.Replay.kind kinds) r.Replay.requests
  in
  let p50s kinds f = Drive.median (List.map (fun s -> ms_of_s (f s)) (steps kinds)) in
  let sealing = List.filter (fun (s : Replay.step) -> s.Replay.objects > 0) (steps [ Commit ]) in
  let total f l = float_of_int (List.fold_left (fun a s -> a + f s) 0 l) in
  let objects = total (fun (s : Replay.step) -> s.Replay.objects) sealing in
  let read_steps =
    List.filter_map
      (fun (s : Replay.step) ->
        if s.Replay.steps >= 0 then Some (float_of_int s.Replay.steps) else None)
      (steps [ Read ])
  in
  let hist name q = ms_of_s (stat traced.stats1 [ "histograms"; name; q ]) in
  let lock_wait50 = hist "eval_lock.wait_s" "p50" in
  let speccache k = stat traced.stats1 [ "sources"; "speccache"; k ] in
  (* per kind: client p50 = the replayed layers' self times + lock wait
     + unaccounted *)
  let layers k =
    [
      "wire.codec", p50s [ k ] (fun s -> s.Replay.codec);
      "tl.parse", p50s [ k ] (fun s -> s.Replay.parse);
      "tl.typecheck", p50s [ k ] (fun s -> s.Replay.typecheck);
      "tl.lower", p50s [ k ] (fun s -> s.Replay.lower);
      "tl.feed(self)", p50s [ k ] Replay.feed_self;
      "vm.collect", p50s [ k ] (fun s -> s.Replay.collect);
      "store.commit", p50s [ k ] (fun s -> s.Replay.commit);
      "tl.restore", p50s [ k ] (fun s -> s.Replay.restore);
    ]
  in
  let unaccounted k =
    match lat traced k with
    | [] -> 0.
    | xs -> Drive.median xs -. List.fold_left (fun a (_, v) -> a +. v) 0. (layers k) -. lock_wait50
  in
  Printf.printf "  accounting of the client-observed p50 per request kind (ms):\n";
  List.iter
    (fun k ->
      if lat traced k <> [] then
        Printf.printf "    %-7s client %9.3f = %s + lock wait %.3f + unaccounted %.3f\n"
          (kind_name k) (p50 traced k)
          (String.concat " + " (List.map (fun (n, v) -> Printf.sprintf "%s %.3f" n v) (layers k)))
          lock_wait50 (unaccounted k))
    [ Read; Write; Commit; Open ];
  let rps_u = req_per_s untraced in
  let per_count x n = ratio x (float_of_int n) in
  let counter k = diff traced [ "counters"; k ] in
  [
    "server.lock_wait_ms.p50", lock_wait50, "ms";
    "server.lock_wait_ms.p99", hist "eval_lock.wait_s" "p99", "ms";
    "server.lock_hold_ms.p50", hist "eval_lock.hold_s" "p50", "ms";
    ( "server.group_wait_ms.p50",
      (if diff traced [ "histograms"; "commit.group_wait_s"; "count" ] > 0. then
         hist "commit.group_wait_s" "p50"
       else 0.),
      "ms" );
    ( "server.fsync_amortization",
      ratio (counter "server.commits") (counter "server.group_commits"),
      "ratio" );
    "server.conflicts", counter "server.conflicts", "count";
    "server.busy", counter "server.busy", "count";
    ( "server.rss_kb_per_session",
      per_count (1024. *. (traced.rss_mb -. traced.rss0_mb)) (List.length (lat traced Open)),
      "KiB" );
    "wire.codec_us.p50", 1000. *. p50s Workload.all_kinds (fun s -> s.Replay.codec), "us";
    "tl.feed_ms.read.p50", p50s [ Read ] (fun s -> s.Replay.feed), "ms";
    "tl.feed_ms.write.p50", p50s [ Write ] (fun s -> s.Replay.feed), "ms";
    "tl.parse_ms.p50", p50s [ Read; Write ] (fun s -> s.Replay.parse), "ms";
    "tl.typecheck_ms.p50", p50s [ Read; Write ] (fun s -> s.Replay.typecheck), "ms";
    "tl.lower_ms.p50", p50s [ Write ] (fun s -> s.Replay.lower), "ms";
    "tl.restore_ms.p50", p50s [ Open ] (fun s -> s.Replay.restore), "ms";
    ( "vm.steps_per_read",
      per_count (List.fold_left ( +. ) 0. read_steps) (List.length read_steps),
      "count" );
    "vm.exec_ms.p50", Drive.median (List.map ms_of_s r.Replay.exec), "ms";
    "vm.tier_promoted", stat traced.stats1 [ "sources"; "tier"; "promoted" ], "count";
    "vm.tier_runs", diff traced [ "sources"; "tier"; "runs" ], "count";
    "vm.collect_ms.p50", p50s [ Read; Write ] (fun s -> s.Replay.collect), "ms";
    ( "speccache.hit_rate",
      ratio (speccache "hits") (speccache "hits" +. speccache "misses"),
      "ratio" );
    ( "query.index_probes_per_read",
      per_count
        (diff traced [ "sources"; "query"; "index_probes" ])
        (List.length (lat traced Read)),
      "count" );
    "query.page_faults", diff traced [ "sources"; "query"; "page_faults" ], "count";
    "reflect.optimize_ms.p50", Drive.median (List.map ms_of_s r.Replay.optimize), "ms";
    "optimizer.rule_fires", float_of_int r.Replay.rule_fires, "count";
    ( "store.commit_ms.p50",
      Drive.median (List.map (fun (s : Replay.step) -> ms_of_s s.Replay.commit) sealing),
      "ms" );
    "store.objects_per_commit", per_count objects (List.length sealing), "count";
    ( "store.bytes_per_object",
      ratio (total (fun (s : Replay.step) -> s.Replay.bytes) sealing) objects,
      "B" );
    "replay.unaccounted_ms.read.p50", unaccounted Read, "ms";
    "replay.unaccounted_ms.write.p50", unaccounted Write, "ms";
    "replay.unaccounted_ms.commit.p50", unaccounted Commit, "ms";
    "replay.unaccounted_ms.open.p50", unaccounted Open, "ms";
    "trace.overhead_pct", 100. *. ratio (rps_u -. req_per_s traced) rps_u, "%";
    (* the untraced window's view of the kinds only some workloads have,
       and of the contention tails *)
    "read_p90_ms", Drive.percentile (lat untraced Read) 0.9, "ms";
    "read_p99_ms", p99 untraced Read, "ms";
    "open_p50_ms", p50 untraced Open, "ms";
    "open_p99_ms", p99 untraced Open, "ms";
    "write_p50_ms", p50 untraced Write, "ms";
    "write_p99_ms", p99 untraced Write, "ms";
    "commit_p50_ms", p50 untraced Commit, "ms";
    "commit_p99_ms", p99 untraced Commit, "ms";
    "failed_ratio", failed_ratio untraced, "ratio";
    "log_bytes_per_commit", log_bytes_per_commit untraced, "B";
  ]

(* one Chrome trace: a span per client call (tid = 1 + client, args
   carry the wire trace id) and the replay's per-layer spans *)
let write_trace (wl : Workload.t) traced (r : Replay.result) =
  let client_events =
    List.concat_map
      (fun (s : Drive.sample) ->
        let ev ph ts =
          {
            Tml_obs.Trace.ev_name = "client." ^ kind_name s.Drive.s_kind;
            ev_cat = "client";
            ev_ph = ph;
            ev_ts = ts *. 1e6;
            ev_args = [ ("trace", Tml_obs.Trace.Int s.Drive.s_trace) ];
            ev_tid = 1 + s.Drive.s_client;
          }
        in
        [ ev Tml_obs.Trace.B s.Drive.s_t0; ev Tml_obs.Trace.E (s.Drive.s_t0 +. s.Drive.s_lat) ])
      (List.sort (fun (a : Drive.sample) b -> compare a.Drive.s_t0 b.Drive.s_t0) (samples traced))
  in
  let file = Filename.concat work (Printf.sprintf "trace-%s-seed%d.json" wl.name !seed) in
  let oc = open_out file in
  output_string oc (Tml_obs.Trace.chrome_of_events (client_events @ r.Replay.spans));
  close_out oc;
  Printf.printf "  chrome trace: %s\n" file

(* --- the two modes ------------------------------------------------------ *)

let untraced_run (wl : Workload.t) =
  let servers = List.init setups (fun i -> Printf.sprintf "setup%d" i) in
  (* every set-up but the last is timed and stopped; the last is measured *)
  let rec go acc = function
    | [] -> assert false
    | [ tag ] -> List.rev acc, setup wl ~tag
    | tag :: rest ->
      let srv = setup wl ~tag in
      close_quietly srv.probe;
      Proc.stop srv.proc;
      go (srv :: acc) rest
  in
  let earlier, srv = go [] servers in
  let all = srv :: earlier in
  let setup_s = Drive.median (List.map (fun s -> s.setup_s) all) in
  let rss = Drive.median (List.map (fun s -> s.setup_rss_mb) all) in
  let p = measure wl srv ~traced:false in
  print_table wl p;
  let errs = errors p in
  report_errors errs;
  Printf.printf "  %-22s %12.4f s    (median of %s)\n" "setup_s" setup_s
    (String.concat " " (List.map (fun s -> Printf.sprintf "%.3f" s.setup_s) (List.rev all)));
  Printf.printf "  %-22s %12.2f MiB  (peak RSS when set-up ends, median)\n" "server_rss_mb" rss;
  emit ~correct:(errs = []) ~attempted:(attempted p) ~failed:(failed p)
    [
      "setup_s", setup_s, "s";
      "req_per_s", req_per_s p, "req/s";
      "read_p50_ms", steady_read_p50 p, "ms";
      "txn_p50_ms", steady_unit_p50 p, "ms";
      "server_rss_mb", rss, "MiB";
    ]

let traced_run (wl : Workload.t) =
  let untraced = measure wl (setup wl ~tag:"untraced") ~traced:false in
  Printf.printf "untraced window:\n";
  print_table wl untraced;
  let srv = setup wl ~tag:"traced" in
  let copy = Filename.concat (run_dir ()) "replay.tml" in
  Proc.copy_file srv.proc.Proc.store copy;
  let traced = measure wl srv ~traced:true in
  Printf.printf "traced window:\n";
  print_table wl traced;
  let r = Replay.run wl ~store:copy in
  let metrics = per_layer ~untraced ~traced r in
  List.iter (fun (n, v, u) -> Printf.printf "  %-34s %14.4f %s\n" n v u) metrics;
  Printf.printf "  replay self time by span (span minus the spans inside it):\n";
  List.iter
    (fun (name, n, self) ->
      Printf.printf "    %-18s %6d calls %10.3f ms total\n" name n (ms_of_s self))
    (Replay.self_times r.Replay.spans);
  write_trace wl traced r;
  let errs = errors untraced @ errors traced @ r.Replay.failures in
  report_errors errs;
  emit ~correct:(errs = []) ~attempted:(attempted traced) ~failed:(failed traced) metrics

(* --- self-test ------------------------------------------------------------ *)

(* The same seed must give a byte-identical request stream, and the
   exact counts of two replays on one seed must agree. *)
let selftest_run () =
  let ok = ref true in
  let check what b =
    Printf.printf "%s %s\n%!" (if b then "ok  " else "FAIL") what;
    if not b then ok := false
  in
  let frames name ~seed =
    let wl = Workload.make name ~seed in
    let b = Buffer.create 4096 in
    for client = 0 to 1 do
      let next = wl.next_unit ~client in
      for _ = 1 to 40 do
        List.iter
          (fun r -> Buffer.add_string b (Tml_server.Wire.encode_req (Workload.wire_req ~client r)))
          (next ())
      done
    done;
    Buffer.contents b
  in
  List.iter
    (fun name ->
      check (name ^ ": same seed, byte-identical stream")
        (frames name ~seed:7 = frames name ~seed:7);
      check (name ^ ": another seed, another stream") (frames name ~seed:7 <> frames name ~seed:8))
    Workload.names;
  List.iter
    (fun name ->
      let wl = Workload.make name ~seed:!seed in
      let counts () =
        let srv = setup wl ~tag:"selftest" in
        close_quietly srv.probe;
        Proc.stop srv.proc;
        let copy = Filename.concat (run_dir ()) "replay.tml" in
        Proc.copy_file srv.proc.Proc.store copy;
        let r = Replay.run ~units:2 wl ~store:copy in
        check (name ^ ": replay replies match the model") (r.Replay.failures = []);
        List.map
          (fun (s : Replay.step) ->
            kind_name s.Replay.kind, s.Replay.steps, s.Replay.objects, s.Replay.probes)
          r.Replay.requests
      in
      let a = counts () in
      let b = counts () in
      check (name ^ ": instruction, object and index-probe counts repeat exactly")
        (a = b && a <> []))
    Workload.names;
  if not !ok then exit 1

(* --------------------------------------------------------------------------- *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let () =
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "wirebench --tmld PATH --workload W [options]";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* stopped from outside: take the daemons down too *)
  List.iter
    (fun sg ->
      Sys.set_signal sg
        (Sys.Signal_handle
           (fun _ ->
             List.iter Proc.kill !Proc.live;
             exit 1)))
    [ Sys.sigterm; Sys.sigint ];
  Tml_core.Profile.clock := Unix.gettimeofday;
  Tml_core.Profile.enabled := true;
  Tml_core.Profile.register_metrics ();
  Tml_obs.Trace.clock := Unix.gettimeofday;
  if !tmld = "" || not (Sys.file_exists !tmld) then begin
    prerr_endline "wirebench: --tmld PATH to a built tmld is required";
    exit 2
  end;
  if (not !selftest) && not (List.mem !workload Workload.names) then begin
    prerr_endline ("wirebench: unknown workload " ^ !workload);
    exit 2
  end;
  if not (Sys.file_exists work) then Unix.mkdir work 0o755;
  let dir = run_dir () in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let finish code =
    List.iter Proc.kill !Proc.live;
    if code = 0 && not !keep_run_dir then rm_rf dir;
    exit code
  in
  match
    if !selftest then selftest_run ()
    else begin
      let wl = Workload.make !workload ~seed:!seed in
      if !trace = 1 then traced_run wl else untraced_run wl
    end
  with
  | () -> finish 0
  | exception e ->
    Printf.eprintf "wirebench: %s\n%!" (Printexc.to_string e);
    finish 1

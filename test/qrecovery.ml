(* Crash-recovery driver for the query_recovery.t cram test.

   stage1 builds a multi-page relation with a persistent secondary index
   and a stats object, commits it, then writes a second insert batch and
   tears the log mid-record — the moment a crash would leave behind.
   stage2 reopens the store: recovery must seal the log at the last
   intact commit, and the chunked relation, its index and its statistics
   must come back consistent with each other (the index serves lookups
   without a rebuild and agrees with a full scan).

   Run with no arguments (as part of the plain test binary sweep) it does
   nothing. *)

open Tml_core
open Tml_vm
open Tml_query

let lookup_len ctx rel key =
  match Rel.lookup ctx rel ~field:1 (Literal.Int key) with
  | Some positions -> List.length positions
  | None -> -1

let scan_len ctx rel key =
  let n = ref 0 in
  Rel.iteri ctx rel (fun _ row ->
      let fields = Rel.row_tuple ctx row in
      if Array.length fields > 1 && Value.identical fields.(1) (Value.Int key) then incr n);
  !n

let stage1 path =
  Relcore.default_page_size := 4;
  Qprims.install ();
  let ps = Pstore.create ~fsync:false path in
  let ctx = Runtime.create (Pstore.heap ps) in
  let rows = List.init 22 (fun i -> [| Value.Int i; Value.Int (i mod 5) |]) in
  let rel = Rel.of_rows ctx ~name:"events" (Rel.tuples ctx rows) in
  Rel.add_index ctx rel 1;
  ignore (Pstore.commit ~root:rel ps);
  let r = Rel.get ctx rel in
  Printf.printf "baseline: %d rows in %d pages + %d tail, lookup(1)=%d\n"
    (Rel.length ctx rel) (Relcore.page_count r) r.Value.rel_tail_len
    (lookup_len ctx rel 1);
  let baseline = (Unix.stat path).Unix.st_size in
  (* the batch a crash will swallow *)
  for i = 100 to 104 do
    Rel.insert ctx rel [| Value.Int i; Value.Int (i mod 5) |]
  done;
  ignore (Pstore.commit ps);
  Pstore.close ps;
  let full = (Unix.stat path).Unix.st_size in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Unix.ftruncate fd (baseline + ((full - baseline) / 2));
  Unix.close fd;
  Printf.printf "tore the log mid-record inside the second commit\n"

let stage2 path =
  Qprims.install ();
  let ps = Pstore.open_ ~fsync:false path in
  let ctx = Runtime.create (Pstore.heap ps) in
  let rel = match Pstore.root ps with Some oid -> oid | None -> failwith "no root" in
  Rel.index_builds := 0;
  Rel.index_loads := 0;
  let looked = lookup_len ctx rel 1 in
  let n = Rel.length ctx rel in
  let scanned = scan_len ctx rel 1 in
  let stats_card = match Rel.stats ctx rel with Some st -> st.Value.st_count | None -> -1 in
  Printf.printf "recovered: %d rows, lookup(1)=%d, scan(1)=%d, stats count=%d\n" n looked
    scanned stats_card;
  Printf.printf "index loads=%d rebuilds=%d, log truncations=%d\n" !Rel.index_loads
    !Rel.index_builds
    (Pstore.stats ps).Tml_store.Store_stats.recovery_truncations;
  Pstore.close ps

let () =
  match Sys.argv with
  | [| _; "stage1"; path |] -> stage1 path
  | [| _; "stage2"; path |] -> stage2 path
  | _ -> ()

(** Query primitives (section 4.2).

    "CPS focuses on data and control dependencies, but leaves much freedom
    in the choice of the particular primitive procedures to be used for the
    representation of declarative queries."  We use the classic operators
    the paper's SQL example uses, plus the aggregates and constructors the
    TL front end needs:

    - [(select pred rel ce cc)] — σ; [pred] is a user-level procedure
      [proc(x ce cc)] returning a boolean; row identity is preserved.
    - [(project f rel ce cc)] — π with a tuple-producing function.
    - [(join pred rel1 rel2 ce cc)] — nested-loop ⋈ producing concatenated
      tuples.
    - [(exists pred rel ce cc)] — ∃.
    - [(empty rel cc)] — R = ∅.
    - [(count rel cc)] — |R|.
    - [(sum f rel ce cc)] — Σ f(x).
    - [(foreach body rel ce cc)] — element-at-a-time iteration.
    - [(tuple v1..vn cc)] — tuple construction.
    - [(relation v1..vn cc)] — relation construction from tuple references.
    - [(insert rel tuple ce cc)] — append a row, maintain indexes, fire the
      relation's stored triggers with the new tuple (a raising trigger
      propagates through [ce]; the row stays inserted — triggers run after
      the update).
    - [(ontrigger rel fn cc)] — register a stored trigger procedure.
    - [(mkindex rel field cc)] — build a hash index (a runtime binding).
    - [(indexselect rel field key ce cc)] — indexed equality selection,
      with the rows and order of [select] on [x.[field] == key]: probe hits
      are re-checked with [==] (the index buckets signed zeros and NaNs
      together); falls back to a scan when no index exists or the key has
      no literal form.
    - [(idxjoin r1 r2 f1 f2 ce cc)] — index-accelerated equi-join: probes
      [r2]'s persistent index on [f2] with each [r1] row's [f1] value,
      reproducing the output of [join] on [x.[f1] == y.[f2]] (row order
      included): candidate pairs are re-checked with [==], and a key with
      no literal form scans [r2]; falls back to a nested scan when no index
      exists.
    - [(union r1 r2 cc)] — multiset union (row identity preserved).
    - [(inter r1 r2 cc)] / [(diff r1 r2 cc)] — rows of [r1] whose {e field
      contents} do (not) appear in [r2].
    - [(distinct rel cc)] — duplicate elimination by field contents.
    - [(minagg f rel ce cc)] / [(maxagg f rel ce cc)] — integer aggregates;
      the empty relation raises through [ce].

    [install] registers both the optimizer descriptors ({!Tml_core.Prim})
    and the runtime implementations ({!Tml_vm.Runtime}) — the two halves of
    the paper's primitive-procedure framework. *)

val install : unit -> unit

(** Names registered by [install]. *)
val names : string list

(** Current values of the [query] metrics-source counters
    (page faults, seals, index probes/loads/builds, ...). *)
val query_counters : unit -> (string * int) list

(** Register the ["query"] source in the {!Tml_obs.Metrics} registry. *)
val register_metrics : unit -> unit

val reset_query_counters : unit -> unit

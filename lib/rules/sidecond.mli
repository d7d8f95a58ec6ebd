(** The closed side-condition vocabulary of the rule DSL: syntactic term
    walks that decide whether a declared precondition holds at a candidate
    redex.  Every analysis here is conservative — [false] only ever costs a
    missed rewrite, never soundness. *)

open Tml_core

(** [reader_positions prim] — the argument positions at which [prim]
    consumes a relation read-only (e.g. [select]'s source is position 1). *)
val reader_positions : string -> int list

(** [alias_safe tmp body] — the continuation region [body] consumes the
    relation bound to [tmp] strictly read-only: every application head is a
    continuation jump, a β-redex or a Pure/Observer primitive, and every
    occurrence of [tmp] sits at a relation-reading argument position.
    Under these conditions aliasing [tmp] to its source relation (instead
    of copying) is unobservable. *)
val alias_safe : Ident.t -> Term.app -> bool

(** [alias_ok tmp body] — the layered aliasing gate: {!alias_safe}, or
    the flow-based [Tml_analysis.Alias.select_alias_ok] escape analysis. *)
val alias_ok : Ident.t -> Term.app -> bool

(** [pure_app a] — only continuation jumps, β-redexes and [Pure]
    primitives (no [Y]): evaluating [a] can neither touch the store, call
    unknown procedures nor diverge. *)
val pure_app : Term.app -> bool

(** [row_local x a] — [a] observes the row [x] exclusively through field
    reads and performs no mutation, host calls or recursion, making it a
    deterministic function of the row's field contents. *)
val row_local : Ident.t -> Term.app -> bool

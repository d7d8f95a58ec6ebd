(** Execution oracles: run one generated program through several engines and
    compare everything the semantics calls observable.

    The engines are the tree-walking evaluator (the reference semantics),
    the compiled abstract machine, optimize-then-compile at each static
    optimization level, and the reflective optimizer's persistent path
    (encode to PTML, decode, optimize with the store-aware rules, compile).
    Agreement is required on:

    - the {e outcome} — normal result, raised value, or fault (faults
      compare by kind only: messages are host detail);
    - the {e output} — everything written through [ccall];
    - the {e store effect} — a canonical dump ({!Canon}) of the objects the
      program created or mutated.  For plain programs the whole heap is
      compared (allocation order is deterministic); for query programs only
      the store reachable from the base relation is compared, because the
      algebraic rewrites legitimately change which {e intermediate}
      relations exist.

    Instruction counts are recorded per engine but never compared: the two
    engines have different cost models, and the optimizer exists precisely
    to change them. *)

open Tml_core
open Tml_vm

(** An engine under test.  [Opt] optimizes statically and runs the machine;
    [Reflect] takes the persistent path: the program is stored as a function
    object, optimized through its PTML with the store-aware rules, then
    compiled.  For query programs [Reflect] additionally closes the program
    over its relation argument as an R-value binding, so the query rewrites
    of section 4.2 can consult runtime store bindings. *)
type engine =
  | Tree
  | Mach
  | Opt of string * Optimizer.config
  | Reflect of string * Tml_reflect.Reflect.config
  | Reflect_cached of string * Tml_reflect.Reflect.config
      (** like [Reflect], but the function is specialized twice: a first
          [optimize] populates the specialization cache, then the in-place
          pass must be {e served from it} — so the executed code is the
          cached (PTML-round-tripped, α-freshened) specialization, compared
          against the tree baseline exactly like a fresh one.  A miss on
          the second pass is reported as an engine error: a silently cold
          cache would make the comparison vacuous. *)
  | Tiered of string * Tml_reflect.Reflect.config option
      (** store the program (with R-value bindings like [Reflect]),
          optionally optimize it reflectively in place, then
          {e force-promote} it to the compiled closure tier and run it
          through the machine's normal entry point — the tier hook routes
          execution into compiled code ({!Tierup}/{!Jit}).  A promotion
          that never enters compiled code is an engine error (the
          comparison would be vacuous), mirroring the cached engine's
          must-hit rule. *)

val engine_name : engine -> string

(** The standard battery: tree, machine, O1/O2/O3, reflective (program
    rules), reflective (program + query rules), the cached reflective
    pair, and the tiered pair (raw and reflect-optimized code promoted
    to the compiled closure tier).  [validate] turns the optimizer's
    pass-level translation validation on in every optimizing engine. *)
val engines : validate:bool -> engine list

(** What one engine observed.  [steps] is informational only. *)
type observation = {
  outcome : Eval.outcome;
  output : string;
  store : string;
  steps : int;
}

val pp_observation : Format.formatter -> observation -> unit
val observation_equal : observation -> observation -> bool

type disagreement = {
  engine : string;          (** the engine that disagreed (or errored) *)
  baseline : observation option;  (** what {!Tree} observed *)
  got : (observation, string) result;
      (** the engine's observation, or the optimizer/compiler exception it
          raised — a validation failure reported by the pass-level hook
          lands here *)
}

type verdict =
  | Agree of observation     (** every engine matched the tree evaluator *)
  | Disagree of disagreement list

val pp_verdict : Format.formatter -> verdict -> unit

(** [check_case ~engines c] — run a full differential comparison of a
    generated program.  Never raises: engine exceptions become
    disagreements. *)
val check_case : engines:engine list -> Tgen.case -> verdict

(** [query_relation ?page_size ctx c] — a fresh store relation holding
    [c]'s rows, with a hash index on [c.qindex] when it names a field.
    [page_size] overrides the default row-page size while it is built. *)
val query_relation : ?page_size:int -> Tml_vm.Runtime.ctx -> Tgen.query_case -> Oid.t

(** [check_query ~engines c] — differential comparison of a query program
    over its generated relation. *)
val check_query : engines:engine list -> Tgen.query_case -> verdict

(** [observe_query engine c] — run a single query case through one engine
    and return what it observed (or the engine error).  This is the
    building block the per-rule proof obligations ({!Obligation}) use: the
    rule's redex is wrapped as a [query_case] before and after the rewrite
    and both are observed under the same engines. *)
val observe_query : engine -> Tgen.query_case -> (observation, string) result

(** [case_fails ~engines c] / [query_fails ~engines c] — predicate forms for
    {!Tgen.minimize}. *)
val case_fails : engines:engine list -> Tgen.case -> bool

val query_fails : engines:engine list -> Tgen.query_case -> bool

(** {1 Purity cross-check}

    The differential oracles validate the optimizer against the evaluators;
    this one validates the {e effect analysis} against an execution: claims
    the inferred signature makes about a generated query procedure
    (read-only, fault-free, terminating) are checked against what actually
    happened on the reference evaluator.  A violation is an analysis
    unsoundness — the bug class the analysis-gated rewrites depend on never
    happening. *)

type purity_verdict =
  | Purity_agree  (** every claim held (or the run made none testable) *)
  | Purity_untestable of string
      (** worst-case signature, or the run could not be judged *)
  | Purity_violation of string  (** an inferred claim was observably false *)

val check_purity : Tgen.query_case -> purity_verdict

(** Predicate form for {!Tgen.minimize}. *)
val purity_fails : Tgen.query_case -> bool

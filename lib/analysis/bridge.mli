(** The optimizer bridge: effect-analysis-driven rewriting.

    Consumers opt in by wrapping their {!Tml_core.Optimizer.config} with
    {!with_analysis}.  The same analysis also backs the aliasing gate of
    [Qrewrite.constant_select] ([Sidecond.alias_ok]), which accepts what
    the syntactic [alias_safe] walk or the flow-based
    {!Alias.select_alias_ok} accepts. *)

open Tml_core

(** Delete a call with a dead result when the callee's inferred signature
    is pure, terminating, fault-free and confined to its return
    continuation. *)
val effect_remove : Rewrite.rule

(** All effect-based domain rules. *)
val rules : Rewrite.rule list

(** Expansion bonus for abstractions with benign inferred effects. *)
val inline_bonus : Term.abs -> int

(** [with_analysis c] adds {!rules} to [c.rules] and installs
    {!inline_bonus} as the expansion pass's [effect_bonus]. *)
val with_analysis : Optimizer.config -> Optimizer.config

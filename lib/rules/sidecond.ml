open Tml_core
open Term

(* The syntactic side-condition walks of the rule DSL's closed precondition
   vocabulary.  These used to live next to the query rules in
   [Tml_query.Qrewrite]; they are domain-independent term analyses, so the
   rule language owns them now and the query library re-exports what its
   interface promised. *)

(* Relation-reading primitives and the argument positions at which a
   relation is consumed read-only. *)
let reader_positions = function
  | "select" | "project" | "exists" | "sum" | "minagg" | "maxagg" | "foreach" -> [ 1 ]
  | "join" -> [ 1; 2 ]
  | "count" | "empty" | "distinct" | "indexselect" -> [ 0 ]
  | "union" | "inter" | "diff" -> [ 0; 1 ]
  | _ -> []

(* σtrue(R) ≡ R {e aliases} the would-be copy to R itself, which is only
   sound when the temp is consumed read-only and no relation can be mutated
   while it is live: an [insert]/[mkindex]/[ontrigger] through either name
   would be visible through the other, and an identity test would tell the
   alias from the fresh (row-identity-preserving) copy the unoptimized
   select allocates.  [alias_safe tmp body] checks both syntactically —
   every application head is a continuation jump, a β-redex or a
   Pure/Observer primitive (no mutators, no unknown procedure calls, no
   [Y], no host calls), and every occurrence of [tmp] sits at a
   relation-reading argument position.  Found by the differential fuzzer:
   (select true R cont(s) (insert s t ...)) must insert into a copy. *)
let rec alias_safe tmp (a : app) =
  let head_ok =
    match a.func with
    | Prim "Y" -> false
    | Prim name -> (
      match Prim.find name with
      | Some d -> (
        match d.Prim.attrs.effects with
        | Prim.Pure | Prim.Observer -> true
        | Prim.Mutator | Prim.Control | Prim.External -> false)
      | None -> false)
    | Var id -> Ident.is_cont id
    | Abs _ -> true
    | Lit _ -> false
  in
  let allowed =
    match a.func with
    | Prim name -> reader_positions name
    | _ -> []
  in
  let arg_ok pos v =
    match v with
    | Var id when Ident.equal id tmp -> List.mem pos allowed
    | _ -> true
  in
  let func_ok =
    match a.func with
    | Var id -> not (Ident.equal id tmp)
    | _ -> true
  in
  let sub_ok v =
    match v with
    | Abs inner -> alias_safe tmp inner.body
    | Lit _ | Var _ | Prim _ -> true
  in
  head_ok && func_ok
  && List.for_all2 arg_ok (List.init (List.length a.args) Fun.id) a.args
  && List.for_all sub_ok (a.func :: a.args)

(* The aliasing gate is layered: the syntactic [alias_safe] walk decides
   the easy cases, and the flow-based [Tml_analysis.Alias.select_alias_ok]
   additionally accepts regions where the alias only reaches readers
   through local procedure bindings — calls [alias_safe] must reject
   outright. *)
let alias_ok tmp body = alias_safe tmp body || Tml_analysis.Alias.select_alias_ok ~tmp body

(* A conservative syntactic purity check: only continuation-variable jumps,
   β-redexes and primitives of effect class [Pure] (excluding [Y], whose
   recursion could diverge). *)
let rec pure_app (a : app) =
  let head_ok =
    match a.func with
    | Prim "Y" -> false
    | Prim name -> (
      match Prim.find name with
      | Some d -> d.Prim.attrs.effects = Prim.Pure
      | None -> false)
    | Var id -> Ident.is_cont id
    | Abs _ -> true
    | Lit _ -> false
  in
  head_ok
  && List.for_all
       (fun v ->
         match v with
         | Abs inner -> pure_app inner.body
         | Lit _ | Var _ | Prim _ -> true)
       (a.func :: a.args)

(* A predicate is "row-local" when it observes the row exclusively through
   field reads ([] with the row as the indexed object) and performs no
   mutation, host calls or recursion: such a predicate is a deterministic
   function of the row's field contents (content-equal rows have pairwise
   identical field values), so per-content-class transformations like
   swapping selection with duplicate elimination cannot change behaviour. *)
let rec row_local x (a : app) =
  let head_ok =
    match a.func with
    | Prim "Y" -> false
    | Prim name -> (
      match Prim.find name with
      | Some d -> (
        match d.Prim.attrs.effects with
        | Prim.Pure | Prim.Observer -> true
        | Prim.Mutator | Prim.Control | Prim.External -> false)
      | None -> false)
    | Var id -> Ident.is_cont id
    | Abs _ -> true
    | Lit _ -> false
  in
  let row_use_ok pos v =
    match v with
    | Var id when Ident.equal id x -> (
      (* only as the indexed object of a field read *)
      match a.func with
      | Prim "[]" -> pos = 0
      | _ -> false)
    | _ -> true
  in
  let sub_ok v =
    match v with
    | Abs inner -> row_local x inner.body
    | Lit _ | Var _ | Prim _ -> true
  in
  head_ok
  && List.for_all2 row_use_ok (List.init (List.length a.args) Fun.id) a.args
  && List.for_all sub_ok (a.func :: a.args)

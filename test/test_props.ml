(* Property-based tests (qcheck) over randomly generated, well-formed,
   terminating TML programs: the system-level invariants of DESIGN.md §6.

   Each property uses {!Tml_core.Gen} wrapped as a qcheck arbitrary; cases
   are registered as alcotest cases via QCheck_alcotest. *)

open Tml_core
open Tml_vm

(* A generated program together with two integer inputs. *)
type case = {
  proc : Term.value;
  a : int;
  b : int;
}

let case_gen =
  QCheck2.Gen.(
    let* seed = int_bound 1_000_000 in
    let* size = int_range 5 45 in
    let* a = int_range (-20) 20 in
    let* b = int_range (-20) 20 in
    let rng = Random.State.make [| seed; size |] in
    return { proc = Gen.proc2 rng ~size; a; b })

let print_case c =
  Printf.sprintf "a=%d b=%d\n%s" c.a c.b (Sexp.print_value c.proc)

let run_with engine proc a b =
  let heap = Value.Heap.create () in
  let ctx = Runtime.create ~fuel:3_000_000 heap in
  let oid = Value.Heap.alloc_func heap ~name:"p" proc in
  let fn = Value.Oidv oid in
  match engine with
  | `Tree -> Eval.run_proc ctx fn [ Value.Int a; Value.Int b ]
  | `Machine -> Machine.run_proc ctx fn [ Value.Int a; Value.Int b ]

let count = 300

let prop_generated_wf =
  QCheck2.Test.make ~name:"generated programs are well-formed" ~count ~print:print_case
    case_gen (fun c ->
      match Wf.check_value c.proc with
      | Ok () -> true
      | Error _ -> false)

let prop_engines_agree =
  QCheck2.Test.make ~name:"tree evaluator and abstract machine agree" ~count
    ~print:print_case case_gen (fun c ->
      Eval.outcome_equal (run_with `Tree c.proc c.a c.b) (run_with `Machine c.proc c.a c.b))

let prop_optimizer_preserves_semantics =
  QCheck2.Test.make ~name:"optimization preserves observable behaviour" ~count
    ~print:print_case case_gen (fun c ->
      let optimized, _ = Optimizer.optimize_value ~config:Optimizer.o3 c.proc in
      let before = run_with `Machine c.proc c.a c.b in
      let after = run_with `Machine optimized c.a c.b in
      Eval.outcome_equal before after)

let prop_optimizer_preserves_wf =
  QCheck2.Test.make ~name:"optimization preserves well-formedness" ~count ~print:print_case
    case_gen (fun c ->
      let optimized, _ = Optimizer.optimize_value ~config:Optimizer.o3 c.proc in
      Wf.check_value optimized = Ok ())

let prop_reduction_shrinks =
  QCheck2.Test.make ~name:"reduction never grows the tree" ~count ~print:print_case case_gen
    (fun c -> Term.size_value (Rewrite.reduce_value c.proc) <= Term.size_value c.proc)

let prop_reduction_idempotent =
  QCheck2.Test.make ~name:"reduction is idempotent" ~count ~print:print_case case_gen
    (fun c ->
      let once = Rewrite.reduce_value c.proc in
      let twice = Rewrite.reduce_value once in
      Term.equal_value once twice)

let prop_ptml_roundtrip =
  QCheck2.Test.make ~name:"PTML decode ∘ encode = id" ~count ~print:print_case case_gen
    (fun c ->
      let bytes = Tml_store.Ptml.encode_value c.proc in
      Term.equal_value c.proc (Tml_store.Ptml.decode_value bytes))

let prop_sexp_roundtrip =
  QCheck2.Test.make ~name:"concrete syntax round trips (α)" ~count ~print:print_case
    case_gen (fun c ->
      let reparsed = Sexp.parse_value (Sexp.print_value c.proc) in
      Term.alpha_equal_value c.proc reparsed)

let prop_freshen_alpha_equal =
  QCheck2.Test.make ~name:"α-freshening preserves α-equivalence" ~count ~print:print_case
    case_gen (fun c -> Term.alpha_equal_value c.proc (Alpha.freshen_value c.proc))

(* The expansion pass deliberately trades static size for dynamic speed, so
   the static cost of the tree may grow; the dynamic guarantee is the one
   that matters: the optimized program never executes more abstract
   instructions (small slack for differences in closure-construction
   accounting). *)
let steps_of proc a b =
  let heap = Value.Heap.create () in
  let ctx = Runtime.create ~fuel:3_000_000 heap in
  let oid = Value.Heap.alloc_func heap ~name:"p" proc in
  let outcome = Machine.run_proc ctx (Value.Oidv oid) [ Value.Int a; Value.Int b ] in
  outcome, ctx.Runtime.steps

let prop_optimized_not_costlier =
  QCheck2.Test.make ~name:"optimization never slows execution down" ~count
    ~print:print_case case_gen (fun c ->
      let optimized, _ = Optimizer.optimize_value c.proc in
      let o1, s1 = steps_of c.proc c.a c.b in
      let o2, s2 = steps_of optimized c.a c.b in
      match o1, o2 with
      | (Eval.Done _ | Eval.Raised _), _ -> Eval.outcome_equal o1 o2 && s2 <= s1 + 16
      | _ -> true)

(* What reduction alone guarantees: the static cost never grows. *)
let prop_reduced_not_costlier =
  QCheck2.Test.make ~name:"reduction never increases static cost" ~count ~print:print_case
    case_gen (fun c -> Cost.value_cost (Rewrite.reduce_value c.proc) <= Cost.value_cost c.proc)

let prop_reflect_through_store =
  QCheck2.Test.make ~name:"reflective in-place optimization preserves behaviour" ~count:150
    ~print:print_case case_gen (fun c ->
      let heap = Value.Heap.create () in
      let ctx = Runtime.create ~fuel:3_000_000 heap in
      let oid = Value.Heap.alloc_func heap ~name:"p" c.proc in
      let before = Machine.run_proc ctx (Value.Oidv oid) [ Value.Int c.a; Value.Int c.b ] in
      let _ = Tml_reflect.Reflect.optimize_inplace ctx oid in
      let after = Machine.run_proc ctx (Value.Oidv oid) [ Value.Int c.a; Value.Int c.b ] in
      Eval.outcome_equal before after)

let prop_image_roundtrip_runs =
  QCheck2.Test.make ~name:"store image round trip preserves function behaviour" ~count:100
    ~print:print_case case_gen (fun c ->
      let heap = Value.Heap.create () in
      let oid = Value.Heap.alloc_func heap ~name:"p" c.proc in
      let heap' = Image.load (Image.save heap) in
      let ctx = Runtime.create ~fuel:3_000_000 heap in
      let ctx' = Runtime.create ~fuel:3_000_000 heap' in
      let r1 = Machine.run_proc ctx (Value.Oidv oid) [ Value.Int c.a; Value.Int c.b ] in
      let r2 = Machine.run_proc ctx' (Value.Oidv oid) [ Value.Int c.a; Value.Int c.b ] in
      Eval.outcome_equal r1 r2)

(* ------------------------------------------------------------------ *)
(* Query rewriting on random relations                                  *)
(* ------------------------------------------------------------------ *)

type query_case = {
  rows : (int * int * int) list;
  f1 : int;  (* predicate fields *)
  f2 : int;
  v1 : int;  (* thresholds *)
  v2 : int;
  op1 : string;
  op2 : string;
}

let query_case_gen =
  QCheck2.Gen.(
    let* n = int_range 0 30 in
    let* rows =
      list_size (return n) (triple (int_bound 20) (int_bound 20) (int_bound 20))
    in
    let* f1 = int_bound 2 in
    let* f2 = int_bound 2 in
    let* v1 = int_bound 20 in
    let* v2 = int_bound 20 in
    let* op1 = oneofl [ "<"; "<="; ">"; ">="; "==" ] in
    let* op2 = oneofl [ "<"; "<="; ">"; ">="; "==" ] in
    return { rows; f1; f2; v1; v2; op1; op2 })

let print_query_case c =
  Printf.sprintf "rows=%d pred1=(.%d %s %d) pred2=(.%d %s %d)" (List.length c.rows) c.f1
    c.op1 c.v1 c.f2 c.op2 c.v2

let pred_src ~tag ~field ~op ~value =
  if op = "==" then
    Printf.sprintf
      "proc(x%s pce%s! pcc%s!) ([] x%s %d cont(t%s) (== t%s %d cont() (pcc%s! true) cont() \
       (pcc%s! false)))"
      tag tag tag tag field tag tag value tag tag
  else
    Printf.sprintf
      "proc(x%s pce%s! pcc%s!) ([] x%s %d cont(t%s) (%s t%s %d cont() (pcc%s! true) cont() \
       (pcc%s! false)))"
      tag tag tag tag field tag op tag value tag tag

let run_rel_query c term_src ~rewrite =
  Tml_query.Qprims.install ();
  let heap = Value.Heap.create () in
  let ctx = Runtime.create ~fuel:3_000_000 heap in
  let rel =
    Tml_query.Rel.of_rows ctx ~name:"r"
      (Tml_query.Rel.tuples ctx
         (List.map (fun (a, b, d) -> [| Value.Int a; Value.Int b; Value.Int d |]) c.rows))
  in
  let term = Sexp.parse_app term_src in
  let term =
    if rewrite then Rewrite.reduce_app ~rules:Tml_query.Qopt.static_rules term else term
  in
  let frees = Ident.Set.elements (Term.free_vars_app term) in
  let env =
    List.fold_left
      (fun env id ->
        let v =
          match id.Ident.name with
          | "r" -> Some (Value.Oidv rel)
          | "halt_ok" -> Some (Value.Halt true)
          | "halt_err" -> Some (Value.Halt false)
          | _ -> None
        in
        match v with
        | Some v -> Ident.Map.add id v env
        | None -> env)
      Ident.Map.empty frees
  in
  Eval.run_app ctx ~env term

let agree c src =
  let o1 = run_rel_query c src ~rewrite:false in
  let o2 = run_rel_query c src ~rewrite:true in
  match o1, o2 with
  | Eval.Done v1, Eval.Done v2 -> Value.identical v1 v2
  | Eval.Raised v1, Eval.Raised v2 -> Value.identical v1 v2
  | _ -> false

let prop_merge_select_agrees =
  QCheck2.Test.make ~name:"merge-select preserves query results" ~count:200
    ~print:print_query_case query_case_gen (fun c ->
      let src =
        Printf.sprintf
          "(select %s r halt_err! cont(tmp) (select %s tmp halt_err! cont(out) (sum \
           proc(xs sce! scc!) ([] xs 0 scc!) out halt_err! cont(s) (count out cont(n) (+ s \
           n halt_err! cont(chk) (halt_ok! chk))))))"
          (pred_src ~tag:"a" ~field:c.f1 ~op:c.op1 ~value:c.v1)
          (pred_src ~tag:"b" ~field:c.f2 ~op:c.op2 ~value:c.v2)
      in
      agree c src)

let prop_select_union_agrees =
  QCheck2.Test.make ~name:"select-over-union preserves query results" ~count:200
    ~print:print_query_case query_case_gen (fun c ->
      let src =
        Printf.sprintf
          "(union r r cont(both) (select %s both halt_err! cont(out) (count out cont(n) \
           (halt_ok! n))))"
          (pred_src ~tag:"a" ~field:c.f1 ~op:c.op1 ~value:c.v1)
      in
      agree c src)

let prop_distinct_swap_agrees =
  QCheck2.Test.make ~name:"select-before-distinct preserves query results" ~count:200
    ~print:print_query_case query_case_gen (fun c ->
      let src =
        Printf.sprintf
          "(distinct r cont(d) (select %s d halt_err! cont(out) (count out cont(n) \
           (halt_ok! n))))"
          (pred_src ~tag:"a" ~field:c.f1 ~op:c.op1 ~value:c.v1)
      in
      agree c src)

let prop_trivial_exists_agrees =
  QCheck2.Test.make ~name:"trivial-exists preserves query results" ~count:200
    ~print:print_query_case query_case_gen (fun c ->
      (* the predicate ignores the row and tests a constant comparison *)
      let src =
        Printf.sprintf
          "(exists proc(x pce! pcc!) (%s %d %d cont() (pcc! true) cont() (pcc! false)) r \
           halt_err! cont(b) (halt_ok! b))"
          (if c.op1 = "==" then "<" else c.op1)
          c.v1 c.v2
      in
      agree c src)

let () =
  Runtime.install ();
  let to_alcotest = QCheck_alcotest.to_alcotest ~speed_level:`Quick in
  Alcotest.run "tml_props"
    [
      ( "properties",
        List.map to_alcotest
          [
            prop_generated_wf;
            prop_engines_agree;
            prop_optimizer_preserves_semantics;
            prop_optimizer_preserves_wf;
            prop_reduction_shrinks;
            prop_reduction_idempotent;
            prop_ptml_roundtrip;
            prop_sexp_roundtrip;
            prop_freshen_alpha_equal;
            prop_optimized_not_costlier;
            prop_reduced_not_costlier;
            prop_reflect_through_store;
            prop_image_roundtrip_runs;
            prop_merge_select_agrees;
            prop_select_union_agrees;
            prop_distinct_swap_agrees;
            prop_trivial_exists_agrees;
          ] );
    ]

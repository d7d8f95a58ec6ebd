(* Tests for the reflective dynamic optimizer (section 4.1). *)

open Tml_core
open Tml_vm
open Tml_frontend
module Reflect = Tml_reflect.Reflect

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let abs_source =
  {|
module complex export
  let mk(x: Real, y: Real): Tuple(Real, Real) = tuple(x, y)
  let re(c: Tuple(Real, Real)): Real = c.1
  let im(c: Tuple(Real, Real)): Real = c.2
end

let cabs(c: Tuple(Real, Real)): Real =
  mathlib.sqrt(complex.re(c) * complex.re(c) + complex.im(c) * complex.im(c))

do io.print_real(cabs(complex.mk(3.0, 4.0))) end
|}

let run_fn ctx fn args =
  let before = ctx.Runtime.steps in
  let outcome = Machine.run_proc ctx fn args in
  outcome, ctx.Runtime.steps - before

let test_optimized_abs () =
  let program = Link.load abs_source in
  let ctx = program.Link.ctx in
  let mk = Value.Oidv (Link.function_oid program "complex.mk") in
  let c =
    match Machine.run_proc ctx mk [ Value.Real 3.0; Value.Real 4.0 ] with
    | Eval.Done v -> v
    | o -> Alcotest.failf "mk: %a" Eval.pp_outcome o
  in
  let abs_oid = Link.function_oid program "cabs" in
  let before, steps_before = run_fn ctx (Value.Oidv abs_oid) [ c ] in
  let result = Reflect.optimize ctx abs_oid in
  let after, steps_after = run_fn ctx (Value.Oidv result.Reflect.oid) [ c ] in
  (match before, after with
  | Eval.Done v1, Eval.Done v2 ->
    check tbool "same value" true (Value.identical v1 v2);
    check tbool "computes 5.0" true (Value.identical v1 (Value.Real 5.0))
  | o1, o2 -> Alcotest.failf "before %a, after %a" Eval.pp_outcome o1 Eval.pp_outcome o2);
  check tbool "faster" true (steps_after < steps_before);
  check tbool "inlined across the barrier" true (result.Reflect.inlined_calls >= 4);
  (* the optimized body no longer calls through the store: no function OID
     literals remain in call position *)
  (match result.Reflect.optimized_tml with
  | Term.Abs a ->
    let store_calls = ref 0 in
    Term.iter_apps
      (fun node ->
        match node.Term.func with
        | Term.Lit (Literal.Oid _) -> incr store_calls
        | _ -> ())
      a.Term.body;
    check tint "no cross-barrier calls left" 0 !store_calls
  | _ -> Alcotest.fail "expected abs");
  (* the original is untouched and still runs *)
  match run_fn ctx (Value.Oidv abs_oid) [ c ] with
  | (Eval.Done v, _) -> check tbool "original intact" true (Value.identical v (Value.Real 5.0))
  | (o, _) -> Alcotest.failf "original broken: %a" Eval.pp_outcome o

let test_attrs_cached () =
  let program = Link.load abs_source in
  let ctx = program.Link.ctx in
  let abs_oid = Link.function_oid program "cabs" in
  let result = Reflect.optimize ctx abs_oid in
  (match Value.Heap.get ctx.Runtime.heap result.Reflect.oid with
  | Value.Func fo ->
    check tbool "cost_before cached" true (List.mem_assoc "cost_before" fo.Value.fo_attrs);
    check tbool "cost_after cached" true (List.mem_assoc "cost_after" fo.Value.fo_attrs)
  | _ -> Alcotest.fail "not a function");
  match Value.Heap.get ctx.Runtime.heap abs_oid with
  | Value.Func fo ->
    check tbool "original records its optimized version" true
      (List.mem_assoc "optimized_as" fo.Value.fo_attrs)
  | _ -> Alcotest.fail "not a function"

let test_inline_budget () =
  let program = Link.load abs_source in
  let ctx = program.Link.ctx in
  let abs_oid = Link.function_oid program "cabs" in
  let result =
    Reflect.optimize ~config:{ Reflect.default with Reflect.inline_budget = 0 } ctx abs_oid
  in
  check tint "budget 0 inlines nothing" 0 result.Reflect.inlined_calls

let test_store_fold () =
  let heap = Value.Heap.create () in
  let ctx = Runtime.create heap in
  let vec = Value.Heap.alloc heap (Value.Vector [| Value.Int 10; Value.Int 20 |]) in
  let arr = Value.Heap.alloc heap (Value.Array [| Value.Int 10; Value.Int 20 |]) in
  let src oid = Printf.sprintf "([] <oid %d> 1 k!)" (Oid.to_int oid) in
  (* immutable vector: folds to the element *)
  let folded = Rewrite.reduce_app ~rules:[ Reflect.store_fold ctx ] (Sexp.parse_app (src vec)) in
  check tbool "vector read folded" true
    (Term.alpha_equal_by_name_app folded (Sexp.parse_app "(k! 20)"));
  (* mutable array: never folded *)
  let kept = Rewrite.reduce_app ~rules:[ Reflect.store_fold ctx ] (Sexp.parse_app (src arr)) in
  check tbool "array read kept" true
    (match kept.Term.func with
    | Term.Prim "[]" -> true
    | _ -> false);
  (* size of an immutable object folds *)
  let sized =
    Rewrite.reduce_app ~rules:[ Reflect.store_fold ctx ]
      (Sexp.parse_app (Printf.sprintf "(size <oid %d> k!)" (Oid.to_int vec)))
  in
  check tbool "size folded" true
    (Term.alpha_equal_by_name_app sized (Sexp.parse_app "(k! 2)"))

let test_inplace_recursive () =
  (* optimizing in place keeps self-recursive calls correct: the oid literal
     embedded in the optimized body points back at the *updated* object *)
  let src =
    {|
let fib(n: Int): Int = if n < 2 then n else fib(n - 1) + fib(n - 2) end
do io.print_int(fib(14)) end
|}
  in
  let program = Link.load src in
  let ctx = program.Link.ctx in
  let outcome1, steps1 = Link.run_main program ~engine:`Machine () in
  (match outcome1 with
  | Eval.Done _ -> ()
  | o -> Alcotest.failf "unoptimized: %a" Eval.pp_outcome o);
  Reflect.optimize_all ctx (Link.all_function_oids program);
  let outcome2, steps2 = Link.run_main program ~engine:`Machine () in
  (match outcome2 with
  | Eval.Done _ -> ()
  | o -> Alcotest.failf "optimized: %a" Eval.pp_outcome o);
  let out = Link.output program in
  check tbool "both outputs are fib(14)=377" true (out = "377377");
  check tbool "dynamic optimization pays off" true (steps2 < steps1)

let test_optimize_all_improves_stanford () =
  let r_static = Tml_stanford.Suite.run "intmm" Tml_stanford.Suite.Static in
  let r_dynamic = Tml_stanford.Suite.run "intmm" Tml_stanford.Suite.Dynamic in
  check tbool "outputs agree" true (r_static.Tml_stanford.Suite.output = r_dynamic.Tml_stanford.Suite.output);
  check tbool "dynamic materially faster" true
    (float_of_int r_static.Tml_stanford.Suite.steps
    > 1.3 *. float_of_int r_dynamic.Tml_stanford.Suite.steps)

let test_inline_query_arg () =
  (* a function OID in the predicate position of a select is substituted by
     its body, exposing the field-equality shape to the index rule *)
  let program =
    Link.load
      {|
let aged38(e: Tuple(Int, Int, Int)): Bool = e.2 == 38
let employees = relation(tuple(1, 38, 100), tuple(2, 40, 200))
do mkindex(employees, 2) end
|}
  in
  let ctx = program.Link.ctx in
  (match Link.run_main program ~engine:`Machine () with
  | Eval.Done _, _ -> ()
  | o, _ -> Alcotest.failf "setup failed: %a" Eval.pp_outcome o);
  (* make the predicate self-contained first *)
  let pred_oid = Link.function_oid program "aged38" in
  let _ = Reflect.optimize_inplace ctx pred_oid in
  let rel_oid =
    match Hashtbl.find_opt program.Link.globals "employees" with
    | Some (Value.Oidv o) -> o
    | _ -> Alcotest.fail "no employees relation"
  in
  let query =
    Sexp.parse_app
      (Printf.sprintf "(select <oid %d> <oid %d> ce! k!)" (Oid.to_int pred_oid)
         (Oid.to_int rel_oid))
  in
  let budget = ref 8 in
  let count = ref 0 in
  let rules =
    [ Reflect.inline_query_arg ctx ~budget ~limit:200 ~count ]
    @ Tml_query.Qopt.static_rules
    @ Tml_query.Qopt.runtime_rules ctx
  in
  let optimized = Rewrite.reduce_app ~rules (Rewrite.reduce_app ~rules query) in
  check tbool "predicate inlined" true (!count >= 1);
  check tbool "index rule fired after inlining" true
    (Term.exists_app
       (fun node ->
         match node.Term.func with
         | Term.Prim "indexselect" -> true
         | _ -> false)
       optimized)

let test_errors () =
  let heap = Value.Heap.create () in
  let ctx = Runtime.create heap in
  let arr = Value.Heap.alloc heap (Value.Array [||]) in
  (match Reflect.optimize ctx arr with
  | exception Runtime.Fault _ -> ()
  | _ -> Alcotest.fail "optimizing a non-function must fault");
  match Reflect.optimize_value ctx (Value.Int 3) with
  | exception Runtime.Fault _ -> ()
  | _ -> Alcotest.fail "optimizing a non-reference must fault"

(* ------------------------------------------------------------------ *)
(* Specialization cache                                                 *)
(* ------------------------------------------------------------------ *)

let test_speccache_hit () =
  Speccache.clear ();
  let program = Link.load abs_source in
  let ctx = program.Link.ctx in
  let abs_oid = Link.function_oid program "cabs" in
  let r1 = Reflect.optimize ctx abs_oid in
  let s = Speccache.stats () in
  let hits0 = s.Speccache.hits and stores0 = s.Speccache.stores in
  check tbool "first optimization stored an entry" true (stores0 >= 1);
  let r2 = Reflect.optimize ctx abs_oid in
  let s = Speccache.stats () in
  check tbool "second optimization is a cache hit" true (s.Speccache.hits > hits0);
  check tint "hit stores nothing new" stores0 s.Speccache.stores;
  check tbool "cached result agrees with the fresh one" true
    (Term.alpha_equal_value r1.Reflect.optimized_tml r2.Reflect.optimized_tml);
  check tint "cached report: rounds" r1.Reflect.report.Optimizer.rounds
    r2.Reflect.report.Optimizer.rounds;
  check tint "cached report: final cost" r1.Reflect.report.Optimizer.cost_after
    r2.Reflect.report.Optimizer.cost_after;
  check tint "cached inline count" r1.Reflect.inlined_calls r2.Reflect.inlined_calls

let test_speccache_invalidate_on_dep_change () =
  Speccache.clear ();
  let program = Link.load abs_source in
  let ctx = program.Link.ctx in
  let abs_oid = Link.function_oid program "cabs" in
  let re_oid = Link.function_oid program "complex.re" in
  ignore (Reflect.optimize ctx abs_oid);
  (* cabs inlined complex.re, so its entry depends on that object;
     rewriting it in place must drop the entry *)
  let misses0 = (Speccache.stats ()).Speccache.misses in
  ignore (Reflect.optimize_inplace ctx re_oid);
  ignore (Reflect.optimize ctx abs_oid);
  check tbool "re-optimization after dependency rewrite is a miss" true
    ((Speccache.stats ()).Speccache.misses > misses0)

let test_speccache_verify_on_hit () =
  (* a dependency mutated behind the cache's back (no [invalidate] call)
     is caught by digest verification at [find] time *)
  Speccache.clear ();
  let heap = Value.Heap.create () in
  let ctx = Runtime.create heap in
  let vec = Value.Heap.alloc heap (Value.Vector [| Value.Int 10; Value.Int 20 |]) in
  let tml =
    Sexp.parse_value
      (Printf.sprintf "proc(u ce! cc!) ([] <oid %d> 1 cont(t) (cc! t))" (Oid.to_int vec))
  in
  let f = Value.Heap.alloc_func heap ~name:"readvec" tml in
  let r1 = Reflect.optimize ctx f in
  let folded v =
    Term.exists_app
      (fun node -> List.exists (fun a -> Term.equal_value a (Term.int v)) node.Term.args)
      (match r1.Reflect.optimized_tml with
      | Term.Abs a -> a.Term.body
      | _ -> Alcotest.fail "expected abs")
  in
  check tbool "vector read folded into the body" true (folded 20);
  Value.Heap.set heap vec (Value.Vector [| Value.Int 10; Value.Int 77 |]);
  let vf0 = (Speccache.stats ()).Speccache.verify_failures in
  let r2 = Reflect.optimize ctx f in
  check tbool "stale entry rejected by digest verification" true
    ((Speccache.stats ()).Speccache.verify_failures > vf0);
  check tbool "fresh optimization sees the new value" true
    (Term.exists_app
       (fun node -> List.exists (fun a -> Term.equal_value a (Term.int 77)) node.Term.args)
       (match r2.Reflect.optimized_tml with
       | Term.Abs a -> a.Term.body
       | _ -> Alcotest.fail "expected abs"))

let test_speccache_encode_decode () =
  Speccache.clear ();
  let program = Link.load abs_source in
  let ctx = program.Link.ctx in
  let abs_oid = Link.function_oid program "cabs" in
  ignore (Reflect.optimize ctx abs_oid);
  let n = Speccache.length () in
  check tbool "entries live" true (n >= 1);
  let image = Speccache.encode () in
  Speccache.clear ();
  check tint "cleared" 0 (Speccache.length ());
  Speccache.decode image;
  check tint "entries restored" n (Speccache.length ());
  (* the restored entries serve hits against the same heap *)
  let hits0 = (Speccache.stats ()).Speccache.hits in
  ignore (Reflect.optimize ctx abs_oid);
  check tbool "restored entry serves a hit" true ((Speccache.stats ()).Speccache.hits > hits0);
  match Speccache.decode "not a speccache image" with
  | exception Speccache.Corrupt _ -> ()
  | () -> Alcotest.fail "garbage image accepted"

let test_speccache_obj_digests () =
  let rel tail indexes =
    Value.Relation
      {
        Value.rel_name = "t";
        rel_page_size = 4096;
        rel_pages = [||];
        rel_tail = tail;
        rel_tail_len = Array.length tail;
        rel_count = Array.length tail;
        rel_indexes = indexes;
        rel_stats = None;
        rel_triggers = [];
        rel_rows_cache = None;
      }
  in
  let d = Speccache.obj_digest in
  (* rows influence execution, never plan shape: excluded from the digest *)
  check tbool "relation rows excluded" true
    (d (rel [| Value.Int 1 |] []) = d (rel [| Value.Int 2; Value.Int 3 |] []));
  check tbool "relation indexes included" false
    (d (rel [||] []) = d (rel [||] [ 0, Oid.of_int 99 ]));
  (* index/stats digests bucket their magnitudes: warm plans stay valid
     across small growth, invalidate when the statistic's log2 moves *)
  let ix n =
    let tbl = Hashtbl.create 8 in
    for i = 1 to n do
      Hashtbl.replace tbl (Literal.Int i) [ i ]
    done;
    Value.Index { Value.ix_field = 0; ix_tbl = tbl }
  in
  check tbool "index distinct bucketed (same log2)" true (d (ix 2) = d (ix 3));
  check tbool "index distinct bucketed (log2 moved)" false (d (ix 2) = d (ix 4));
  let st n =
    Value.Stats { Value.st_count = n; st_arity = 2; st_distinct = [ 0, 4 ] }
  in
  check tbool "stats count bucketed (same log2)" true (d (st 4) = d (st 7));
  check tbool "stats count bucketed (log2 moved)" false (d (st 4) = d (st 8));
  (* a function's derived attributes are optimizer output, not input *)
  let fo attrs ptml =
    Value.Func
      {
        Value.fo_name = "f";
        fo_tml = Term.prim "id";
        fo_ptml = ptml;
        fo_bindings = [];
        fo_tree_impl = None;
        fo_mach_impl = None;
        fo_code = None;
        fo_attrs = attrs;
      }
  in
  check tbool "func attrs excluded" true (d (fo [] "P") = d (fo [ "cost", 3 ] "P"));
  check tbool "func ptml included" false (d (fo [] "P") = d (fo [] "Q"));
  (* mutable slots: only the length is stable enough to key on *)
  check tbool "array content excluded" true
    (d (Value.Array [| Value.Int 1 |]) = d (Value.Array [| Value.Int 2 |]));
  check tbool "array length included" false
    (d (Value.Array [| Value.Int 1 |]) = d (Value.Array [| Value.Int 1; Value.Int 2 |]));
  (* immutable slots are part of what store_fold reads *)
  check tbool "vector content included" false
    (d (Value.Vector [| Value.Int 1 |]) = d (Value.Vector [| Value.Int 2 |]))

let test_speccache_lru_bound () =
  Speccache.clear ();
  Speccache.set_capacity 2;
  Fun.protect
    ~finally:(fun () ->
      Speccache.set_capacity 256;
      Speccache.clear ())
    (fun () ->
      let heap = Value.Heap.create () in
      let ctx = Runtime.create heap in
      let mk i =
        Value.Heap.alloc_func heap
          ~name:(Printf.sprintf "f%d" i)
          (Sexp.parse_value (Printf.sprintf "proc(x ce! cc!) (+ x %d ce! cc!)" i))
      in
      let f1 = mk 1 and f2 = mk 2 and f3 = mk 3 in
      ignore (Reflect.optimize ctx f1);
      ignore (Reflect.optimize ctx f2);
      ignore (Reflect.optimize ctx f3);
      check tbool "capacity respected" true (Speccache.length () <= 2);
      check tbool "eviction counted" true ((Speccache.stats ()).Speccache.evictions >= 1))

let () =
  Runtime.install ();
  Alcotest.run "tml_reflect"
    [
      ( "reflect",
        [
          Alcotest.test_case "section 4.1 optimizedAbs" `Quick test_optimized_abs;
          Alcotest.test_case "derived attributes cached" `Quick test_attrs_cached;
          Alcotest.test_case "inline budget respected" `Quick test_inline_budget;
          Alcotest.test_case "store folds respect mutability" `Quick test_store_fold;
          Alcotest.test_case "in-place with recursion" `Quick test_inplace_recursive;
          Alcotest.test_case "improves a Stanford benchmark" `Quick
            test_optimize_all_improves_stanford;
          Alcotest.test_case "query-argument inlining (view expansion)" `Quick
            test_inline_query_arg;
          Alcotest.test_case "error handling" `Quick test_errors;
        ] );
      ( "speccache",
        [
          Alcotest.test_case "repeated optimization hits" `Quick test_speccache_hit;
          Alcotest.test_case "dependency rewrite invalidates" `Quick
            test_speccache_invalidate_on_dep_change;
          Alcotest.test_case "verify-on-hit catches silent mutation" `Quick
            test_speccache_verify_on_hit;
          Alcotest.test_case "encode/decode round trip" `Quick test_speccache_encode_decode;
          Alcotest.test_case "per-kind digests" `Quick test_speccache_obj_digests;
          Alcotest.test_case "LRU bound" `Quick test_speccache_lru_bound;
        ] );
    ]

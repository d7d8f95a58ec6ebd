(* Tests for the incremental session (Repl): persistent store across
   inputs, incremental linking, redefinition with dynamic relinking,
   interaction with the reflective optimizer. *)

open Tml_vm
open Tml_frontend

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstring = Alcotest.string

let expect_value session src expected =
  match (Repl.feed session src).Repl.result with
  | Some (Eval.Done v, _) ->
    check tbool
      (Printf.sprintf "%s = %s" src (Value.to_string expected))
      true (Value.identical v expected)
  | Some (o, _) -> Alcotest.failf "%s: %a" src Eval.pp_outcome o
  | None -> Alcotest.failf "%s: no result" src

let test_define_and_call () =
  let s = Repl.create () in
  let r = Repl.feed s "let double(x: Int): Int = x * 2" in
  check Alcotest.(list string) "defined" [ "double" ] r.Repl.defined;
  expect_value s "double(21)" (Value.Int 42);
  (* bare expressions are sugar for do-blocks *)
  expect_value s "1 + 2 * 3" (Value.Int 7)

let test_mutation_persists () =
  let s = Repl.create () in
  ignore (Repl.feed s "let r = relation(tuple(1, 10), tuple(2, 20))");
  expect_value s "count(r)" (Value.Int 2);
  ignore (Repl.feed s "do insert(r, tuple(3, 30)) end");
  expect_value s "count(r)" (Value.Int 3);
  (* an index built in one input is a runtime binding for later ones *)
  ignore (Repl.feed s "do mkindex(r, 1) end");
  expect_value s "count(select x from x in r where x.1 == 3 end)" (Value.Int 1)

let test_incremental_defs_see_older () =
  let s = Repl.create () in
  ignore (Repl.feed s "let base = 100");
  ignore (Repl.feed s "let above(x: Int): Int = x + base");
  expect_value s "above(11)" (Value.Int 111)

let test_redefinition_relinks () =
  let s = Repl.create () in
  ignore (Repl.feed s "let f(x: Int): Int = x + 1");
  ignore (Repl.feed s "let g(x: Int): Int = f(x) * 10");
  ignore (Repl.feed s "let h(x: Int): Int = g(x) + f(x)");
  expect_value s "g(1)" (Value.Int 20);
  (* redefining f must be visible through the existing g, and through h
     both directly and via g *)
  let r = Repl.feed s "let f(x: Int): Int = x + 2" in
  check Alcotest.(list string) "redefined" [ "f" ] r.Repl.defined;
  expect_value s "g(1)" (Value.Int 30);
  expect_value s "h(1)" (Value.Int 33);
  (* a second redefinition relinks again, and later definitions see it *)
  ignore (Repl.feed s "let f(x: Int): Int = x");
  ignore (Repl.feed s "let k(x: Int): Int = f(x) - 1");
  expect_value s "h(4)" (Value.Int 44);
  expect_value s "k(4)" (Value.Int 3)

let expect_type_error session src =
  match Repl.feed session src with
  | exception Typecheck.Type_error _ -> ()
  | _ -> Alcotest.failf "%s: type error expected" src

let test_signature_change_breaking_caller () =
  let s = Repl.create () in
  ignore (Repl.feed s "let f(x: Int): Int = x + 1");
  ignore (Repl.feed s "let g(x: Int): Int = f(x) * 10");
  let n = List.length (Repl.function_oids s) in
  (* g calls f with an Int: a String-taking f would break it *)
  expect_type_error s "let f(x: String): Int = 1";
  expect_type_error s "let f(x: Int): Bool = true";
  (* the session is unchanged: same functions, old f, old signature *)
  check tint "nothing linked" n (List.length (Repl.function_oids s));
  expect_value s "g(1)" (Value.Int 20);
  expect_value s "f(1)" (Value.Int 2);
  expect_type_error s "f(\"a\")";
  ignore (Repl.feed s "let f(x: Int): Int = x + 2");
  expect_value s "g(1)" (Value.Int 30)

let test_signature_change_without_callers () =
  let s = Repl.create () in
  ignore (Repl.feed s "let f(x: Int): Int = x + 1");
  ignore (Repl.feed s "let other(x: Int): Int = x * 2");
  let r = Repl.feed s "let f(x: String): String = x + \"!\"" in
  check Alcotest.(list string) "redefined" [ "f" ] r.Repl.defined;
  expect_value s "f(\"hi\")" (Value.Str "hi!");
  expect_type_error s "f(1)";
  (* later definitions check against the new signature *)
  ignore (Repl.feed s "let shout(x: String): String = f(f(x))");
  expect_value s "shout(\"a\")" (Value.Str "a!!");
  expect_value s "other(4)" (Value.Int 8)

let test_module_member_redefinition () =
  let s = Repl.create () in
  ignore (Repl.feed s "module m export let f(x: Int): Int = x + 1 end");
  ignore (Repl.feed s "let g(x: Int): Int = m.f(x) * 10");
  expect_value s "g(1)" (Value.Int 20);
  (* same members, same signatures: callers relink *)
  ignore (Repl.feed s "module m export let f(x: Int): Int = x + 2 end");
  expect_value s "g(1)" (Value.Int 30);
  (* a changed member signature, or a dropped member, breaks g *)
  expect_type_error s "module m export let f(x: Bool): Int = 0 end";
  expect_type_error s "module m export let other(x: Int): Int = x end";
  expect_value s "g(1)" (Value.Int 30);
  expect_value s "m.f(1)" (Value.Int 3);
  (* a module nothing refers to may change shape freely *)
  ignore (Repl.feed s "module n export let f(x: Int): Int = x end");
  ignore (Repl.feed s "module n export let f(b: Bool): Bool = b let h(): Int = 7 end");
  expect_value s "n.f(true)" (Value.Bool true);
  expect_value s "n.h()" (Value.Int 7);
  expect_type_error s "n.f(1)"

(* Everything a caller can observe of one input. *)
let observe session src =
  match Repl.feed session src with
  | exception Typecheck.Type_error (_, msg) -> "type error: " ^ msg
  | r ->
    Format.asprintf "defined [%s] %s output %S" (String.concat "; " r.Repl.defined)
      (match r.Repl.result with
      | Some (o, steps) -> Format.asprintf "%a in %d" Eval.pp_outcome o steps
      | None -> "no result")
      r.Repl.output

let test_restore_equivalence () =
  let history =
    [
      "let base = 100";
      "let f(x: Int): Int = x + base";
      "let g(x: Int): Int = f(x) * 2";
      "module m export let sq(x: Int): Int = x * x end";
      "let f(x: Int): Int = x + base + 1";
      "let h(s: String): String = s + \"?\"";
      "let h(n: Int): Int = m.sq(g(n))";
    ]
  in
  let later =
    [
      "g(1)";
      "h(2)";
      "do io.print_int(f(5)) end";
      "let k(x: Int): Int = h(x) + g(x)";
      "k(3)";
      "let f(x: Int): Int = x";
      "k(3)";
      "let f(x: Bool): Int = 0";
      "let g(x: Int): Bool = true";
      "module m export let sq(x: Int): Int = x end";
      "k(3)";
      "let base = 5";
      "f(base)";
    ]
  in
  let feed_all s = List.iter (fun src -> ignore (Repl.feed s src)) history in
  let live = Repl.create () in
  feed_all live;
  let path = Filename.temp_file "tmlrepl" ".store" in
  let s = Repl.create () in
  feed_all s;
  let pstore = Pstore.attach ~fsync:false path (Repl.ctx s).Runtime.heap in
  ignore (Repl.persist s pstore);
  Pstore.close pstore;
  let pstore2 = Pstore.open_ ~fsync:false path in
  let restored = Repl.restore pstore2 in
  List.iter
    (fun src -> check tstring src (observe live src) (observe restored src))
    later;
  Pstore.close pstore2;
  Sys.remove path

let test_output_captured () =
  let s = Repl.create () in
  let r = Repl.feed s "do io.print_str(\"hi\") end" in
  check tstring "output" "hi" r.Repl.output;
  let r2 = Repl.feed s "do io.print_str(\"there\") end" in
  check tstring "only the new output" "there" r2.Repl.output

let test_exceptions_surface () =
  let s = Repl.create () in
  match (Repl.feed s "1 / 0").Repl.result with
  | Some (Eval.Raised (Value.Str "division by zero"), _) -> ()
  | Some (o, _) -> Alcotest.failf "unexpected: %a" Eval.pp_outcome o
  | None -> Alcotest.fail "no result"

let test_type_errors_do_not_corrupt () =
  let s = Repl.create () in
  ignore (Repl.feed s "let ok(x: Int): Int = x");
  (match Repl.feed s "do ok(true) end" with
  | exception Typecheck.Type_error _ -> ()
  | _ -> Alcotest.fail "type error expected");
  (* the session is still usable *)
  expect_value s "ok(5)" (Value.Int 5)

let test_reflective_optimize_in_session () =
  let s = Repl.create () in
  ignore (Repl.feed s "let square(x: Int): Int = x * x");
  let steps_of () =
    match (Repl.feed s "square(9)").Repl.result with
    | Some (Eval.Done (Value.Int 81), steps) -> steps
    | _ -> Alcotest.fail "square(9) failed"
  in
  let before = steps_of () in
  (match Repl.function_oid s "square" with
  | Some oid -> ignore (Tml_reflect.Reflect.optimize_inplace (Repl.ctx s) oid)
  | None -> Alcotest.fail "square not linked");
  let after = steps_of () in
  check tbool "optimization pays off inside the session" true (after < before)

let test_session_image_roundtrip () =
  let s = Repl.create () in
  ignore (Repl.feed s "let triple(x: Int): Int = x * 3");
  expect_value s "triple(5)" (Value.Int 15);
  let oid =
    match Repl.function_oid s "triple" with
    | Some oid -> oid
    | None -> Alcotest.fail "triple not linked"
  in
  let heap' = Image.load (Image.save (Repl.ctx s).Runtime.heap) in
  let ctx' = Runtime.create heap' in
  match Machine.run_proc ctx' (Value.Oidv oid) [ Value.Int 7 ] with
  | Eval.Done (Value.Int 21) -> ()
  | o -> Alcotest.failf "loaded session function: %a" Eval.pp_outcome o

let test_speccache_persists_with_session () =
  Speccache.clear ();
  let path = Filename.temp_file "tmlrepl" ".store" in
  let s = Repl.create () in
  ignore (Repl.feed s "let quad(x: Int): Int = x * 4");
  let oid =
    match Repl.function_oid s "quad" with
    | Some o -> o
    | None -> Alcotest.fail "quad not linked"
  in
  ignore (Tml_reflect.Reflect.optimize (Repl.ctx s) oid);
  let n = Speccache.length () in
  check tbool "specialization cached" true (n >= 1);
  let pstore = Pstore.attach ~fsync:false path (Repl.ctx s).Runtime.heap in
  ignore (Repl.persist s pstore);
  Pstore.close pstore;
  (* a different process: nothing in memory but the image *)
  Speccache.clear ();
  let pstore2 = Pstore.open_ ~fsync:false path in
  let s2 = Repl.restore pstore2 in
  check tint "cache restored from the image" n (Speccache.length ());
  (* the reopened image serves the specialization without re-optimizing *)
  let hits0 = (Speccache.stats ()).Speccache.hits in
  (match Repl.function_oid s2 "quad" with
  | Some oid2 -> ignore (Tml_reflect.Reflect.optimize (Repl.ctx s2) oid2)
  | None -> Alcotest.fail "quad lost across the image");
  check tbool "cold reopen skips re-optimization" true
    ((Speccache.stats ()).Speccache.hits > hits0);
  Pstore.close pstore2;
  Speccache.clear ();
  Sys.remove path

let test_counts () =
  let s = Repl.create () in
  let n0 = List.length (Repl.function_oids s) in
  check tbool "stdlib linked" true (n0 > 30);
  ignore (Repl.feed s "let a(x: Int): Int = x");
  check tint "one more function" (n0 + 1) (List.length (Repl.function_oids s))

let () =
  Runtime.install ();
  Alcotest.run "tml_repl"
    [
      ( "session",
        [
          Alcotest.test_case "define and call" `Quick test_define_and_call;
          Alcotest.test_case "mutations persist" `Quick test_mutation_persists;
          Alcotest.test_case "later definitions see earlier ones" `Quick
            test_incremental_defs_see_older;
          Alcotest.test_case "redefinition relinks callers" `Quick test_redefinition_relinks;
          Alcotest.test_case "signature change breaking a caller is rejected" `Quick
            test_signature_change_breaking_caller;
          Alcotest.test_case "signature change without callers is accepted" `Quick
            test_signature_change_without_callers;
          Alcotest.test_case "module member redefinition" `Quick
            test_module_member_redefinition;
          Alcotest.test_case "restored session feeds like the live one" `Quick
            test_restore_equivalence;
          Alcotest.test_case "output captured per input" `Quick test_output_captured;
          Alcotest.test_case "exceptions surface" `Quick test_exceptions_surface;
          Alcotest.test_case "errors do not corrupt the session" `Quick
            test_type_errors_do_not_corrupt;
          Alcotest.test_case "reflective optimization in session" `Quick
            test_reflective_optimize_in_session;
          Alcotest.test_case "session store images" `Quick test_session_image_roundtrip;
          Alcotest.test_case "speccache persists with the session" `Quick
            test_speccache_persists_with_session;
          Alcotest.test_case "function accounting" `Quick test_counts;
        ] );
    ]

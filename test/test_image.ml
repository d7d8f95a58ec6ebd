(* Tests for whole-store image persistence. *)

open Tml_core
open Tml_vm

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let test_roundtrip_objects () =
  let heap = Value.Heap.create () in
  let a = Value.Heap.alloc heap (Value.Array [| Value.Int 1; Value.Str "two"; Value.Unit |]) in
  let v = Value.Heap.alloc heap (Value.Vector [| Value.Real 1.5; Value.Bool true |]) in
  let b = Value.Heap.alloc heap (Value.Bytes (Bytes.of_string "\x00\xffbytes")) in
  let t = Value.Heap.alloc heap (Value.Tuple [| Value.Char 'x'; Value.Oidv a |]) in
  let m =
    Value.Heap.alloc heap
      (Value.Module { Value.mod_name = "m"; exports = [| "f", Value.Oidv t |] })
  in
  let bytes = Image.save heap in
  let heap' = Image.load bytes in
  check tint "same size" (Value.Heap.size heap) (Value.Heap.size heap');
  (match Value.Heap.get heap' a with
  | Value.Array [| Value.Int 1; Value.Str "two"; Value.Unit |] -> ()
  | _ -> Alcotest.fail "array corrupted");
  (match Value.Heap.get heap' v with
  | Value.Vector [| Value.Real 1.5; Value.Bool true |] -> ()
  | _ -> Alcotest.fail "vector corrupted");
  (match Value.Heap.get heap' b with
  | Value.Bytes by -> check tbool "bytes" true (Bytes.to_string by = "\x00\xffbytes")
  | _ -> Alcotest.fail "bytes corrupted");
  (match Value.Heap.get heap' t with
  | Value.Tuple [| Value.Char 'x'; Value.Oidv a' |] ->
    check tbool "cross reference" true (Oid.equal a a')
  | _ -> Alcotest.fail "tuple corrupted");
  match Value.Heap.get heap' m with
  | Value.Module mo ->
    check tbool "module" true
      (mo.Value.mod_name = "m" && fst mo.Value.exports.(0) = "f")
  | _ -> Alcotest.fail "module corrupted"

let test_function_survives () =
  let heap = Value.Heap.create () in
  let ctx = Runtime.create heap in
  let proc = Sexp.parse_value "proc(x ce! cc!) (* x x ce! cc!)" in
  let oid = Value.Heap.alloc_func heap ~name:"square" proc in
  (* prime caches, then save: caches must not be needed after load *)
  (match Machine.run_proc ctx (Value.Oidv oid) [ Value.Int 5 ] with
  | Eval.Done (Value.Int 25) -> ()
  | o -> Alcotest.failf "unexpected: %a" Eval.pp_outcome o);
  let heap' = Image.load (Image.save heap) in
  let ctx' = Runtime.create heap' in
  (match Machine.run_proc ctx' (Value.Oidv oid) [ Value.Int 6 ] with
  | Eval.Done (Value.Int 36) -> ()
  | o -> Alcotest.failf "after load (machine): %a" Eval.pp_outcome o);
  match Eval.run_proc ctx' (Value.Oidv oid) [ Value.Int 7 ] with
  | Eval.Done (Value.Int 49) -> ()
  | o -> Alcotest.failf "after load (tree): %a" Eval.pp_outcome o

let test_bindings_survive () =
  let heap = Value.Heap.create () in
  let proc = Sexp.parse_value "proc(x ce! cc!) (helper x ce! cc!)" in
  let helper = Sexp.parse_value "proc(y ce! cc!) (+ y 100 ce! cc!)" in
  let helper_oid = Value.Heap.alloc_func heap ~name:"helper" helper in
  let oid = Value.Heap.alloc_func heap ~name:"caller" proc in
  (match Value.Heap.get heap oid with
  | Value.Func fo ->
    let free = Ident.Set.choose (Term.free_vars_value proc) in
    fo.Value.fo_bindings <- [ free, Value.Oidv helper_oid ]
  | _ -> assert false);
  let heap' = Image.load (Image.save heap) in
  let ctx' = Runtime.create heap' in
  match Machine.run_proc ctx' (Value.Oidv oid) [ Value.Int 1 ] with
  | Eval.Done (Value.Int 101) -> ()
  | o -> Alcotest.failf "bindings lost: %a" Eval.pp_outcome o

let test_relation_index_rebuilt () =
  let heap = Value.Heap.create () in
  let ctx = Runtime.create heap in
  let rel =
    Tml_query.Rel.of_rows ctx ~name:"r"
      (Tml_query.Rel.tuples ctx [
        [| Value.Int 1; Value.Str "a" |];
        [| Value.Int 2; Value.Str "b" |];
        [| Value.Int 2; Value.Str "c" |];
      ])
  in
  Tml_query.Rel.add_index ctx rel 0;
  let heap' = Image.load (Image.save heap) in
  let ctx' = Runtime.create heap' in
  match Tml_query.Rel.lookup ctx' rel ~field:0 (Literal.Int 2) with
  | Some positions -> check tint "index rebuilt" 2 (List.length positions)
  | None -> Alcotest.fail "index lost"

let test_triggers_persist () =
  let heap = Value.Heap.create () in
  let ctx = Runtime.create heap in
  let rel = Tml_query.Rel.of_rows ctx ~name:"r" (Tml_query.Rel.tuples ctx [ [| Value.Int 1 |] ]) in
  let trigger =
    Value.Heap.alloc_func heap ~name:"t"
      (Sexp.parse_value "proc(row tce! tcc!) (tcc! nil)")
  in
  Tml_query.Rel.add_trigger ctx rel (Value.Oidv trigger);
  let heap' = Image.load (Image.save heap) in
  let ctx' = Runtime.create heap' in
  match Tml_query.Rel.triggers ctx' rel with
  | [ Value.Oidv t ] -> check tbool "trigger reference preserved" true (Oid.equal t trigger)
  | _ -> Alcotest.fail "triggers lost in image"

let test_live_closure_rejected () =
  let heap = Value.Heap.create () in
  let clo =
    Value.Closure
      {
        Value.t_abs = { Term.params = []; body = Term.app (Term.prim "raise") [ Term.unit_ ] };
        t_env = Ident.Map.empty;
      }
  in
  ignore (Value.Heap.alloc heap (Value.Array [| clo |]));
  match Image.save heap with
  | exception Image.Image_error _ -> ()
  | _ -> Alcotest.fail "live closure persisted"

let test_corrupt_image () =
  (match Image.load "not an image" with
  | exception Image.Image_error _ -> ()
  | _ -> Alcotest.fail "bad magic accepted");
  let heap = Value.Heap.create () in
  ignore (Value.Heap.alloc heap (Value.Array [| Value.Int 1 |]));
  let good = Image.save heap in
  match Image.load (String.sub good 0 (String.length good - 1)) with
  | exception Image.Image_error _ -> ()
  | _ -> Alcotest.fail "truncated image accepted"

(* A pre-built image guarding byte-compatibility of the format across
   refactorings of the codec.  Heap: array, vector (with NaN-free edge
   reals), bytes, tuple, module, a function with explicit binder stamps
   and derived attributes, two rows and a relation with one index. *)
let golden_hex =
  "544d4c494d473109010003032a060a70657273697374656e740001010405000000000000044002047a"
  ^ "0500000000000000800102040001feff0103030700037908012b0104016d010166070301060273713"
  ^ "550544d4c31040178026365026363012a0a0300a9460001aa460102ab46010903040800a946000800"
  ^ "a946000801aa46010802ab460100020b636f73745f6265666f72650b0a636f73745f6166746572030"
  ^ "1030203010601610103020302060162010501720207060707010000"

let of_hex s =
  let b = Bytes.create (String.length s / 2) in
  for i = 0 to Bytes.length b - 1 do
    Bytes.set b i (Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))
  done;
  Bytes.unsafe_to_string b

let test_golden_image () =
  let bytes = of_hex golden_hex in
  let heap = Image.load bytes in
  (* 9 golden slots + 1 index object rebuilt from the legacy relation's
     persisted field list *)
  check tint "size" 10 (Value.Heap.size heap);
  (match Value.Heap.get heap (Oid.of_int 0) with
  | Value.Array [| Value.Int 42; Value.Str "persistent"; Value.Unit |] -> ()
  | _ -> Alcotest.fail "golden array corrupted");
  (match Value.Heap.get heap (Oid.of_int 5) with
  | Value.Func fo ->
    check tbool "golden attrs" true
      (fo.Value.fo_attrs = [ "cost_before", 11; "cost_after", 3 ]);
    let ctx = Runtime.create heap in
    (match Machine.run_proc ctx (Value.Oidv (Oid.of_int 5)) [ Value.Int 6 ] with
    | Eval.Done (Value.Int 36) -> ()
    | o -> Alcotest.failf "golden function: %a" Eval.pp_outcome o)
  | _ -> Alcotest.fail "golden function corrupted");
  (match Value.Heap.get heap (Oid.of_int 8) with
  | Value.Relation rel -> check tint "golden index" 1 (List.length rel.Value.rel_indexes)
  | _ -> Alcotest.fail "golden relation corrupted");
  (* the rebuilt index answers lookups *)
  let ctx = Runtime.create heap in
  (match Tml_query.Rel.lookup ctx (Oid.of_int 8) ~field:0 (Literal.Int 1) with
  | Some (_ :: _) -> ()
  | _ -> Alcotest.fail "rebuilt golden index lost");
  (* resave upgrades the legacy relation to the paged REL1 layout (with
     the rebuilt index as a sibling object), after which the encoding is
     a fixpoint: load/save of the upgraded image is byte-identical *)
  let upgraded = Image.save heap in
  check tbool "legacy image upgraded on resave" false (String.equal upgraded bytes);
  check tbool "upgraded image is a save/load fixpoint" true
    (String.equal (Image.save (Image.load upgraded)) upgraded)

let test_file_roundtrip () =
  let heap = Value.Heap.create () in
  ignore (Value.Heap.alloc heap (Value.Array [| Value.Int 7 |]));
  let path = Filename.temp_file "tml_image_test" ".img" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Image.save_file heap path;
      let heap' = Image.load_file path in
      match Value.Heap.get heap' (Oid.of_int 0) with
      | Value.Array [| Value.Int 7 |] -> ()
      | _ -> Alcotest.fail "file roundtrip corrupted")

let () =
  Runtime.install ();
  Tml_query.Qprims.install ();
  Alcotest.run "tml_image"
    [
      ( "image",
        [
          Alcotest.test_case "all object kinds round trip" `Quick test_roundtrip_objects;
          Alcotest.test_case "functions survive" `Quick test_function_survives;
          Alcotest.test_case "bindings survive" `Quick test_bindings_survive;
          Alcotest.test_case "relation indexes rebuilt" `Quick test_relation_index_rebuilt;
          Alcotest.test_case "triggers persist" `Quick test_triggers_persist;
          Alcotest.test_case "live closures rejected" `Quick test_live_closure_rejected;
          Alcotest.test_case "corrupt images rejected" `Quick test_corrupt_image;
          Alcotest.test_case "golden image byte-compatible" `Quick test_golden_image;
          Alcotest.test_case "file round trip" `Quick test_file_roundtrip;
        ] );
    ]

(* Code shipping (the outlook of section 6: "we are also very interested in
   exploiting TML for other tasks in data-intensive applications, like code
   shipping in distributed systems").

   A query predicate compiled on a "client" is shipped — as PTML bytes plus
   its literal R-value bindings — to a "server" holding the data, where it
   is decoded, re-optimized against the server's runtime bindings (the
   server has an index the client knows nothing about!), compiled and run
   next to the data.  The uniform persistent code representation is what
   makes the function mobile: no source text, no machine code, no host
   closures cross the wire.

   Run with: dune exec examples/code_shipping.exe *)

open Tml_core
open Tml_vm
open Tml_frontend

(* ------------------------------------------------------------------ *)
(* The "client": compiles a predicate, ships PTML + bindings           *)
(* ------------------------------------------------------------------ *)

type wire_function = {
  wire_name : string;
  wire_ptml : string;  (** the persistent TML bytes *)
  wire_bindings : (string * int * bool * Literal.t) list;
      (** free identifiers as (name, stamp, is_cont, literal value) — only
          literal bindings can cross the wire *)
}

let client_ship () =
  let program =
    Link.load
      {|
let aged38(e: Tuple(Int, Int, Int)): Bool = e.2 == 38
do nil end
|}
  in
  let ctx = program.Link.ctx in
  let oid = Link.function_oid program "aged38" in
  match Value.Heap.get ctx.Runtime.heap oid with
  | Value.Func fo ->
    let wire_bindings =
      List.filter_map
        (fun (id, v) ->
          match Value.to_literal v with
          | Some (Literal.Oid _) | None ->
            (* store references are machine-local: inline them instead *)
            None
          | Some l -> Some (id.Ident.name, id.Ident.stamp, Ident.is_cont id, l))
        fo.Value.fo_bindings
    in
    (* inline everything the bindings cannot carry (the intlib calls) so
       that the shipped code is self-contained *)
    let self_contained = Tml_reflect.Reflect.optimize ctx oid in
    let shipped_fo =
      match Value.Heap.get ctx.Runtime.heap self_contained.Tml_reflect.Reflect.oid with
      | Value.Func fo -> fo
      | _ -> assert false
    in
    Format.printf "client: shipping %s — %d PTML bytes, %d literal bindings@."
      fo.Value.fo_name
      (String.length shipped_fo.Value.fo_ptml)
      (List.length wire_bindings);
    { wire_name = fo.Value.fo_name; wire_ptml = shipped_fo.Value.fo_ptml; wire_bindings }
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* The "server": decodes, re-optimizes against its own store, runs     *)
(* ------------------------------------------------------------------ *)

let server_receive (wire : wire_function) =
  (* a completely fresh store: nothing from the client's session exists *)
  let ctx = Runtime.create (Value.Heap.create ()) in
  Tml_query.Qprims.install ();
  let employees =
    Tml_query.Rel.of_rows ctx ~name:"employees"
      (Tml_query.Rel.tuples ctx (List.init 500 (fun i ->
           [|
             Value.Int (i + 1);
             Value.Int (20 + (i * 7 mod 40));
             Value.Int (3000 + (i * 137 mod 5000));
           |])))
  in
  (* the server maintains an index on the age field — a runtime binding the
     client could not have known about *)
  Tml_query.Rel.add_index ctx employees 1;

  (* decode the shipped PTML and re-establish its bindings *)
  let tml = Alpha.freshen_value (Tml_store.Ptml.decode_value wire.wire_ptml) in
  let oid = Value.Heap.alloc_func ctx.Runtime.heap ~name:wire.wire_name tml in
  (match Value.Heap.get ctx.Runtime.heap oid with
  | Value.Func fo ->
    let frees = Ident.Set.elements (Term.free_vars_value tml) in
    fo.Value.fo_bindings <-
      List.filter_map
        (fun id ->
          List.find_opt (fun (n, _, _, _) -> n = id.Ident.name) wire.wire_bindings
          |> Option.map (fun (_, _, _, l) -> id, Value.of_literal l))
        frees
  | _ -> assert false);
  Format.printf "server: received %s, running the query next to the data@." wire.wire_name;

  (* an embedded query whose predicate is the shipped function *)
  let query =
    Sexp.parse_app
      (Printf.sprintf
         "(select <oid %d> <oid %d> halt_err! cont(out) (count out cont(n) (halt_ok! n)))"
         (Oid.to_int oid) (Oid.to_int employees))
  in
  let run term =
    let frees = Ident.Set.elements (Term.free_vars_app term) in
    let env =
      List.fold_left
        (fun env id ->
          match id.Ident.name with
          | "halt_ok" -> Ident.Map.add id (Value.Halt true) env
          | "halt_err" -> Ident.Map.add id (Value.Halt false) env
          | _ -> env)
        Ident.Map.empty frees
    in
    let before = ctx.Runtime.steps in
    let outcome = Eval.run_app ctx ~env term in
    outcome, ctx.Runtime.steps - before
  in
  let outcome1, steps1 = run query in

  (* server-side integrated optimization: inline the shipped predicate into
     the select, recognize... whatever its shape allows *)
  let budget = ref 64 in
  let count = ref 0 in
  let rules =
    [
      Tml_reflect.Reflect.store_fold ctx;
      Tml_reflect.Reflect.inline_oid ctx ~budget ~limit:200 ~count;
      Tml_reflect.Reflect.inline_query_arg ctx ~budget ~limit:200 ~count;
    ]
    @ Tml_query.Qopt.static_rules
    @ Tml_query.Qopt.runtime_rules ctx
  in
  let optimized =
    Rewrite.reduce_app ~rules (Rewrite.reduce_app ~rules query)
  in
  let uses_index =
    Term.exists_app
      (fun node ->
        match node.Term.func with
        | Term.Prim "indexselect" -> true
        | _ -> false)
      optimized
  in
  Format.printf "server: integrated optimization uses the local index: %b@." uses_index;
  let outcome2, steps2 = run optimized in
  (match outcome1, outcome2 with
  | Eval.Done v1, Eval.Done v2 when Value.identical v1 v2 ->
    Format.printf "server: matching employees = %a@." Value.pp v1
  | o1, o2 ->
    Format.printf "server: MISMATCH %a vs %a@." Eval.pp_outcome o1 Eval.pp_outcome o2;
    exit 1);
  Format.printf "server: shipped-as-is %d instructions, re-optimized on site %d (%.2fx)@."
    steps1 steps2
    (float_of_int steps1 /. float_of_int steps2)

let () =
  let wire = client_ship () in
  (* only plain bytes and literals cross this line *)
  server_receive wire

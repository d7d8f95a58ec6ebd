open Tml_core
open Tml_vm

type options = {
  mode : Lower.mode;
  static_opt : Optimizer.config option;
}

let default_options = { mode = Lower.Library; static_opt = None }

let stdlib_module_names = [ "intlib"; "reallib"; "arraylib"; "mathlib"; "strlib"; "io" ]

let is_stdlib_name name =
  match String.index_opt name '.' with
  | Some i -> List.mem (String.sub name 0 i) stdlib_module_names
  | None -> false

let compile ?(options = default_options) src =
  Tml_query.Qopt.install ();
  let program = Parser.parse_program src in
  let tprog = Typecheck.check_with_prelude ~prelude:(Stdlib_tl.program ()) program in
  let compiled = Lower.lower_program ~mode:options.mode tprog in
  match options.static_opt with
  | None -> compiled
  | Some config ->
    (* Local, compile-time optimization: each definition is optimized in
       isolation, with the algebraic query rules available but no runtime
       bindings (experiment E1). *)
    let config = Optimizer.with_rules config (Tml_query.Qopt.static_plan ()) in
    let optimize_def (d : Lower.compiled_def) =
      let tml, report = Optimizer.optimize_value ~config d.Lower.c_tml in
      { d with Lower.c_tml = tml; c_prov = report.Optimizer.prov }
    in
    {
      compiled with
      Lower.c_defs = List.map optimize_def compiled.Lower.c_defs;
      c_main =
        Option.map (fun m -> fst (Optimizer.optimize_value ~config m)) compiled.Lower.c_main;
    }

type program = {
  ctx : Runtime.ctx;
  globals : (string, Value.t) Hashtbl.t;
  func_oids : (string * Oid.t) list;
  module_oids : (string * Oid.t) list;
  main_oid : Oid.t option;
  compiled : Lower.compiled;
}

let resolve_bindings compiled globals (fo : Value.func_obj) =
  let frees = Ident.Set.elements (Term.free_vars_value fo.Value.fo_tml) in
  ignore compiled;
  fo.Value.fo_bindings <-
    List.map
      (fun id ->
        match Hashtbl.find_opt globals id.Ident.name with
        | Some v -> id, v
        | None ->
          Runtime.fault "link: unresolved global %s" id.Ident.name)
      frees

let link ?ctx (compiled : Lower.compiled) =
  Tml_query.Qopt.install ();
  let ctx =
    match ctx with
    | Some c -> c
    | None -> Runtime.create (Value.Heap.create ())
  in
  let globals : (string, Value.t) Hashtbl.t = Hashtbl.create 64 in
  (* Phase 1: allocate function objects so that mutually recursive bindings
     can be resolved. *)
  let func_oids =
    List.filter_map
      (fun (d : Lower.compiled_def) ->
        if d.Lower.c_is_fun then begin
          let oid = Value.Heap.alloc_func ctx.Runtime.heap ~name:d.Lower.c_name d.Lower.c_tml in
          Hashtbl.replace globals d.Lower.c_name (Value.Oidv oid);
          Some (d.Lower.c_name, oid)
        end
        else None)
      compiled.Lower.c_defs
  in
  (* Phase 2: evaluate value definitions, in order; they may refer to any
     function and to earlier values. *)
  List.iter
    (fun (d : Lower.compiled_def) ->
      if not d.Lower.c_is_fun then begin
        let oid = Value.Heap.alloc_func ctx.Runtime.heap ~name:(d.Lower.c_name ^ "!init") d.Lower.c_tml in
        (match Value.Heap.get ctx.Runtime.heap oid with
        | Value.Func fo -> resolve_bindings compiled globals fo
        | _ -> assert false);
        match Machine.run_proc ctx (Value.Oidv oid) [] with
        | Eval.Done v -> Hashtbl.replace globals d.Lower.c_name v
        | Eval.Raised v ->
          Runtime.fault "link: initialization of %s raised %s" d.Lower.c_name
            (Value.to_string v)
        | Eval.No_fuel -> Runtime.fault "link: initialization of %s ran out of fuel" d.Lower.c_name
        | Eval.Fault msg -> Runtime.fault "link: initialization of %s faulted: %s" d.Lower.c_name msg
      end)
    compiled.Lower.c_defs;
  (* Phase 3: resolve every function's free identifiers to runtime values. *)
  List.iter
    (fun (_, oid) ->
      match Value.Heap.get ctx.Runtime.heap oid with
      | Value.Func fo -> resolve_bindings compiled globals fo
      | _ -> assert false)
    func_oids;
  (* Module objects: a browsable store record of each module's exports
     (the runtime face of the compilation units of figure 3). *)
  let module_oids =
    let by_module = Hashtbl.create 8 in
    Hashtbl.iter
      (fun name v ->
        match String.index_opt name '.' with
        | Some i ->
          let m = String.sub name 0 i in
          let member = String.sub name (i + 1) (String.length name - i - 1) in
          let old = Option.value ~default:[] (Hashtbl.find_opt by_module m) in
          Hashtbl.replace by_module m ((member, v) :: old)
        | None -> ())
      globals;
    Hashtbl.fold
      (fun m exports acc ->
        let exports =
          Array.of_list (List.sort (fun (a, _) (b, _) -> String.compare a b) exports)
        in
        let oid =
          Value.Heap.alloc ctx.Runtime.heap (Value.Module { Value.mod_name = m; exports })
        in
        (m, oid) :: acc)
      by_module []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  (* Main procedure. *)
  let main_oid =
    Option.map
      (fun main_tml ->
        let oid = Value.Heap.alloc_func ctx.Runtime.heap ~name:"main" main_tml in
        (match Value.Heap.get ctx.Runtime.heap oid with
        | Value.Func fo -> resolve_bindings compiled globals fo
        | _ -> assert false);
        oid)
      compiled.Lower.c_main
  in
  { ctx; globals; func_oids; module_oids; main_oid; compiled }

let load ?options ?ctx src = link ?ctx (compile ?options src)

let run_value program fn args ~engine ?(fuel = max_int) () =
  let ctx = program.ctx in
  let saved_fuel = ctx.Runtime.fuel in
  ctx.Runtime.fuel <- fuel;
  let before = ctx.Runtime.steps in
  let outcome =
    match engine with
    | `Tree -> Eval.run_proc ctx fn args
    | `Machine -> Machine.run_proc ctx fn args
  in
  ctx.Runtime.fuel <- saved_fuel;
  outcome, ctx.Runtime.steps - before

let run_main program ~engine ?fuel () =
  match program.main_oid with
  | Some oid -> run_value program (Value.Oidv oid) [] ~engine ?fuel ()
  | None -> Runtime.fault "program has no main (add a 'do ... end' block)"

let function_oid program name = List.assoc name program.func_oids

let run_function program name args ~engine =
  run_value program (Value.Oidv (function_oid program name)) args ~engine ()

let output program = Buffer.contents program.ctx.Runtime.out

let user_function_oids program =
  List.filter_map
    (fun (name, oid) -> if is_stdlib_name name then None else Some oid)
    program.func_oids
  @ Option.to_list program.main_oid

let all_function_oids program =
  List.map snd program.func_oids @ Option.to_list program.main_oid

open Tml_core
open Tml_rules

exception Unsupported_pattern of string

let unsup fmt = Printf.ksprintf (fun s -> raise (Unsupported_pattern s)) fmt

(* Redexes are generated over a row width matching the relations the
   oracle's query harness builds. *)
let width = 3

(* Generation state for one redex: the three outer parameters the redex is
   closed over (relation, exception continuation, final continuation), the
   value environment for nonlinear metavariables (a second occurrence must
   be [Term.equal_value] to the first, so it reuses the generated value
   verbatim) and the binder environment for [P_abs]/[P_bvar]. *)
type gstate = {
  rng : Random.State.t;
  g_r : Ident.t;
  g_ce : Ident.t;
  g_cc : Ident.t;
  mutable venv : Term.value Dsl.SM.t;
  mutable benv : Ident.t Dsl.SM.t;
}

(* (count rel cont(n)(cc n)) — folds the relation's cardinality into the
   observable outcome, so a rewrite that changes which rows survive cannot
   slip through as "same relation oid either way". *)
let consume_rel st rel =
  let n = Ident.fresh "n" in
  Term.app (Term.prim "count")
    [ rel; Term.abs [ n ] (Term.app (Term.var st.g_cc) [ Term.var n ]) ]

let gen_by_sort st (sort : Dsl.vsort) =
  match sort with
  | Dsl.Sval -> Term.int (Random.State.int st.rng 16)
  | Dsl.Srel -> Term.var st.g_r
  | Dsl.Spred -> Tgen.gen_pred st.rng ~width
  | Dsl.Sproj -> Tgen.gen_project_fn st.rng ~width
  | Dsl.Secont -> Term.var st.g_ce
  | Dsl.Scont_rel ->
    let t = Ident.fresh "t" in
    Term.abs [ t ] (consume_rel st (Term.var t))
  | Dsl.Scont_bool ->
    let b = Ident.fresh "b" in
    Term.abs [ b ] (Term.app (Term.var st.g_cc) [ Term.var b ])

let rec gen_value st (p : Dsl.vpat) =
  match p with
  | Dsl.P_lit l -> Term.lit l
  | Dsl.P_prim name -> Term.prim name
  | Dsl.P_bvar m -> (
    match Dsl.SM.find_opt m st.benv with
    | Some id -> Term.var id
    | None -> unsup "P_bvar ?%s outside its binder" m)
  | Dsl.P_any (m, sort) -> (
    match Dsl.SM.find_opt m st.venv with
    | Some v -> v (* nonlinear: reuse so [Term.equal_value] holds *)
    | None ->
      let v = gen_by_sort st sort in
      st.venv <- Dsl.SM.add m v st.venv;
      v)
  | Dsl.P_abs (bs, Dsl.PA_any (_, Dsl.Apred_body)) -> (
    (* A predicate whose body is opaque to the pattern: generate a whole
       predicate and adopt its parameters as the pattern's binders, so side
       conditions phrased over those binder metavariables see the real
       identifiers. *)
    match bs with
    | [ (mx, _); (mce, _); (mcc, _) ] -> (
      match Tgen.gen_pred st.rng ~width with
      | Term.Abs { Term.params = [ x; pce; pcc ]; _ } as v ->
        st.benv <- Dsl.SM.add mx x (Dsl.SM.add mce pce (Dsl.SM.add mcc pcc st.benv));
        v
      | _ -> unsup "generated predicate is not a 3-parameter abstraction")
    | _ -> unsup "Apred_body under %d binders (expected 3)" (List.length bs))
  | Dsl.P_abs (bs, body) ->
    let ids =
      List.map
        (fun (m, sort) ->
          let id = Ident.fresh ~sort m in
          st.benv <- Dsl.SM.add m id st.benv;
          id)
        bs
    in
    Term.abs ids (gen_app st body)

and gen_app st (a : Dsl.apat) =
  match a with
  | Dsl.PA_node { pa_func; pa_args; _ } ->
    Term.app (gen_value st pa_func) (List.map (gen_value st) pa_args)
  | Dsl.PA_any (_, Dsl.Aconsume_rel bm) -> (
    match Dsl.SM.find_opt bm st.benv with
    | Some id -> consume_rel st (Term.var id)
    | None -> unsup "Aconsume_rel ?%s outside its binder" bm)
  | Dsl.PA_any (_, Dsl.Apred_body) -> unsup "Apred_body not directly under P_abs"
  | Dsl.PA_any (_, Dsl.Agen) -> unsup "Agen metavariable (no generator)"

(* One candidate redex, closed over fresh (r, ce, cc). *)
let gen_redex rng (d : Dsl.decl) =
  let g_r = Ident.fresh "r" in
  let g_ce = Ident.fresh ~sort:Ident.Cont "ce" in
  let g_cc = Ident.fresh ~sort:Ident.Cont "cc" in
  let st = { rng; g_r; g_ce; g_cc; venv = Dsl.SM.empty; benv = Dsl.SM.empty } in
  (g_r, g_ce, g_cc), gen_app st d.Dsl.lhs

let gen_rows rng =
  List.init
    (Random.State.int rng 5) (* 0 rows included: empty relations matter *)
    (fun _ -> List.init width (fun _ -> Random.State.int rng 21))

type refutation = {
  ob_seed : int;
  ob_engine : string;
  ob_detail : string;
}

type verdict =
  | Proved of int
  | Refuted of refutation
  | Unsupported of string

let pp_verdict ppf = function
  | Proved n -> Format.fprintf ppf "proved (%d redexes)" n
  | Refuted r ->
    Format.fprintf ppf "REFUTED (seed %d, %s): %s" r.ob_seed r.ob_engine r.ob_detail
  | Unsupported msg -> Format.fprintf ppf "unsupported: %s" msg

let ok = function
  | Proved _ | Unsupported _ -> true
  | Refuted _ -> false

let engines = [ Oracle.Tree; Oracle.Mach ]

let max_tries = 50

let check ?(cases = 12) ?(seed = 0) (r : Dsl.rule) =
  match r.Dsl.impl with
  | Dsl.Closure _ ->
    Unsupported "store-aware closure rule: verified by the oracle battery itself"
  | Dsl.Decl d ->
    let compiled = Dsl.compile_decl ~name:r.Dsl.name ~fact:r.Dsl.fact d in
    let proved = ref 0 in
    let result = ref None in
    (try
       for i = 0 to cases - 1 do
         if !result = None then begin
           let case_seed = seed + i in
           let rng = Random.State.make [| 0x0b11; Hashtbl.hash r.Dsl.name; case_seed |] in
           (* Rejection-sample until the compiled rule fires: the side
              conditions are part of the rule, so only precondition-
              satisfying redexes count. *)
           let fired = ref None in
           let tries = ref 0 in
           while !fired = None && !tries < max_tries do
             incr tries;
             let outer, redex = gen_redex rng d in
             match compiled redex with
             | Some post -> fired := Some (outer, redex, post)
             | None -> ()
           done;
           match !fired with
           | None -> () (* this seed found no firing redex; judged at the end *)
           | Some ((rid, ceid, ccid), redex, post) ->
             let rows = gen_rows rng in
             let wrap body =
               {
                 Tgen.qseed = case_seed;
                 rows;
                 qindex = None;
                 qproc = Term.abs [ rid; ceid; ccid ] body;
               }
             in
             let pre = wrap redex in
             let post = wrap post in
             List.iter
               (fun eng ->
                 if !result = None then
                   match Oracle.observe_query eng pre, Oracle.observe_query eng post with
                   | Ok o1, Ok o2 ->
                     if not (Oracle.observation_equal o1 o2) then
                       result :=
                         Some
                           (Refuted
                              {
                                ob_seed = case_seed;
                                ob_engine = Oracle.engine_name eng;
                                ob_detail =
                                  Format.asprintf "@[<v>pre:  %a@,post: %a@]"
                                    Oracle.pp_observation o1 Oracle.pp_observation o2;
                              })
                   | Error _, _ ->
                     (* the original redex itself does not run under this
                        engine — a generator artifact, not evidence *)
                     ()
                   | Ok _, Error e ->
                     result :=
                       Some
                         (Refuted
                            {
                              ob_seed = case_seed;
                              ob_engine = Oracle.engine_name eng;
                              ob_detail = "rewritten program failed to run: " ^ e;
                            }))
               engines;
             if !result = None then incr proved
         end
       done
     with Unsupported_pattern msg -> result := Some (Unsupported msg));
    (match !result with
    | Some v -> v
    | None ->
      if !proved = 0 then
        Unsupported "no generated redex fired the rule (generator gap: tighten the sorts)"
      else Proved !proved)

let check_all ?cases ?seed rules = List.map (fun r -> r, check ?cases ?seed r) rules

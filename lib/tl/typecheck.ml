open Ast

type texpr = {
  tdesc : tdesc;
  tty : ty;
  tpos : pos;
}

and tdesc =
  | Tunit_
  | Tbool_ of bool
  | Tint_ of int
  | Treal_ of float
  | Tchar_ of char
  | Tstr_ of string
  | Tlocal of string
  | Tmutable of string
  | Tglobal of string
  | Tcall of texpr * texpr list
  | Tbinop of binop * texpr * texpr
  | Tunop of unop * texpr
  | Tif of texpr * texpr * texpr option
  | Tlet of string * texpr * texpr
  | Tvardef of string * texpr * texpr
  | Tassign of string * texpr
  | Tseq of texpr * texpr
  | Twhile of texpr * texpr
  | Tfor of string * texpr * bool * texpr * texpr
  | Tfn of (string * ty) list * ty * texpr
  | Tarraylit of texpr * texpr
  | Tindex of texpr * texpr
  | Tstore of texpr * texpr * texpr
  | Ttuple_ of texpr list
  | Tfield of texpr * int
  | Traise of texpr
  | Ttry of texpr * string * texpr
  | Tprimcall of string * texpr list
  | Tccall of string * texpr list
  | Tbuiltin of builtin * texpr list
  | Tselect of {
      ttarget : texpr;
      tx : string;
      trel : texpr;
      twhere : texpr;
    }
  | Texists of string * texpr * texpr
  | Tforeach of string * texpr * texpr

and builtin =
  | Bsize
  | Bcount
  | Brelation
  | Bmkindex
  | Binsert
  | Bchr
  | Bord
  | Btoreal
  | Btrunc
  | Bunion
  | Binter
  | Bdiff
  | Bdistinct
  | Bontrigger

type tdef = {
  d_name : string;
  d_params : (string * ty) list;
  d_ret : ty;
  d_body : texpr;
  d_is_fun : bool;
}

type tprogram = {
  tdefs : tdef list;
  tmain : texpr option;
}

exception Type_error of pos * string

let fail pos fmt = Format.kasprintf (fun s -> raise (Type_error (pos, s))) fmt

(* Compatibility: Any unifies with everything (stdlib only). *)
let rec compatible a b =
  match a, b with
  | Tany, _ | _, Tany -> true
  | Tarray a, Tarray b | Trel a, Trel b -> compatible a b
  | Ttuple xs, Ttuple ys ->
    List.length xs = List.length ys && List.for_all2 compatible xs ys
  | Tfun (xs, r1), Tfun (ys, r2) ->
    List.length xs = List.length ys && List.for_all2 compatible xs ys && compatible r1 r2
  | _ -> a = b

let ensure pos ~expected ~got what =
  if not (compatible expected got) then
    fail pos "%s: expected %s, got %s" what (ty_to_string expected) (ty_to_string got)

(* merge two branch types; Any loses to the concrete one *)
let join pos a b =
  if compatible a b then (if a = Tany then b else a)
  else fail pos "branches have incompatible types %s and %s" (ty_to_string a) (ty_to_string b)

type binding =
  | Blocal of ty
  | Bmutable of ty

type scope = {
  (* lexical locals *)
  mutable vars : (string * binding) list;
}

type genv = {
  modules : (string, (string * ty) list ref) Hashtbl.t;
  globals : (string, ty) Hashtbl.t;  (* canonical name -> type *)
  declared : (string, ty) Hashtbl.t;
      (* the prelude's globals overlaid with each top-level function's
         last signature: what every earlier item was checked against *)
  mutable allow_any : bool;
  mutable current_module : string option;
}

let builtin_of_name = function
  | "size" -> Some Bsize
  | "count" -> Some Bcount
  | "relation" -> Some Brelation
  | "mkindex" -> Some Bmkindex
  | "insert" -> Some Binsert
  | "chr" -> Some Bchr
  | "ord" -> Some Bord
  | "real" -> Some Btoreal
  | "trunc" -> Some Btrunc
  | "union" -> Some Bunion
  | "inter" -> Some Binter
  | "diff" -> Some Bdiff
  | "distinct" -> Some Bdistinct
  | "ontrigger" -> Some Bontrigger
  | _ -> None

let canonical genv name =
  match genv.current_module with
  | Some m -> m ^ "." ^ name
  | None -> name

(* Resolve an unqualified identifier: locals, then members of the current
   module, then top-level globals. *)
let resolve genv scope pos name =
  match List.assoc_opt name scope.vars with
  | Some (Blocal ty) -> `Local ty
  | Some (Bmutable ty) -> `Mutable ty
  | None -> (
    let in_module =
      match genv.current_module with
      | Some m -> (
        match Hashtbl.find_opt genv.modules m with
        | Some members -> List.assoc_opt name !members |> Option.map (fun ty -> m ^ "." ^ name, ty)
        | None -> None)
      | None -> None
    in
    match in_module with
    | Some (cname, ty) -> `Global (cname, ty)
    | None -> (
      match Hashtbl.find_opt genv.globals name with
      | Some ty -> `Global (name, ty)
      | None -> fail pos "unbound identifier %s" name))

let check_no_any genv pos ty =
  let rec has_any = function
    | Tany -> true
    | Tarray t | Trel t -> has_any t
    | Ttuple ts -> List.exists has_any ts
    | Tfun (args, r) -> List.exists has_any args || has_any r
    | _ -> false
  in
  if (not genv.allow_any) && has_any ty then
    fail pos "the Any type is reserved for the standard library"

let rec infer genv scope (e : expr) : texpr =
  let pos = e.pos in
  let mk tdesc tty = { tdesc; tty; tpos = pos } in
  match e.desc with
  | Eunit -> mk Tunit_ Tunit
  | Ebool b -> mk (Tbool_ b) Tbool
  | Eint i -> mk (Tint_ i) Tint
  | Ereal r -> mk (Treal_ r) Treal
  | Echar c -> mk (Tchar_ c) Tchar
  | Estr s -> mk (Tstr_ s) Tstring
  | Evar name -> (
    match resolve genv scope pos name with
    | `Local ty -> mk (Tlocal name) ty
    | `Mutable ty -> mk (Tmutable name) ty
    | `Global (cname, ty) -> mk (Tglobal cname) ty)
  | Eqname (m, member) -> (
    match Hashtbl.find_opt genv.modules m with
    | None -> fail pos "unknown module %s" m
    | Some members -> (
      match List.assoc_opt member !members with
      | Some ty -> mk (Tglobal (m ^ "." ^ member)) ty
      | None -> fail pos "module %s has no member %s" m member))
  | Ecall ({ desc = Evar name; _ }, args)
    when builtin_of_name name <> None
         && (match resolve genv scope pos name with
            | exception Type_error _ -> true
            | _ -> false) ->
    (* builtin, unless shadowed by a user binding *)
    check_builtin genv scope pos (Option.get (builtin_of_name name)) args
  | Ecall (f, args) -> (
    let tf = infer genv scope f in
    let targs = List.map (infer genv scope) args in
    match tf.tty with
    | Tfun (ptys, ret) ->
      if List.length ptys <> List.length targs then
        fail pos "function expects %d arguments, got %d" (List.length ptys)
          (List.length targs);
      List.iteri
        (fun i (pty, targ) ->
          ensure targ.tpos ~expected:pty ~got:targ.tty (Printf.sprintf "argument %d" (i + 1)))
        (List.combine ptys targs);
      mk (Tcall (tf, targs)) ret
    | Tany -> mk (Tcall (tf, targs)) Tany
    | ty -> fail pos "cannot call a value of type %s" (ty_to_string ty))
  | Ebinop (op, a, b) -> (
    let ta = infer genv scope a in
    let tb = infer genv scope b in
    let num what =
      match ta.tty, tb.tty with
      | (Tint | Tany), (Tint | Tany) -> Tint
      | (Treal | Tany), (Treal | Tany) -> Treal
      | _ ->
        fail pos "%s requires two Ints or two Reals, got %s and %s" what
          (ty_to_string ta.tty) (ty_to_string tb.tty)
    in
    match op with
    | Add -> (
      (* '+' additionally concatenates strings *)
      match ta.tty, tb.tty with
      | Tstring, Tstring -> mk (Tbinop (op, ta, tb)) Tstring
      | _ -> mk (Tbinop (op, ta, tb)) (num "arithmetic"))
    | Sub | Mul | Div -> mk (Tbinop (op, ta, tb)) (num "arithmetic")
    | Mod ->
      ensure ta.tpos ~expected:Tint ~got:ta.tty "'%' operand";
      ensure tb.tpos ~expected:Tint ~got:tb.tty "'%' operand";
      mk (Tbinop (op, ta, tb)) Tint
    | Lt | Le | Gt | Ge ->
      ignore (num "comparison");
      mk (Tbinop (op, ta, tb)) Tbool
    | Eq | Ne ->
      if not (compatible ta.tty tb.tty) then
        fail pos "cannot compare %s with %s" (ty_to_string ta.tty) (ty_to_string tb.tty);
      (match ta.tty with
      | Tint | Treal | Tbool | Tchar | Tstring | Tunit | Tany | Tarray _ | Trel _
      | Ttuple _ ->
        ()
      | Tfun _ -> fail pos "functions cannot be compared");
      mk (Tbinop (op, ta, tb)) Tbool
    | And | Or ->
      ensure ta.tpos ~expected:Tbool ~got:ta.tty "boolean operand";
      ensure tb.tpos ~expected:Tbool ~got:tb.tty "boolean operand";
      mk (Tbinop (op, ta, tb)) Tbool)
  | Eunop (Neg, a) -> (
    let ta = infer genv scope a in
    match ta.tty with
    | Tint | Treal | Tany -> mk (Tunop (Neg, ta)) (if ta.tty = Treal then Treal else Tint)
    | ty -> fail pos "negation requires Int or Real, got %s" (ty_to_string ty))
  | Eunop (Not, a) ->
    let ta = infer genv scope a in
    ensure ta.tpos ~expected:Tbool ~got:ta.tty "'!' operand";
    mk (Tunop (Not, ta)) Tbool
  | Eif (c, t, eo) -> (
    let tc = infer genv scope c in
    ensure tc.tpos ~expected:Tbool ~got:tc.tty "if condition";
    let tt = infer genv scope t in
    match eo with
    | Some els ->
      let te = infer genv scope els in
      mk (Tif (tc, tt, Some te)) (join pos tt.tty te.tty)
    | None ->
      (* one-armed if is a statement *)
      mk (Tif (tc, tt, None)) Tunit)
  | Elet (x, ann, rhs, body) ->
    let trhs = infer genv scope rhs in
    (match ann with
    | Some ty ->
      check_no_any genv pos ty;
      ensure trhs.tpos ~expected:ty ~got:trhs.tty "let binding"
    | None -> ());
    let ty = Option.value ~default:trhs.tty ann in
    let saved = scope.vars in
    scope.vars <- (x, Blocal ty) :: scope.vars;
    let tbody = infer genv scope body in
    scope.vars <- saved;
    mk (Tlet (x, trhs, tbody)) tbody.tty
  | Evardef (x, ann, rhs, body) ->
    let trhs = infer genv scope rhs in
    (match ann with
    | Some ty ->
      check_no_any genv pos ty;
      ensure trhs.tpos ~expected:ty ~got:trhs.tty "var binding"
    | None -> ());
    let ty = Option.value ~default:trhs.tty ann in
    let saved = scope.vars in
    scope.vars <- (x, Bmutable ty) :: scope.vars;
    let tbody = infer genv scope body in
    scope.vars <- saved;
    mk (Tvardef (x, trhs, tbody)) tbody.tty
  | Eassign (x, rhs) -> (
    let trhs = infer genv scope rhs in
    match List.assoc_opt x scope.vars with
    | Some (Bmutable ty) ->
      ensure trhs.tpos ~expected:ty ~got:trhs.tty "assignment";
      mk (Tassign (x, trhs)) Tunit
    | Some (Blocal _) -> fail pos "%s is immutable (declare it with 'var')" x
    | None -> fail pos "unbound variable %s" x)
  | Eseq (a, b) ->
    let ta = infer genv scope a in
    let tb = infer genv scope b in
    mk (Tseq (ta, tb)) tb.tty
  | Ewhile (c, body) ->
    let tc = infer genv scope c in
    ensure tc.tpos ~expected:Tbool ~got:tc.tty "while condition";
    let tbody = infer genv scope body in
    mk (Twhile (tc, tbody)) Tunit
  | Efor (x, lo, upto, hi, body) ->
    let tlo = infer genv scope lo in
    let thi = infer genv scope hi in
    ensure tlo.tpos ~expected:Tint ~got:tlo.tty "for bound";
    ensure thi.tpos ~expected:Tint ~got:thi.tty "for bound";
    let saved = scope.vars in
    scope.vars <- (x, Blocal Tint) :: scope.vars;
    let tbody = infer genv scope body in
    scope.vars <- saved;
    mk (Tfor (x, tlo, upto, thi, tbody)) Tunit
  | Efn (params, ret, body) ->
    List.iter (fun (_, ty) -> check_no_any genv pos ty) params;
    check_no_any genv pos ret;
    let saved = scope.vars in
    scope.vars <- List.map (fun (x, ty) -> x, Blocal ty) params @ scope.vars;
    let tbody = infer genv scope body in
    scope.vars <- saved;
    ensure tbody.tpos ~expected:ret ~got:tbody.tty "function body";
    mk (Tfn (params, ret, tbody)) (Tfun (List.map snd params, ret))
  | Earraylit (n, init) ->
    let tn = infer genv scope n in
    ensure tn.tpos ~expected:Tint ~got:tn.tty "array size";
    let tinit = infer genv scope init in
    mk (Tarraylit (tn, tinit)) (Tarray tinit.tty)
  | Eindex (a, i) -> (
    let ta = infer genv scope a in
    let ti = infer genv scope i in
    ensure ti.tpos ~expected:Tint ~got:ti.tty "index";
    match ta.tty with
    | Tarray elt -> mk (Tindex (ta, ti)) elt
    | Tany -> mk (Tindex (ta, ti)) Tany
    | ty -> fail pos "cannot index a value of type %s" (ty_to_string ty))
  | Estore (a, i, v) -> (
    let ta = infer genv scope a in
    let ti = infer genv scope i in
    let tv = infer genv scope v in
    ensure ti.tpos ~expected:Tint ~got:ti.tty "index";
    match ta.tty with
    | Tarray elt ->
      ensure tv.tpos ~expected:elt ~got:tv.tty "array update";
      mk (Tstore (ta, ti, tv)) Tunit
    | Tany -> mk (Tstore (ta, ti, tv)) Tunit
    | ty -> fail pos "cannot update a value of type %s" (ty_to_string ty))
  | Etuple es ->
    let ts = List.map (infer genv scope) es in
    mk (Ttuple_ ts) (Ttuple (List.map (fun t -> t.tty) ts))
  | Efield (a, k) -> (
    let ta = infer genv scope a in
    match ta.tty with
    | Ttuple tys ->
      if k < 1 || k > List.length tys then
        fail pos "tuple has %d fields, no field %d" (List.length tys) k;
      mk (Tfield (ta, k)) (List.nth tys (k - 1))
    | Tany -> mk (Tfield (ta, k)) Tany
    | ty -> fail pos "cannot select a field of type %s" (ty_to_string ty))
  | Eraise e1 ->
    let te = infer genv scope e1 in
    ensure te.tpos ~expected:Tstring ~got:te.tty "raise payload";
    (* a raise never returns; its static type is free *)
    mk (Traise te) Tany
  | Etry (body, x, handler) ->
    let tbody = infer genv scope body in
    let saved = scope.vars in
    scope.vars <- (x, Blocal Tstring) :: scope.vars;
    let thandler = infer genv scope handler in
    scope.vars <- saved;
    mk (Ttry (tbody, x, thandler)) (join pos tbody.tty thandler.tty)
  | Eprimcall (name, args, ann) ->
    let targs = List.map (infer genv scope) args in
    let ty = Option.value ~default:Tany ann in
    check_no_any genv pos ty;
    if (not genv.allow_any) && ann = None then
      fail pos "prim calls outside the standard library need a result annotation";
    mk (Tprimcall (name, targs)) ty
  | Eccallx (name, args, ann) ->
    let targs = List.map (infer genv scope) args in
    let ty = Option.value ~default:Tunit ann in
    check_no_any genv pos ty;
    mk (Tccall (name, targs)) ty
  | Eselect { target; x; rel; where } -> (
    let trel = infer genv scope rel in
    match trel.tty with
    | Trel row | (Tany as row) ->
      let saved = scope.vars in
      scope.vars <- (x, Blocal row) :: scope.vars;
      let twhere = infer genv scope where in
      ensure twhere.tpos ~expected:Tbool ~got:twhere.tty "where clause";
      let ttarget = infer genv scope target in
      scope.vars <- saved;
      (match ttarget.tty with
      | Ttuple _ | Tany -> ()
      | ty -> fail pos "select target must be a tuple, got %s" (ty_to_string ty));
      mk (Tselect { ttarget; tx = x; trel; twhere }) (Trel ttarget.tty)
    | ty -> fail pos "select range must be a relation, got %s" (ty_to_string ty))
  | Eexists (x, rel, where) -> (
    let trel = infer genv scope rel in
    match trel.tty with
    | Trel row | (Tany as row) ->
      let saved = scope.vars in
      scope.vars <- (x, Blocal row) :: scope.vars;
      let twhere = infer genv scope where in
      scope.vars <- saved;
      ensure twhere.tpos ~expected:Tbool ~got:twhere.tty "where clause";
      mk (Texists (x, trel, twhere)) Tbool
    | ty -> fail pos "exists range must be a relation, got %s" (ty_to_string ty))
  | Eforeach (x, rel, body) -> (
    let trel = infer genv scope rel in
    match trel.tty with
    | Trel row | (Tany as row) ->
      let saved = scope.vars in
      scope.vars <- (x, Blocal row) :: scope.vars;
      let tbody = infer genv scope body in
      scope.vars <- saved;
      mk (Tforeach (x, trel, tbody)) Tunit
    | ty -> fail pos "foreach range must be a relation, got %s" (ty_to_string ty))

and check_builtin genv scope pos b args =
  let targs = List.map (infer genv scope) args in
  let mk tty = { tdesc = Tbuiltin (b, targs); tty; tpos = pos } in
  let arg i = List.nth targs i in
  let arity n what =
    if List.length targs <> n then fail pos "%s expects %d arguments" what n
  in
  match b with
  | Bsize ->
    arity 1 "size";
    (match (arg 0).tty with
    | Tarray _ | Tany -> ()
    | ty -> fail pos "size expects an array, got %s" (ty_to_string ty));
    mk Tint
  | Bcount ->
    arity 1 "count";
    (match (arg 0).tty with
    | Trel _ | Tany -> ()
    | ty -> fail pos "count expects a relation, got %s" (ty_to_string ty));
    mk Tint
  | Brelation ->
    if targs = [] then fail pos "relation needs at least one tuple";
    let row = (arg 0).tty in
    List.iter
      (fun t ->
        if not (compatible t.tty row) then
          fail pos "relation rows have incompatible types")
      targs;
    (match row with
    | Ttuple _ | Tany -> ()
    | ty -> fail pos "relation rows must be tuples, got %s" (ty_to_string ty));
    mk (Trel row)
  | Bmkindex ->
    arity 2 "mkindex";
    (match (arg 0).tty with
    | Trel _ | Tany -> ()
    | ty -> fail pos "mkindex expects a relation, got %s" (ty_to_string ty));
    ensure (arg 1).tpos ~expected:Tint ~got:(arg 1).tty "mkindex field";
    mk Tunit
  | Binsert ->
    arity 2 "insert";
    (match (arg 0).tty, (arg 1).tty with
    | (Trel row | (Tany as row)), t when compatible row t -> ()
    | _ -> fail pos "insert expects a relation and a matching tuple");
    mk Tunit
  | Bchr ->
    arity 1 "chr";
    ensure (arg 0).tpos ~expected:Tint ~got:(arg 0).tty "chr argument";
    mk Tchar
  | Bord ->
    arity 1 "ord";
    ensure (arg 0).tpos ~expected:Tchar ~got:(arg 0).tty "ord argument";
    mk Tint
  | Btoreal ->
    arity 1 "real";
    ensure (arg 0).tpos ~expected:Tint ~got:(arg 0).tty "real argument";
    mk Treal
  | Btrunc ->
    arity 1 "trunc";
    ensure (arg 0).tpos ~expected:Treal ~got:(arg 0).tty "trunc argument";
    mk Tint
  | (Bunion | Binter | Bdiff) as b2 ->
    let what =
      match b2 with
      | Bunion -> "union"
      | Binter -> "inter"
      | _ -> "diff"
    in
    arity 2 what;
    (match (arg 0).tty, (arg 1).tty with
    | (Trel _ | Tany), (Trel _ | Tany) when compatible (arg 0).tty (arg 1).tty -> ()
    | _ -> fail pos "%s expects two relations of the same row type" what);
    mk (if (arg 0).tty = Tany then (arg 1).tty else (arg 0).tty)
  | Bdistinct ->
    arity 1 "distinct";
    (match (arg 0).tty with
    | Trel _ | Tany -> ()
    | ty -> fail pos "distinct expects a relation, got %s" (ty_to_string ty));
    mk (arg 0).tty
  | Bontrigger ->
    arity 2 "ontrigger";
    (match (arg 0).tty, (arg 1).tty with
    | (Trel row | (Tany as row)), Tfun ([ argty ], Tunit) when compatible row argty -> ()
    | (Trel _ | Tany), Tany -> ()
    | _ -> fail pos "ontrigger expects a relation and a Fun(row): Unit");
    mk Tunit

(* ------------------------------------------------------------------ *)
(* Programs                                                             *)
(* ------------------------------------------------------------------ *)

let fun_ty params ret = Tfun (List.map snd params, ret)

let collect_signatures genv items =
  List.iter
    (fun item ->
      match item with
      | Imodule (m, defs) ->
        let members = ref [] in
        List.iter
          (fun def ->
            match def with
            | Dfun { name; params; ret; _ } -> members := !members @ [ name, fun_ty params ret ]
            | Dval _ -> ())
          defs;
        Hashtbl.replace genv.modules m members
      | Idef (Dfun { name; params; ret; _ }) ->
        Hashtbl.replace genv.globals name (fun_ty params ret);
        Hashtbl.replace genv.declared name (fun_ty params ret)
      | Idef (Dval _) | Ido _ -> ())
    items

let check_def genv (def : def) : tdef =
  match def with
  | Dfun { name; params; ret; body; pos } ->
    List.iter (fun (_, ty) -> check_no_any genv pos ty) params;
    check_no_any genv pos ret;
    let scope = { vars = List.map (fun (x, ty) -> x, Blocal ty) params } in
    let tbody = infer genv scope body in
    ensure tbody.tpos ~expected:ret ~got:tbody.tty (Printf.sprintf "body of %s" name);
    { d_name = canonical genv name; d_params = params; d_ret = ret; d_body = tbody;
      d_is_fun = true }
  | Dval { name; ty; body; pos } ->
    let scope = { vars = [] } in
    let tbody = infer genv scope body in
    (match ty with
    | Some t ->
      check_no_any genv pos t;
      ensure tbody.tpos ~expected:t ~got:tbody.tty (Printf.sprintf "value %s" name)
    | None -> ());
    let vty = Option.value ~default:tbody.tty ty in
    (* record the value's type for subsequent defs *)
    (match genv.current_module with
    | Some m ->
      let members = Hashtbl.find genv.modules m in
      members := !members @ [ name, vty ]
    | None -> Hashtbl.replace genv.globals name vty);
    { d_name = canonical genv name; d_params = []; d_ret = vty; d_body = tbody;
      d_is_fun = false }

let combine_mains = function
  | [] -> None
  | [ m ] -> Some m
  | m :: rest ->
    Some
      (List.fold_left
         (fun acc e -> { tdesc = Tseq (acc, e); tty = e.tty; tpos = e.tpos })
         m rest)

(* Check [items] after [history] as one program: every function signature
   of both is visible from the start.  Only [items]' definitions and
   do-blocks are returned. *)
let check_items ?(history = []) genv items =
  collect_signatures genv (history @ items);
  let check_item = function
    | Imodule (m, mdefs) ->
      genv.current_module <- Some m;
      let tdefs = List.map (check_def genv) mdefs in
      genv.current_module <- None;
      tdefs, []
    | Idef d -> [ check_def genv d ], []
    | Ido e -> [], [ infer genv { vars = [] } e ]
  in
  List.iter (fun item -> ignore (check_item item)) history;
  let tdefs, mains = List.split (List.map check_item items) in
  { tdefs = List.concat tdefs; tmain = combine_mains (List.concat mains) }

(* ------------------------------------------------------------------ *)
(* Incremental checking                                                 *)
(* ------------------------------------------------------------------ *)

type env = {
  mutable g : genv;
  base : genv;  (* the checked prelude; shared between copies, never written *)
}

let copy_genv g =
  let modules = Hashtbl.create (Hashtbl.length g.modules) in
  Hashtbl.iter (fun m members -> Hashtbl.replace modules m (ref !members)) g.modules;
  { g with modules; globals = Hashtbl.copy g.globals; declared = Hashtbl.copy g.declared }

let copy env = { env with g = copy_genv env.g }

let of_prelude prelude =
  let base =
    { modules = Hashtbl.create 16; globals = Hashtbl.create 32; declared = Hashtbl.create 32;
      allow_any = true; current_module = None }
  in
  let p = check_items base prelude in
  if p.tmain <> None then invalid_arg "Typecheck.of_prelude: prelude has do-blocks";
  base.allow_any <- false;
  Hashtbl.iter (Hashtbl.replace base.declared) base.globals;
  { g = copy_genv base; base }, p.tdefs

(* Whether [items] could change how an earlier item checks: a module is
   redefined, a function's signature differs from what its name was
   declared or bound as, or a new function shadows a builtin. *)
let redeclares g items =
  List.exists
    (function
      | Imodule (m, _) -> Hashtbl.mem g.modules m
      | Idef (Dfun { name; params; ret; _ }) ->
        let differs tbl =
          Option.fold ~none:false ~some:(( <> ) (fun_ty params ret)) (Hashtbl.find_opt tbl name)
        in
        differs g.globals || differs g.declared
        || ((not (Hashtbl.mem g.declared name)) && builtin_of_name name <> None)
      | Idef (Dval _) | Ido _ -> false)
    items

let extend env ~history items =
  let rebuild ?history items =
    let g = copy_genv env.base in
    let checked = check_items ?history g items in
    env.g <- g;
    checked
  in
  if redeclares env.g items then rebuild ~history:(history ()) items
  else
    try check_items env.g items
    with e ->
      (* a failed check may have bound some of [items]' names: rebuild *)
      if List.exists (function Ido _ -> false | _ -> true) items then
        ignore (rebuild (history ()));
      raise e

let check_with_prelude ~prelude program =
  let env, predefs = of_prelude prelude in
  let tprog = extend env ~history:(fun () -> []) program in
  { tprog with tdefs = predefs @ tprog.tdefs }

(** The TL type checker.

    Produces an elaborated, type-annotated tree.  The checker enforces the
    static discipline the TML code generator relies on ("the compiler front
    end performs the necessary type checking on the input to the TML code
    generator", section 2.2 constraint 1): arities and argument sorts of
    every call are known before CPS conversion, so the generated TML is
    well-formed by construction.

    The pseudo-type [Any] (unsound, deliberately) is accepted only when
    [allow_any] is set; it is used by the TL-written standard library whose
    array operations are polymorphic. *)

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
  | Tlocal of string                  (** immutable local / parameter *)
  | Tmutable of string                (** [var]-declared local *)
  | Tglobal of string                 (** canonical global name, e.g. ["intlib.add"] *)
  | Tcall of texpr * texpr list
  | Tbinop of binop * texpr * texpr   (** operand types disambiguate Int/Real *)
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
  | Tfield of texpr * int             (** 1-based *)
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
  | Bsize       (** size(a) : Int *)
  | Bcount      (** count(r) : Int *)
  | Brelation   (** relation(t1, ..., tn) : Rel *)
  | Bmkindex    (** mkindex(r, field) : Unit — field is 1-based *)
  | Binsert     (** insert(r, t) : Unit *)
  | Bchr        (** chr(i) : Char *)
  | Bord        (** ord(c) : Int *)
  | Btoreal     (** real(i) : Real *)
  | Btrunc      (** trunc(r) : Int *)
  | Bunion      (** union(r1, r2) : Rel — multiset union *)
  | Binter      (** inter(r1, r2) : Rel — content-based intersection *)
  | Bdiff       (** diff(r1, r2) : Rel — content-based difference *)
  | Bdistinct   (** distinct(r) : Rel — duplicate elimination *)
  | Bontrigger  (** ontrigger(r, fn) : Unit — register a stored trigger *)

type tdef = {
  d_name : string;       (** canonical (qualified) name *)
  d_params : (string * ty) list;
  d_ret : ty;
  d_body : texpr;
  d_is_fun : bool;
}

type tprogram = {
  tdefs : tdef list;  (** in dependency (source) order *)
  tmain : texpr option;
}

exception Type_error of pos * string

(** [check_with_prelude ~prelude program] checks [prelude] (with [Any]
    allowed) followed by [program] (without), sharing one global scope —
    how the standard library is injected. *)
val check_with_prelude : prelude:program -> program -> tprogram

(** {1 Incremental checking}

    An interactive session checks each input against one persistent
    environment instead of re-checking everything it has seen. *)

type env

(** [of_prelude prelude] checks [prelude] as {!check_with_prelude} does and
    returns the resulting environment with the prelude's definitions. *)
val of_prelude : program -> env * tdef list

(** [copy env] — an independent copy; extending it leaves [env] as it
    is. *)
val copy : env -> env

(** [extend env ~history items] checks [items] against [env] and adds
    their definitions to it, returning only [items]' definitions and
    main expression.  The verdict and the resulting environment are
    those of checking the prelude followed by [history () @ items] in one
    go, where [history ()] returns the definitions [env] was extended
    with so far, in order: when [items] could change how an earlier
    definition checks (a redefined module, a changed function signature),
    [history] is re-checked with them; otherwise only [items] are.
    On {!Type_error} [env] is unchanged.
    @raise Type_error *)
val extend : env -> history:(unit -> program) -> program -> tprogram

(** Scalar operators of the IR, shared between the interpreter, the
    frontend and the virtual-ISA backend. *)

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | And
  | Or
  | Xor
  | Shl
  | Shr
  | Min
  | Max
  | Pow  (** floating point only; lowered to the special-function unit *)

type unop = Neg | Not | Sqrt | Exp | Log | Sin | Cos | Abs | Floor | Ceil | Rsqrt
type cmpop = Eq | Ne | Lt | Le | Gt | Ge

val pp_binop : binop Fmt.t
val pp_unop : unop Fmt.t
val pp_cmpop : cmpop Fmt.t

(** {1 Scalar semantics}

    The IR's only per-operator semantics, read by the execution engine,
    the host code and the constant folder. Each is [[@inline]] with one
    match arm per constructor, so a call from another module inlines
    (the tree builds without [-opaque]) and keeps its floats unboxed.
    An operator a kind rejects raises [Invalid_argument]. *)

(** Integer semantics (C-like: division truncates towards zero;
    division/remainder by zero yield 0 rather than trapping). *)
val eval_int_binop : binop -> int -> int -> int

val eval_float_binop : binop -> float -> float -> float
val eval_int_unop : unop -> int -> int
val eval_float_unop : unop -> float -> float
val eval_int_cmp : cmpop -> int -> int -> bool
val eval_float_cmp : cmpop -> float -> float -> bool

(** Used by CSE/canonicalization to normalize operand order. *)
val commutative : binop -> bool

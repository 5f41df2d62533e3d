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

let pp_binop ppf op =
  Fmt.string ppf
    (match op with
    | Add -> "add"
    | Sub -> "sub"
    | Mul -> "mul"
    | Div -> "div"
    | Rem -> "rem"
    | And -> "and"
    | Or -> "or"
    | Xor -> "xor"
    | Shl -> "shl"
    | Shr -> "shr"
    | Min -> "min"
    | Max -> "max"
    | Pow -> "pow")

let pp_unop ppf op =
  Fmt.string ppf
    (match op with
    | Neg -> "neg"
    | Not -> "not"
    | Sqrt -> "sqrt"
    | Exp -> "exp"
    | Log -> "log"
    | Sin -> "sin"
    | Cos -> "cos"
    | Abs -> "abs"
    | Floor -> "floor"
    | Ceil -> "ceil"
    | Rsqrt -> "rsqrt")

let pp_cmpop ppf op =
  Fmt.string ppf
    (match op with Eq -> "eq" | Ne -> "ne" | Lt -> "lt" | Le -> "le" | Gt -> "gt" | Ge -> "ge")

(** Integer semantics of a binary operator. Division and remainder
    follow C semantics (truncation towards zero), which is what the
    benchmarks' index arithmetic assumes. Operands are annotated
    [int], here and in [eval_int_cmp], and [Min]/[Max] use
    [Int.min]/[Int.max]: the polymorphic versions are C calls. *)
let eval_int_binop op (a : int) (b : int) =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div -> if b = 0 then 0 else a / b
  | Rem -> if b = 0 then 0 else a mod b
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Shl -> a lsl b
  | Shr -> a asr b
  | Min -> Int.min a b
  | Max -> Int.max a b
  | Pow -> invalid_arg "Ops.eval_int_binop: pow on integers"

let eval_float_binop op a b =
  match op with
  | Add -> a +. b
  | Sub -> a -. b
  | Mul -> a *. b
  | Div -> a /. b
  | Rem -> Float.rem a b
  | Min -> Float.min a b
  | Max -> Float.max a b
  | Pow -> Float.pow a b
  | And | Or | Xor | Shl | Shr -> invalid_arg "Ops.eval_float_binop: bitwise op on floats"

let eval_int_unop op a =
  match op with
  | Neg -> -a
  | Not -> lnot a
  | Abs -> abs a
  | Sqrt | Exp | Log | Sin | Cos | Floor | Ceil | Rsqrt ->
      invalid_arg "Ops.eval_int_unop: float-only unop on integer"

let eval_float_unop op a =
  match op with
  | Neg -> -.a
  | Sqrt -> sqrt a
  | Exp -> exp a
  | Log -> log a
  | Sin -> sin a
  | Cos -> cos a
  | Abs -> Float.abs a
  | Floor -> Float.floor a
  | Ceil -> Float.ceil a
  | Rsqrt -> 1. /. sqrt a
  | Not -> invalid_arg "Ops.eval_float_unop: bitwise not on float"

let eval_int_cmp op (a : int) (b : int) =
  match op with Eq -> a = b | Ne -> a <> b | Lt -> a < b | Le -> a <= b | Gt -> a > b | Ge -> a >= b

let eval_float_cmp op (a : float) (b : float) =
  match op with Eq -> a = b | Ne -> a <> b | Lt -> a < b | Le -> a <= b | Gt -> a > b | Ge -> a >= b

(** Whether the operator is commutative — used by CSE/canonicalization
    to normalize operand order. *)
let commutative = function
  | Add | Mul | And | Or | Xor | Min | Max -> true
  | Sub | Div | Rem | Shl | Shr | Pow -> false

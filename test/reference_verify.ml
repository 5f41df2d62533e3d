(** The verifier before its scopes became one table and an undo log:
    the oracle of [Pgpu_ir.Verify]. It keeps a set of every value ever
    defined in a function and, when a region ends, rescans the region
    to drop what it defined from the visible scope. Its body below the
    [open]s is the old verifier's, unchanged. *)

open Pgpu_ir
open Instr

exception Invalid of string

let fail fmt = Fmt.kstr (fun s -> raise (Invalid s)) fmt

type ctx = {
  scope : unit Value.Tbl.t;  (** values visible at the current point *)
  mutable defined : Value.Set.t;  (** all values ever defined, to catch double defs *)
  mutable parallels : (int * par_level) list;  (** enclosing parallel loops, innermost first *)
  mutable in_wrapper : bool;
}

let check_visible ctx i v =
  if not (Value.Tbl.mem ctx.scope v) then
    fail "use of undefined value %a in %s" Value.pp v
      (Fmt.str "%a" (pp_instr ~indent:0) i |> fun s -> String.sub s 0 (min 80 (String.length s)))

let define ctx v =
  if Value.Set.mem v ctx.defined then fail "value %a defined twice" Value.pp v;
  ctx.defined <- Value.Set.add v ctx.defined;
  Value.Tbl.replace ctx.scope v ()

let undefine ctx v = Value.Tbl.remove ctx.scope v

let expect_ty what expected (v : Value.t) =
  if not (Types.equal expected v.Value.ty) then
    fail "%s: expected %a, got %a for %a" what Types.pp expected Types.pp v.Value.ty Value.pp v

let expect_int what (v : Value.t) =
  if not (Types.is_int v.Value.ty) then fail "%s: expected integer, got %a" what Types.pp v.Value.ty

let check_expr (res : Value.t) = function
  | Const (Ci _) -> if not (Types.is_int res.Value.ty) then fail "integer constant bound at non-integer type %a" Types.pp res.Value.ty
  | Const (Cf _) ->
      if not (Types.is_float res.Value.ty) then fail "float constant bound at non-float type %a" Types.pp res.Value.ty
  | Binop (op, a, b) ->
      expect_ty "binop lhs" res.Value.ty a;
      expect_ty "binop rhs" res.Value.ty b;
      (match op with
      | Ops.Pow -> if not (Types.is_float res.Value.ty) then fail "pow on non-float"
      | Ops.And | Ops.Or | Ops.Xor | Ops.Shl | Ops.Shr ->
          if not (Types.is_int res.Value.ty) then fail "bitwise binop on non-integer"
      | _ -> ())
  | Unop (op, a) ->
      expect_ty "unop operand" res.Value.ty a;
      (match op with
      | Ops.Sqrt | Ops.Exp | Ops.Log | Ops.Sin | Ops.Cos | Ops.Floor | Ops.Ceil | Ops.Rsqrt ->
          if not (Types.is_float res.Value.ty) then fail "float unop on non-float"
      | Ops.Not -> if not (Types.is_int res.Value.ty) then fail "not on non-integer"
      | Ops.Neg | Ops.Abs -> ())
  | Cmp (_, a, b) ->
      expect_ty "cmp result" Types.I1 res;
      if not (Types.equal a.Value.ty b.Value.ty) then fail "cmp operands of different types"
  | Select (c, a, b) ->
      expect_ty "select condition" Types.I1 c;
      expect_ty "select lhs" res.Value.ty a;
      expect_ty "select rhs" res.Value.ty b
  | Cast _ -> ()
  | Load { mem; idx } ->
      if not (Types.is_memref mem.Value.ty) then fail "load from non-memref";
      expect_int "load index" idx;
      expect_ty "load result" (Types.elem mem.Value.ty) res

(** Verify a block. [term] describes the required terminator. *)
let rec check_block ctx ~term block =
  let n = List.length block in
  List.iteri
    (fun k i ->
      let is_last = k = n - 1 in
      (match i with
      | Yield _ | Yield_while _ | Return _ ->
          if not is_last then fail "terminator in the middle of a block"
      | _ -> ());
      check_instr ctx i)
    block;
  (* terminator discipline *)
  let last = if n = 0 then None else Some (List.nth block (n - 1)) in
  match (term, last) with
  | `Yield tys, Some (Yield vs) ->
      if List.length vs <> List.length tys then fail "yield arity mismatch";
      List.iter2 (fun (v : Value.t) ty -> expect_ty "yield" ty v) vs tys
  | `Yield _, _ -> fail "region must end with yield"
  | `Yield_while tys, Some (Yield_while (c, vs)) ->
      expect_ty "while condition" Types.I1 c;
      if List.length vs <> List.length tys then fail "yield_while arity mismatch";
      List.iter2 (fun (v : Value.t) ty -> expect_ty "yield_while" ty v) vs tys
  | `Yield_while _, _ -> fail "while region must end with yield_while"
  | `Return tys, Some (Return vs) ->
      if List.length vs <> List.length tys then fail "return arity mismatch";
      List.iter2 (fun (v : Value.t) ty -> expect_ty "return" ty v) vs tys
  | `Return _, _ -> fail "function body must end with return"
  | `None, Some (Yield _ | Yield_while _ | Return _) -> fail "unexpected terminator"
  | `None, _ -> ()

and check_instr ctx i =
  List.iter (check_visible ctx i) (direct_uses i);
  (match i with
  | Let (res, e) -> check_expr res e
  | Store { mem; idx; v } ->
      if not (Types.is_memref mem.Value.ty) then fail "store to non-memref";
      expect_int "store index" idx;
      expect_ty "store value" (Types.elem mem.Value.ty) v
  | If { cond; results; then_; else_ } ->
      expect_ty "if condition" Types.I1 cond;
      let tys = List.map (fun (v : Value.t) -> v.Value.ty) results in
      check_sub ctx [] ~term:(`Yield tys) then_;
      check_sub ctx [] ~term:(`Yield tys) else_
  | For { iv; lb; ub; step; iter_args; inits; results; body } ->
      expect_int "for lb" lb;
      expect_int "for ub" ub;
      expect_int "for step" step;
      if List.length iter_args <> List.length inits || List.length inits <> List.length results then
        fail "for: iter_args/inits/results arity mismatch";
      List.iter2 (fun (a : Value.t) (init : Value.t) -> expect_ty "for init" a.Value.ty init) iter_args inits;
      let tys = List.map (fun (v : Value.t) -> v.Value.ty) iter_args in
      List.iter2 (fun (r : Value.t) ty -> expect_ty "for result" ty r) results tys;
      check_sub ctx (iv :: iter_args) ~term:(`Yield tys) body
  | While { iter_args; inits; results; body } ->
      if List.length iter_args <> List.length inits || List.length inits <> List.length results then
        fail "while: arity mismatch";
      List.iter2 (fun (a : Value.t) (init : Value.t) -> expect_ty "while init" a.Value.ty init) iter_args inits;
      let tys = List.map (fun (v : Value.t) -> v.Value.ty) iter_args in
      List.iter2 (fun (r : Value.t) ty -> expect_ty "while result" ty r) results tys;
      check_sub ctx iter_args ~term:(`Yield_while tys) body
  | Parallel { pid; level; ivs; ubs; body } ->
      if List.length ivs = 0 || List.length ivs > 3 then fail "parallel must have 1-3 dims";
      if List.length ivs <> List.length ubs then fail "parallel ivs/ubs arity mismatch";
      List.iter (expect_int "parallel ub") ubs;
      (match level with
      | Blocks ->
          if not ctx.in_wrapper then fail "blocks parallel outside gpu_wrapper";
          if List.exists (fun (_, l) -> l = Blocks) ctx.parallels then fail "nested blocks parallels"
      | Threads ->
          if not (List.exists (fun (_, l) -> l = Blocks) ctx.parallels) then
            fail "threads parallel not nested in blocks parallel");
      ctx.parallels <- (pid, level) :: ctx.parallels;
      check_sub ctx ivs ~term:`None body;
      ctx.parallels <- List.tl ctx.parallels
  | Barrier { scope } ->
      if not (List.mem_assoc scope ctx.parallels) then
        fail "barrier scope #%d does not reference an enclosing parallel" scope
  | Alloc_shared _ ->
      if not (List.exists (fun (_, l) -> l = Blocks) ctx.parallels) then
        fail "alloc_shared outside a blocks parallel"
  | Alloc { space; count; _ } ->
      (match space with
      | Types.Shared -> fail "dynamic alloc of shared memory is not supported"
      | Types.Global | Types.Host -> ());
      if ctx.in_wrapper then fail "host alloc inside gpu_wrapper";
      expect_int "alloc count" count
  | Free v -> if not (Types.is_memref v.Value.ty) then fail "free of non-memref"
  | Memcpy { dst; src; count } ->
      if not (Types.is_memref dst.Value.ty && Types.is_memref src.Value.ty) then
        fail "memcpy of non-memref";
      if not (Types.equal (Types.elem dst.Value.ty) (Types.elem src.Value.ty)) then
        fail "memcpy element type mismatch";
      expect_int "memcpy count" count
  | Gpu_wrapper { body; _ } ->
      if ctx.in_wrapper then fail "nested gpu_wrapper";
      let has_blocks =
        List.exists (function Parallel { level = Blocks; _ } | Alternatives _ -> true | _ -> false) body
      in
      if not has_blocks then fail "gpu_wrapper without a blocks parallel";
      ctx.in_wrapper <- true;
      check_sub ctx [] ~term:`None body;
      ctx.in_wrapper <- false
  | Alternatives { regions; descs; _ } ->
      if List.length regions = 0 then fail "alternatives with no regions";
      if List.length regions <> List.length descs then fail "alternatives descs arity mismatch";
      List.iter (fun r -> check_sub ctx [] ~term:`None r) regions
  | Intrinsic _ -> ()
  | Yield _ | Yield_while _ | Return _ -> ());
  List.iter (define ctx) (defs i)

and check_sub ctx args ~term block =
  List.iter (define ctx) args;
  check_block ctx ~term block;
  (* region-local defs must not leak; remove everything the region
     defined from the visible scope *)
  let locally_defined = ref [] in
  iter_deep (fun i -> locally_defined := defs i @ !locally_defined) block;
  List.iter (undefine ctx) !locally_defined;
  List.iter (undefine ctx) args

let func f =
  let ctx =
    { scope = Value.Tbl.create 256; defined = Value.Set.empty; parallels = []; in_wrapper = false }
  in
  List.iter (define ctx) f.params;
  check_block ctx ~term:(`Return f.ret) f.body

let modul m = List.iter func m.funcs

(** [check_exn m] raises [Invalid] with a diagnostic if [m] is
    malformed. *)
let check_exn = modul

let check m = match modul m with () -> Ok () | exception Invalid msg -> Error msg

(** Lowering of mini-CUDA to the parallel IR.

    Host and device code land in a single IR module: kernels are
    inlined at their launch sites as [gpu_wrapper] regions containing
    explicit grid- and thread-level parallel loops (the representation
    of Fig. 5 of the paper), so the optimization pipeline can reason
    about host and device code together.

    Mutable C locals are converted to SSA on the fly: control flow
    yields the final value of every variable assigned inside it
    ([scf]-style region results), and loops carry them as iteration
    arguments. *)

open Pgpu_ir
module SMap = Map.Make (String)

exception Error of string

let err fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

let rec scalar_ty : Ast.ty -> Types.t = function
  | Ast.Tbool -> Types.I1
  | Ast.Tint -> Types.I32
  | Ast.Tlong -> Types.I64
  | Ast.Tfloat -> Types.F32
  | Ast.Tdouble -> Types.F64
  | Ast.Tvoid -> err "void is not a value type"
  | Ast.Tptr t -> ignore (scalar_ty t); err "pointer used as a scalar"

let elem_of_ptr : Ast.ty -> Types.t = function
  | Ast.Tptr t -> scalar_ty t
  | t -> err "expected a pointer type, got %a" Ast.pp_ty t

(** Numeric promotion rank (C-like: int < long < float < double). *)
let rank = function
  | Types.I1 -> 0
  | Types.I32 -> 1
  | Types.I64 -> 2
  | Types.F32 -> 3
  | Types.F64 -> 4
  | Types.Memref _ -> err "memref in arithmetic"

let join a b = if rank a >= rank b then a else b

(* ------------------------------------------------------------------ *)
(* Environments                                                        *)
(* ------------------------------------------------------------------ *)

type binding =
  | Scalar of Value.t  (** current SSA value of a mutable scalar *)
  | Buffer of Value.t  (** 1-D pointer *)
  | Shared_arr of Value.t * int list  (** static array with its dims *)
  | Dim3 of Value.t list
  | Unalloc_ptr of Ast.ty  (** declared pointer awaiting cudaMalloc *)

type env = binding SMap.t

(** Device-side context: set inside a kernel wrapper. *)
type device = {
  kernel : string;  (** the kernel being lowered *)
  thread_pid : int;
  thread_ivs : Value.t list;
  block_ivs : Value.t list;
  block_dims : Value.t list;
  grid_dims : Value.t list;
}

type ctx = {
  prog : Ast.program;
  mutable device : device option;
  mutable launched : string list;  (** kernels lowered at a launch site *)
}

(* ------------------------------------------------------------------ *)
(* AST analyses                                                        *)
(* ------------------------------------------------------------------ *)

(** Names assigned by [stmts], excluding variables declared inside. *)
let assigned_vars (stmts : Ast.stmt list) =
  let module SSet = Set.Make (String) in
  let rec go declared assigned stmts =
    List.fold_left
      (fun (declared, assigned) (s : Ast.stmt) ->
        match s with
        | Ast.Sdecl d -> (SSet.add d.Ast.d_name declared, assigned)
        | Ast.Sdim3 (n, _) -> (SSet.add n declared, assigned)
        | Ast.Sassign (Ast.Lvar v, _) ->
            (declared, if SSet.mem v declared then assigned else SSet.add v assigned)
        | Ast.Sassign (Ast.Lindex _, _) -> (declared, assigned)
        | Ast.Scuda_malloc (v, _) ->
            (declared, if SSet.mem v declared then assigned else SSet.add v assigned)
        | Ast.Sif (_, a, b) ->
            let _, s1 = go declared assigned a in
            let _, s2 = go declared s1 b in
            (declared, s2)
        | Ast.Sfor (init, _, step, body) ->
            let inner = Option.to_list init @ body @ Option.to_list step in
            let _, s1 = go declared assigned inner in
            (declared, s1)
        | Ast.Swhile (_, body) | Ast.Sdo (body, _) ->
            let _, s1 = go declared assigned body in
            (declared, s1)
        | Ast.Sblock body ->
            let _, s1 = go declared assigned body in
            (declared, s1)
        | Ast.Sexpr _ | Ast.Sreturn _ | Ast.Ssync | Ast.Slaunch _ | Ast.Scuda_memcpy _
        | Ast.Scuda_free _ ->
            (declared, assigned))
      (declared, assigned) stmts
  in
  let _, s = go SSet.empty SSet.empty stmts in
  SSet.elements s

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let lookup env name =
  match SMap.find_opt name env with
  | Some b -> b
  | None -> err "unknown variable %s" name

let scalar env name =
  match lookup env name with
  | Scalar v -> v
  | Buffer v | Shared_arr (v, _) -> v
  | Dim3 _ -> err "dim3 %s used as a scalar" name
  | Unalloc_ptr _ -> err "pointer %s used before cudaMalloc" name

let coerce b (ty : Types.t) (v : Value.t) =
  if Types.equal v.Value.ty ty then v else Builder.cast b ty v

(** Coerce to a branch condition (i1, C truthiness). *)
let truthy b (v : Value.t) =
  match v.Value.ty with
  | Types.I1 -> v
  | Types.I32 | Types.I64 ->
      let z = Builder.const_i b ~ty:v.Value.ty 0 in
      Builder.cmp b Ops.Ne v z
  | Types.F32 | Types.F64 ->
      let z = Builder.const_f b ~ty:v.Value.ty 0. in
      Builder.cmp b Ops.Ne v z
  | Types.Memref _ -> err "pointer used as condition"

let binop_of : Ast.binop -> Ops.binop = function
  | Ast.Badd -> Ops.Add
  | Ast.Bsub -> Ops.Sub
  | Ast.Bmul -> Ops.Mul
  | Ast.Bdiv -> Ops.Div
  | Ast.Bmod -> Ops.Rem
  | Ast.Bbitand -> Ops.And
  | Ast.Bbitor -> Ops.Or
  | Ast.Bbitxor -> Ops.Xor
  | Ast.Bshl -> Ops.Shl
  | Ast.Bshr -> Ops.Shr
  | Ast.Blt | Ast.Ble | Ast.Bgt | Ast.Bge | Ast.Beq | Ast.Bne | Ast.Band | Ast.Bor ->
      err "not an arithmetic operator"

let cmpop_of : Ast.binop -> Ops.cmpop = function
  | Ast.Blt -> Ops.Lt
  | Ast.Ble -> Ops.Le
  | Ast.Bgt -> Ops.Gt
  | Ast.Bge -> Ops.Ge
  | Ast.Beq -> Ops.Eq
  | Ast.Bne -> Ops.Ne
  | _ -> err "not a comparison"

(** One-operand math calls: (name, ir op, forced type if any). *)
let unop_calls =
  [
    ("sqrtf", Ops.Sqrt); ("sqrt", Ops.Sqrt);
    ("expf", Ops.Exp); ("exp", Ops.Exp);
    ("logf", Ops.Log); ("log", Ops.Log);
    ("sinf", Ops.Sin); ("sin", Ops.Sin);
    ("cosf", Ops.Cos); ("cos", Ops.Cos);
    ("fabsf", Ops.Abs); ("fabs", Ops.Abs); ("abs", Ops.Abs);
    ("floorf", Ops.Floor); ("floor", Ops.Floor);
    ("ceilf", Ops.Ceil); ("ceil", Ops.Ceil);
    ("rsqrtf", Ops.Rsqrt); ("rsqrt", Ops.Rsqrt);
  ]

let binop_calls =
  [
    ("powf", Ops.Pow); ("pow", Ops.Pow);
    ("fminf", Ops.Min); ("fmin", Ops.Min); ("min", Ops.Min);
    ("fmaxf", Ops.Max); ("fmax", Ops.Max); ("max", Ops.Max);
  ]

let rec lower_expr (ctx : ctx) (b : Builder.t) (env : env) (e : Ast.expr) : Value.t =
  match e with
  | Ast.Eint n -> Builder.const_i b n
  | Ast.Efloat (f, is_double) ->
      Builder.const_f b ~ty:(if is_double then Types.F64 else Types.F32) f
  | Ast.Ebool v -> Builder.const_i b ~ty:Types.I1 (if v then 1 else 0)
  | Ast.Evar v -> scalar env v
  | Ast.Ebuiltin (which, d) -> (
      match ctx.device with
      | None -> err "thread builtins outside a kernel"
      | Some dev -> (
          let nth l d = List.nth_opt l d in
          match which with
          | Ast.Thread_idx -> (
              match nth dev.thread_ivs d with Some v -> v | None -> Builder.const_i b 0)
          | Ast.Block_idx -> (
              match nth dev.block_ivs d with Some v -> v | None -> Builder.const_i b 0)
          | Ast.Block_dim -> (
              match nth dev.block_dims d with Some v -> v | None -> Builder.const_i b 1)
          | Ast.Grid_dim -> (
              match nth dev.grid_dims d with Some v -> v | None -> Builder.const_i b 1)))
  | Ast.Ebin (Ast.Band, x, y) ->
      let vx = truthy b (lower_expr ctx b env x) in
      let r =
        Builder.if_ b vx [ Types.I1 ]
          (fun ib -> [ truthy ib (lower_expr ctx ib env y) ])
          (fun ib -> [ Builder.const_i ib ~ty:Types.I1 0 ])
      in
      List.hd r
  | Ast.Ebin (Ast.Bor, x, y) ->
      let vx = truthy b (lower_expr ctx b env x) in
      let r =
        Builder.if_ b vx [ Types.I1 ]
          (fun ib -> [ Builder.const_i ib ~ty:Types.I1 1 ])
          (fun ib -> [ truthy ib (lower_expr ctx ib env y) ])
      in
      List.hd r
  | Ast.Ebin ((Ast.Blt | Ast.Ble | Ast.Bgt | Ast.Bge | Ast.Beq | Ast.Bne) as op, x, y) ->
      let vx = lower_expr ctx b env x and vy = lower_expr ctx b env y in
      let ty = join vx.Value.ty vy.Value.ty in
      Builder.cmp b (cmpop_of op) (coerce b ty vx) (coerce b ty vy)
  | Ast.Ebin (op, x, y) ->
      let vx = lower_expr ctx b env x and vy = lower_expr ctx b env y in
      let ty = join vx.Value.ty vy.Value.ty in
      (* i1 arithmetic promotes to int *)
      let ty = if Types.equal ty Types.I1 then Types.I32 else ty in
      Builder.binop b (binop_of op) (coerce b ty vx) (coerce b ty vy)
  | Ast.Eun (Ast.Uneg, x) ->
      let vx = lower_expr ctx b env x in
      Builder.let_ b vx.Value.ty (Instr.Unop (Ops.Neg, vx))
  | Ast.Eun (Ast.Unot, x) ->
      let vx = truthy b (lower_expr ctx b env x) in
      let one = Builder.const_i b ~ty:Types.I1 1 in
      Builder.let_ b Types.I1 (Instr.Binop (Ops.Xor, vx, one))
  | Ast.Eun (Ast.Ubitnot, x) ->
      let vx = lower_expr ctx b env x in
      Builder.let_ b vx.Value.ty (Instr.Unop (Ops.Not, vx))
  | Ast.Econd (c, x, y) ->
      let vc = truthy b (lower_expr ctx b env c) in
      let vx = lower_expr ctx b env x and vy = lower_expr ctx b env y in
      let ty = join vx.Value.ty vy.Value.ty in
      Builder.select b vc (coerce b ty vx) (coerce b ty vy)
  | Ast.Ecall (name, [ x ]) when List.mem_assoc name unop_calls ->
      let vx = lower_expr ctx b env x in
      let op = List.assoc name unop_calls in
      let need_float = match op with Ops.Abs -> false | _ -> true in
      let vx =
        if need_float && Types.is_int vx.Value.ty then coerce b Types.F32 vx else vx
      in
      Builder.let_ b vx.Value.ty (Instr.Unop (op, vx))
  | Ast.Ecall (name, [ x; y ]) when List.mem_assoc name binop_calls ->
      let vx = lower_expr ctx b env x and vy = lower_expr ctx b env y in
      let ty = join vx.Value.ty vy.Value.ty in
      let op = List.assoc name binop_calls in
      let ty = if op = Ops.Pow && Types.is_int ty then Types.F32 else ty in
      Builder.binop b op (coerce b ty vx) (coerce b ty vy)
  | Ast.Ecall (name, _) -> err "unknown function %s in expression" name
  | Ast.Eindex (base, idxs) ->
      let mem, idx = lower_index ctx b env base idxs in
      Builder.load b mem idx
  | Ast.Ecast (ty, e) ->
      let v = lower_expr ctx b env e in
      coerce b (scalar_ty ty) v
  | Ast.Esizeof ty -> Builder.const_i b (Types.byte_size (scalar_ty ty))
  | Ast.Eaddr v -> err "&%s outside cudaMalloc" v

(** Resolve an indexed access to (memref, linear index). *)
and lower_index ctx b env (base : Ast.expr) (idxs : Ast.expr list) =
  let vals = List.map (fun e -> coerce b Types.I32 (lower_expr ctx b env e)) idxs in
  match base with
  | Ast.Evar name -> (
      match lookup env name with
      | Buffer mem -> (
          match vals with
          | [ i ] -> (mem, i)
          | _ -> err "pointer %s indexed with %d subscripts" name (List.length vals))
      | Shared_arr (mem, dims) ->
          if List.length dims <> List.length vals then
            err "array %s expects %d subscripts" name (List.length dims);
          let rec linear acc dims vals =
            match (dims, vals) with
            | [], [] -> acc
            | d :: dtl, v :: vtl ->
                let cd = Builder.const_i b d in
                let acc = Builder.mul_ b acc cd in
                let acc = Builder.add_ b acc v in
                linear acc dtl vtl
            | _ -> assert false
          in
          let zero = Builder.const_i b 0 in
          (mem, linear zero dims vals)
      | Scalar _ -> err "scalar %s indexed" name
      | Dim3 _ -> err "dim3 %s indexed" name
      | Unalloc_ptr _ -> err "pointer %s used before cudaMalloc" name)
  | _ -> err "only variables can be indexed"

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

(** Names declared directly in a statement list (for scope
    restriction). *)
let declared_names stmts =
  List.filter_map
    (function
      | Ast.Sdecl d -> Some d.Ast.d_name
      | Ast.Sdim3 (n, _) -> Some n
      | _ -> None)
    stmts

(** Scope exit: keep the outer bindings except for outer names whose
    binding was updated inside (assignments); names declared inside are
    dropped, shadowed outer bindings are restored. *)
let restrict ~(outer : env) ~(inner : env) ~shadowed =
  SMap.mapi
    (fun name b ->
      if List.mem name shadowed then b
      else match SMap.find_opt name inner with Some b' -> b' | None -> b)
    outer

(** The scalar variables of [names] bound in [env]. *)
let carried_scalars env names =
  List.filter_map
    (fun n ->
      match SMap.find_opt n env with Some (Scalar v) -> Some (n, v) | _ -> None)
    names

let rec lower_stmts ctx (b : Builder.t) (env : env) (stmts : Ast.stmt list) : env =
  List.fold_left (fun env s -> lower_stmt ctx b env s) env stmts

and lower_stmt ctx (b : Builder.t) (env : env) (s : Ast.stmt) : env =
  match s with
  | Ast.Sblock body ->
      let inner = lower_stmts ctx b env body in
      restrict ~outer:env ~inner ~shadowed:(declared_names body)
  | Ast.Sdecl { d_shared = true; _ } ->
      (* shared declarations are hoisted to block scope by the kernel
         lowering; at statement position they are no-ops *)
      env
  | Ast.Sdecl { d_ty; d_name; d_dims = []; d_init; d_shared = false } -> (
      match (d_ty, d_init) with
      | Ast.Tptr elt, Some init -> (
          (* pointer initialization: malloc or aliasing *)
          let rec strip = function Ast.Ecast (_, e) -> strip e | e -> e in
          match strip init with
          | Ast.Ecall ("malloc", [ bytes ]) ->
              let count = byte_count ctx b env bytes (scalar_ty elt) in
              let buf = Builder.alloc b ~hint:d_name Types.Host (scalar_ty elt) count in
              SMap.add d_name (Buffer buf) env
          | Ast.Evar src -> (
              match lookup env src with
              | Buffer v -> SMap.add d_name (Buffer v) env
              | _ -> err "pointer %s initialized from non-pointer %s" d_name src)
          | _ -> err "unsupported pointer initializer for %s" d_name)
      | Ast.Tptr _, None -> SMap.add d_name (Unalloc_ptr d_ty) env
      | _, Some init ->
          let ty = scalar_ty d_ty in
          let v = coerce b ty (lower_expr ctx b env init) in
          SMap.add d_name (Scalar v) env
      | _, None ->
          let ty = scalar_ty d_ty in
          let v =
            if Types.is_float ty then Builder.const_f b ~ty 0. else Builder.const_i b ~ty 0
          in
          SMap.add d_name (Scalar v) env)
  | Ast.Sdecl { d_dims = _ :: _; d_shared = false; d_name; _ } ->
      err "local arrays (%s) are only supported as __shared__" d_name
  | Ast.Sdim3 (name, comps) ->
      let vals = List.map (fun e -> coerce b Types.I32 (lower_expr ctx b env e)) comps in
      SMap.add name (Dim3 vals) env
  | Ast.Sassign (Ast.Lvar v, rhs) -> (
      match lookup env v with
      | Scalar old ->
          let rv = coerce b old.Value.ty (lower_expr ctx b env rhs) in
          SMap.add v (Scalar rv) env
      | Buffer _ | Shared_arr _ | Unalloc_ptr _ -> err "reassigning pointer %s is not supported" v
      | Dim3 _ -> err "reassigning dim3 %s is not supported" v)
  | Ast.Sassign (Ast.Lindex (base, idxs), rhs) ->
      let mem, idx = lower_index ctx b env base idxs in
      let elt = Types.elem mem.Value.ty in
      let rv = coerce b elt (lower_expr ctx b env rhs) in
      Builder.store b mem idx rv;
      env
  | Ast.Sexpr (Ast.Ecall (name, args))
    when List.mem name
           [ "fill_rand"; "fill_rand_range"; "fill_int_rand"; "fill_const"; "fill_seq";
             "print_i32"; "print_f32" ] ->
      let vals = List.map (lower_expr ctx b env) args in
      ignore (Builder.intrinsic b name [] vals);
      env
  | Ast.Sexpr e ->
      ignore (lower_expr ctx b env e);
      env
  | Ast.Sif (c, then_, else_) -> lower_if ctx b env c then_ else_
  | Ast.Sfor (init, cond, step, body) -> lower_for ctx b env init cond step body
  | Ast.Swhile (c, body) ->
      (* while (c) b  ==  if (c) do b while (c) *)
      lower_if ctx b env c [ Ast.Sdo (body, c) ] []
  | Ast.Sdo (body, c) -> lower_do ctx b env body c
  | Ast.Ssync -> (
      match ctx.device with
      | Some dev ->
          Builder.barrier b dev.thread_pid;
          env
      | None -> err "__syncthreads outside a kernel")
  | Ast.Sreturn _ -> err "return is only supported as the last statement of a host function"
  | Ast.Scuda_malloc (name, bytes) -> (
      match lookup env name with
      | Unalloc_ptr (Ast.Tptr elt) ->
          let count = byte_count ctx b env bytes (scalar_ty elt) in
          let buf = Builder.alloc b ~hint:name Types.Global (scalar_ty elt) count in
          SMap.add name (Buffer buf) env
      | Buffer _ -> err "cudaMalloc on already-allocated pointer %s" name
      | _ -> err "cudaMalloc target %s is not a declared pointer" name)
  | Ast.Scuda_memcpy { dst; src; bytes } ->
      let vd = lower_expr ctx b env dst and vs = lower_expr ctx b env src in
      if not (Types.is_memref vd.Value.ty && Types.is_memref vs.Value.ty) then
        err "cudaMemcpy expects pointers";
      let count = byte_count ctx b env bytes (Types.elem vd.Value.ty) in
      Builder.add b (Instr.Memcpy { dst = vd; src = vs; count });
      env
  | Ast.Scuda_free p ->
      let v = lower_expr ctx b env p in
      Builder.add b (Instr.Free v);
      env
  | Ast.Slaunch _ as l -> lower_launch ctx b env l

(** Lower a byte-size expression (e.g. [n * sizeof(float)]) to an
    element count for buffers of [elt]. *)
and byte_count ctx b env bytes elt =
  let vb = coerce b Types.I32 (lower_expr ctx b env bytes) in
  let es = Builder.const_i b (Types.byte_size elt) in
  Builder.div_ b vb es

and lower_if ctx b env c then_ else_ : env =
  let vc = truthy b (lower_expr ctx b env c) in
  let assigned = assigned_vars (then_ @ else_) in
  let vars = carried_scalars env assigned in
  let lower_branch stmts =
    let ib = Builder.create () in
    let inner = lower_stmts ctx ib env stmts in
    let inner = restrict ~outer:env ~inner ~shadowed:(declared_names stmts) in
    (ib, inner)
  in
  let tb, tenv = lower_branch then_ in
  let eb, eenv = lower_branch else_ in
  let tys =
    List.map
      (fun (n, _) ->
        let tv = match SMap.find n tenv with Scalar v -> v | _ -> err "binding changed kind" in
        let ev = match SMap.find n eenv with Scalar v -> v | _ -> err "binding changed kind" in
        join tv.Value.ty ev.Value.ty)
      vars
  in
  let finish_branch ib benv =
    let yields =
      List.map2
        (fun (n, _) ty ->
          match SMap.find n benv with
          | Scalar v -> coerce ib ty v
          | _ -> err "binding changed kind")
        vars tys
    in
    Builder.add ib (Instr.Yield yields);
    Builder.finish ib
  in
  let then_blk = finish_branch tb tenv in
  let else_blk = finish_branch eb eenv in
  let results = List.map (fun ty -> Value.fresh ty) tys in
  Builder.add b (Instr.If { cond = vc; results; then_ = then_blk; else_ = else_blk });
  List.fold_left2 (fun env (n, _) r -> SMap.add n (Scalar r) env) env vars results

(** The canonical counted loop: [for (T i = e0; i <(=) e1; i += k)]
    with the induction variable not otherwise assigned. *)
and counted_loop init cond step body =
  match (init, cond, step) with
  | ( Some (Ast.Sdecl { d_name = i; d_init = Some e0; d_dims = []; d_shared = false; _ }),
      Some (Ast.Ebin ((Ast.Blt | Ast.Ble) as cmp, Ast.Evar i', e1)),
      Some (Ast.Sassign (Ast.Lvar i'', Ast.Ebin (Ast.Badd, Ast.Evar i''', Ast.Eint k))) )
    when String.equal i i' && String.equal i i'' && String.equal i i''' && k > 0
         && not (List.mem i (assigned_vars body)) ->
      Some (i, e0, cmp, e1, k)
  | _ -> None

and lower_for ctx b env init cond step body : env =
  match counted_loop init cond step body with
  | Some (i, e0, cmp, e1, k) ->
      let lb = coerce b Types.I32 (lower_expr ctx b env e0) in
      let ub0 = coerce b Types.I32 (lower_expr ctx b env e1) in
      let ub =
        match cmp with
        | Ast.Ble ->
            let one = Builder.const_i b 1 in
            Builder.add_ b ub0 one
        | _ -> ub0
      in
      let stepv = Builder.const_i b k in
      let carried = carried_scalars env (assigned_vars body) in
      let inits = List.map snd carried in
      let iv = Value.fresh ~hint:i Types.I32 in
      let iter_args = List.map (fun (n, v) -> Value.fresh ~hint:n v.Value.ty) carried in
      let env_body =
        List.fold_left2
          (fun e (n, _) a -> SMap.add n (Scalar a) e)
          (SMap.add i (Scalar iv) env)
          carried iter_args
      in
      let ib = Builder.create () in
      let inner = lower_stmts ctx ib env_body body in
      let inner = restrict ~outer:env_body ~inner ~shadowed:(declared_names body) in
      let yields =
        List.map
          (fun (n, v) ->
            match SMap.find n inner with
            | Scalar nv -> coerce ib v.Value.ty nv
            | _ -> err "binding changed kind")
          carried
      in
      Builder.add ib (Instr.Yield yields);
      let results = List.map (fun (n, v) -> Value.fresh ~hint:n v.Value.ty) carried in
      Builder.add b
        (Instr.For
           {
             iv;
             lb;
             ub;
             step = stepv;
             iter_args;
             inits;
             results;
             body = Builder.finish ib;
           });
      List.fold_left2 (fun env (n, _) r -> SMap.add n (Scalar r) env) env carried results
  | None -> (
      (* general shape: init; if (cond) do { body; step } while (cond) *)
      match init with
      | None ->
          let cond = Option.value cond ~default:(Ast.Ebool true) in
          let body' = body @ Option.to_list step in
          lower_if ctx b env cond [ Ast.Sdo (body', cond) ] []
      | Some ini ->
          let cond = Option.value cond ~default:(Ast.Ebool true) in
          let body' = body @ Option.to_list step in
          let scoped = [ ini; Ast.Sif (cond, [ Ast.Sdo (body', cond) ], []) ] in
          let inner = lower_stmts ctx b env scoped in
          restrict ~outer:env ~inner ~shadowed:(declared_names [ ini ]))

and lower_do ctx b env body c : env =
  let carried = carried_scalars env (assigned_vars body) in
  let inits = List.map snd carried in
  let iter_args = List.map (fun (n, v) -> Value.fresh ~hint:n v.Value.ty) carried in
  let env_body =
    List.fold_left2 (fun e (n, _) a -> SMap.add n (Scalar a) e) env carried iter_args
  in
  let ib = Builder.create () in
  let inner = lower_stmts ctx ib env_body body in
  let inner = restrict ~outer:env_body ~inner ~shadowed:(declared_names body) in
  let vc = truthy ib (lower_expr ctx ib inner c) in
  let yields =
    List.map
      (fun (n, v) ->
        match SMap.find n inner with
        | Scalar nv -> coerce ib v.Value.ty nv
        | _ -> err "binding changed kind")
      carried
  in
  Builder.add ib (Instr.Yield_while (vc, yields));
  let results = List.map (fun (n, v) -> Value.fresh ~hint:n v.Value.ty) carried in
  Builder.add b (Instr.While { iter_args; inits; results; body = Builder.finish ib });
  List.fold_left2 (fun env (n, _) r -> SMap.add n (Scalar r) env) env carried results

(* ------------------------------------------------------------------ *)
(* Kernels and launches                                                *)
(* ------------------------------------------------------------------ *)

(** Rewrite early returns in a kernel body into guards:
    [if (c) return; rest] becomes [if (!c) rest], and
    [if (c) { ...; return; } rest] becomes [if (c) {...} else rest]. *)
and eliminate_returns (stmts : Ast.stmt list) : Ast.stmt list =
  match stmts with
  | [] -> []
  | Ast.Sif (c, [ Ast.Sreturn None ], []) :: rest ->
      [ Ast.Sif (Ast.Eun (Ast.Unot, c), eliminate_returns rest, []) ]
  | Ast.Sif (c, then_, []) :: rest
    when (match List.rev then_ with Ast.Sreturn None :: _ -> true | _ -> false) ->
      let then' = List.rev (List.tl (List.rev then_)) in
      [ Ast.Sif (c, eliminate_returns then', eliminate_returns rest) ]
  | [ Ast.Sreturn None ] -> []
  | Ast.Sreturn _ :: _ -> err "unsupported return placement in kernel"
  | Ast.Sblock body :: rest -> Ast.Sblock (eliminate_returns body) :: eliminate_returns rest
  | s :: rest -> s :: eliminate_returns rest

(** Collect all shared declarations of a kernel body (they are hoisted
    to block scope). *)
and shared_decls stmts =
  List.concat_map
    (fun (s : Ast.stmt) ->
      match s with
      | Ast.Sdecl ({ d_shared = true; _ } as d) -> [ d ]
      | Ast.Sif (_, a, bl) -> shared_decls a @ shared_decls bl
      | Ast.Sfor (_, _, _, body) | Ast.Swhile (_, body) | Ast.Sdo (body, _) | Ast.Sblock body ->
          shared_decls body
      | _ -> [])
    stmts

and lower_launch ctx (b : Builder.t) (env : env) (l : Ast.stmt) : env =
  match l with
  | Ast.Slaunch { kernel; grid; block; args } ->
      (* a launch from device code (dynamic parallelism) has no IR form *)
      Option.iter
        (fun dev ->
          err "kernel %s launches kernel %s: kernels cannot launch kernels" dev.kernel kernel)
        ctx.device;
      let f = Ast.find_func ctx.prog kernel in
      if f.Ast.f_kind <> Ast.Kernel then err "%s is not a __global__ kernel" kernel;
      if List.length f.Ast.f_params <> List.length args then
        err "kernel %s expects %d arguments" kernel (List.length f.Ast.f_params);
      let resolve_dims = function
        | [ Ast.Evar v ] when (match SMap.find_opt v env with Some (Dim3 _) -> true | _ -> false)
          -> (
            match SMap.find v env with Dim3 vals -> vals | _ -> assert false)
        | es -> List.map (fun e -> coerce b Types.I32 (lower_expr ctx b env e)) es
      in
      let grid_dims = resolve_dims grid in
      let block_dims = resolve_dims block in
      let arg_vals = List.map (lower_expr ctx b env) args in
      (* kernel scope: parameters only *)
      let kenv =
        List.fold_left2
          (fun e (p : Ast.param) v ->
            match p.Ast.p_ty with
            | Ast.Tptr elt ->
                if not (Types.is_memref v.Value.ty) then
                  err "kernel %s: argument %s must be a device pointer" kernel p.Ast.p_name;
                if not (Types.equal (Types.elem v.Value.ty) (scalar_ty elt)) then
                  err "kernel %s: pointer element mismatch for %s" kernel p.Ast.p_name;
                SMap.add p.Ast.p_name (Buffer v) e
            | ty -> SMap.add p.Ast.p_name (Scalar (coerce b (scalar_ty ty) v)) e)
          SMap.empty f.Ast.f_params arg_vals
      in
      ctx.launched <- kernel :: ctx.launched;
      lower_kernel ctx b f ~grid_dims ~block_dims kenv;
      env
  | _ -> assert false

(** The [gpu_wrapper] of kernel [f] over [grid_dims] x [block_dims],
    its parameters bound in [kenv]. *)
and lower_kernel ctx b (f : Ast.func) ~grid_dims ~block_dims kenv =
  let body_ast = eliminate_returns f.Ast.f_body in
  let shared = shared_decls body_ast in
  Builder.gpu_wrapper b f.Ast.f_name (fun wb ->
      ignore
        (Builder.parallel wb Instr.Blocks grid_dims (fun bb _bpid bivs ->
             (* shared memory at block scope *)
             let kenv =
               List.fold_left
                 (fun e (d : Ast.decl) ->
                   let elt = scalar_ty d.Ast.d_ty in
                   let size = List.fold_left ( * ) 1 d.Ast.d_dims in
                   if size <= 0 then err "shared array %s has empty dims" d.Ast.d_name;
                   let buf = Builder.alloc_shared bb ~hint:d.Ast.d_name elt size in
                   SMap.add d.Ast.d_name (Shared_arr (buf, d.Ast.d_dims)) e)
                 kenv shared
             in
             ignore
               (Builder.parallel bb Instr.Threads block_dims (fun tb tpid tivs ->
                    let saved = ctx.device in
                    ctx.device <-
                      Some
                        {
                          kernel = f.Ast.f_name;
                          thread_pid = tpid;
                          thread_ivs = tivs;
                          block_ivs = bivs;
                          block_dims;
                          grid_dims;
                        };
                    ignore (lower_stmts ctx tb kenv body_ast);
                    ctx.device <- saved)))))

(* ------------------------------------------------------------------ *)
(* Functions and programs                                              *)
(* ------------------------------------------------------------------ *)

let lower_host_func ctx (f : Ast.func) : Instr.func =
  let params =
    List.map
      (fun (p : Ast.param) ->
        match p.Ast.p_ty with
        | Ast.Tptr elt -> Value.fresh ~hint:p.Ast.p_name (Types.Memref (Types.Host, scalar_ty elt))
        | ty -> Value.fresh ~hint:p.Ast.p_name (scalar_ty ty))
      f.Ast.f_params
  in
  let env =
    List.fold_left2
      (fun e (p : Ast.param) v ->
        match p.Ast.p_ty with
        | Ast.Tptr _ -> SMap.add p.Ast.p_name (Buffer v) e
        | _ -> SMap.add p.Ast.p_name (Scalar v) e)
      SMap.empty f.Ast.f_params params
  in
  let b = Builder.create () in
  let body, final_return =
    match List.rev f.Ast.f_body with
    | Ast.Sreturn e :: prefix -> (List.rev prefix, e)
    | _ -> (f.Ast.f_body, None)
  in
  let env = lower_stmts ctx b env body in
  let ret_tys, ret_vals =
    match (f.Ast.f_ret, final_return) with
    | Ast.Tvoid, None -> ([], [])
    | Ast.Tvoid, Some _ -> err "void function %s returns a value" f.Ast.f_name
    | Ast.Tptr elt, Some e ->
        let v = lower_expr ctx b env e in
        if not (Types.is_memref v.Value.ty) then err "%s must return a pointer" f.Ast.f_name;
        ignore elt;
        ([ v.Value.ty ], [ v ])
    | ty, Some e ->
        let v = coerce b (scalar_ty ty) (lower_expr ctx b env e) in
        ([ v.Value.ty ], [ v ])
    | _, None -> err "function %s must end with a return" f.Ast.f_name
  in
  Builder.return b ret_vals;
  { Instr.fname = f.Ast.f_name; params; ret = ret_tys; body = Builder.finish b }

(** Lower kernel [f], which no launch reaches, over a 1-D grid and
    block of unknown extent into a builder that is then dropped: the
    kernel gets the source errors a launch of it would. *)
let check_unlaunched ctx (f : Ast.func) =
  let kenv =
    List.fold_left
      (fun e (p : Ast.param) ->
        let v ty = Value.fresh ~hint:p.Ast.p_name ty in
        match p.Ast.p_ty with
        | Ast.Tptr elt ->
            SMap.add p.Ast.p_name (Buffer (v (Types.Memref (Types.Global, scalar_ty elt)))) e
        | ty -> SMap.add p.Ast.p_name (Scalar (v (scalar_ty ty))) e)
      SMap.empty f.Ast.f_params
  in
  let extent () = [ Value.fresh ~hint:"n" Types.I32 ] in
  lower_kernel ctx (Builder.create ()) f ~grid_dims:(extent ()) ~block_dims:(extent ()) kenv

(** Lower a mini-CUDA program to an IR module. Kernels are inlined at
    their launch sites; only host functions appear in the module. A
    kernel no launch reaches is checked by [check_unlaunched]. *)
let lower_program (p : Ast.program) : Instr.modul =
  let ctx = { prog = p; device = None; launched = [] } in
  let hosts = List.filter (fun (f : Ast.func) -> f.Ast.f_kind = Ast.Host) p.Ast.funcs in
  let funcs = List.map (lower_host_func ctx) hosts in
  List.iter
    (fun (f : Ast.func) ->
      if f.Ast.f_kind = Ast.Kernel && not (List.mem f.Ast.f_name ctx.launched) then
        check_unlaunched ctx f)
    p.Ast.funcs;
  { Instr.funcs }

(** The tree-walking reference interpreter: the oracle the differential
    tests compare the compiled engine ({!Pgpu_gpusim.Compile}) against.

    One GPU block is interpreted with *all its threads at once*: every
    SSA value inside the thread-level parallel is either uniform or a
    per-lane array in a hashtable environment, and divergent control
    flow is handled with lane masks. It drives the same machine, masks
    and counting ({!Exec.count_op}) as the compiled engine, and runs
    under the same grid loop ({!Exec.run_grid}) through {!runner}, but
    models memory instructions with its own reference request model
    ({!Reference_memory.requests}), so the two must agree on outputs,
    every counter and every simulated time, bit for bit, through two
    request models. It is written for obviousness, not speed. *)

open Pgpu_ir
open Pgpu_gpusim
open Exec

(* ------------------------------------------------------------------ *)
(* Environment                                                         *)
(* ------------------------------------------------------------------ *)

(** Kernel-internal values, per-lane vectors included, live in a
    table of the interpreter's own, layered over the product env that
    holds the host's values: a lookup that misses the table reads the
    product env, and a bind writes only the table. *)
type env = { local : (int, rv) Hashtbl.t; host : Exec.env }

let lookup env (v : Value.t) =
  match Hashtbl.find_opt env.local v.Value.id with Some rv -> rv | None -> Exec.lookup env.host v

let bind env (v : Value.t) rv = Hashtbl.replace env.local v.Value.id rv

(* ------------------------------------------------------------------ *)
(* Value conversions                                                   *)
(* ------------------------------------------------------------------ *)

let is_uniform = function UI _ | UF _ | UB _ -> true | VI _ | VF _ | VB _ -> false

let to_vi n = function
  | UI x -> Array.make n x
  | VI a -> a
  | UF x -> Array.make n (int_of_float x)
  | VF a -> Array.map int_of_float a
  | UB _ | VB _ -> invalid_arg "exec: buffer used as integer"

let to_vf n = function
  | UF x -> Array.make n x
  | VF a -> a
  | UI x -> Array.make n (float_of_int x)
  | VI a -> Array.map float_of_int a
  | UB _ | VB _ -> invalid_arg "exec: buffer used as float"

let to_vb n = function
  | UB b -> Array.make n b
  | VB a -> a
  | UI _ | UF _ | VI _ | VF _ -> invalid_arg "exec: expected buffer"

(* ------------------------------------------------------------------ *)
(* Lane masks                                                          *)
(* ------------------------------------------------------------------ *)

(** A lane mask as the oracle keeps it: one boolean per lane, and the
    {!Exec.mask} that counting reads, built from the booleans by
    {!Exec.mask_of_bits} — a construction the engine, which splits and
    filters its parent's list, never uses. *)
type bmask = { bits : bool array; em : Exec.mask }

let bmask ctx bits = { bits; em = mask_of_bits ctx bits }
let full ctx = bmask ctx (Array.make ctx.nlanes true)

(* ------------------------------------------------------------------ *)
(* Memory access                                                       *)
(* ------------------------------------------------------------------ *)

(** Masked vector memory access. Computes per-lane addresses, performs
    the functional load/store, records shared accesses for the race
    detector, and models the instruction through
    {!Reference_memory.requests}. *)
let vec_access ctx (mask : bmask) ~is_store (bufs : Memory.buf array) (idxs : int array)
    (write : int -> Memory.buf -> int -> unit) =
  let addrs = Array.make ctx.nlanes 0 in
  for l = 0 to ctx.nlanes - 1 do
    if mask.bits.(l) then begin
      let b = bufs.(l) in
      Memory.check_bounds b idxs.(l);
      addrs.(l) <- Memory.addr b idxs.(l);
      write l b idxs.(l)
    end
  done;
  (match ctx.m.racecheck with
  | None -> ()
  | Some rc ->
      for l = 0 to ctx.nlanes - 1 do
        if mask.bits.(l) && bufs.(l).Memory.space = Types.Shared then
          Racecheck.record rc ~is_store ~lane:l ~addr:addrs.(l)
      done);
  let space =
    (* all lanes access the same address space in well-typed IR *)
    let rec first l = if l >= ctx.nlanes then Types.Global else if mask.bits.(l) then bufs.(l).Memory.space else first (l + 1) in
    first 0
  in
  let effective_space =
    match space with
    | Types.Shared when ctx.m.shared_as_global -> Types.Global
    | s -> s
  in
  Reference_memory.requests ctx ~is_store effective_space addrs mask.bits

(* ------------------------------------------------------------------ *)
(* Expression evaluation                                               *)
(* ------------------------------------------------------------------ *)

let eval_expr ctx env (mask : bmask) (res : Value.t) (e : Instr.expr) : rv =
  let n = ctx.nlanes in
  let ty = res.Value.ty in
  match e with
  | Instr.Const (Instr.Ci x) -> UI x
  | Instr.Const (Instr.Cf x) -> UF x
  | Instr.Binop (op, a, b) -> (
      count_op ctx mask.em (class_of_binop ty op);
      let ra = lookup env a and rb = lookup env b in
      if Types.is_float ty then
        (* mixed uniform/varying fast paths avoid broadcasting *)
        match (ra, rb) with
        | VF va, VF vb -> VF (Array.init n (fun l -> Ops.eval_float_binop op va.(l) vb.(l)))
        | VF va, (UF _ | UI _) ->
            let y = uf_of rb in
            VF (Array.init n (fun l -> Ops.eval_float_binop op va.(l) y))
        | (UF _ | UI _), VF vb ->
            let x = uf_of ra in
            VF (Array.init n (fun l -> Ops.eval_float_binop op x vb.(l)))
        | _ ->
            if is_uniform ra && is_uniform rb then
              UF (Ops.eval_float_binop op (uf_of ra) (uf_of rb))
            else
              let va = to_vf n ra and vb = to_vf n rb in
              VF (Array.init n (fun l -> Ops.eval_float_binop op va.(l) vb.(l)))
      else
        match (ra, rb) with
        | VI va, VI vb -> VI (Array.init n (fun l -> Ops.eval_int_binop op va.(l) vb.(l)))
        | VI va, (UI _ | UF _) ->
            let y = ui_of rb in
            VI (Array.init n (fun l -> Ops.eval_int_binop op va.(l) y))
        | (UI _ | UF _), VI vb ->
            let x = ui_of ra in
            VI (Array.init n (fun l -> Ops.eval_int_binop op x vb.(l)))
        | _ ->
            if is_uniform ra && is_uniform rb then UI (Ops.eval_int_binop op (ui_of ra) (ui_of rb))
            else
              let va = to_vi n ra and vb = to_vi n rb in
              VI (Array.init n (fun l -> Ops.eval_int_binop op va.(l) vb.(l))))
  | Instr.Unop (op, a) ->
      count_op ctx mask.em (class_of_unop ty op);
      let ra = lookup env a in
      if Types.is_float ty then
        if is_uniform ra then UF (Ops.eval_float_unop op (uf_of ra))
        else VF (Array.map (Ops.eval_float_unop op) (to_vf n ra))
      else if is_uniform ra then UI (Ops.eval_int_unop op (ui_of ra))
      else VI (Array.map (Ops.eval_int_unop op) (to_vi n ra))
  | Instr.Cmp (op, a, b) ->
      count_op ctx mask.em Cint;
      let ra = lookup env a and rb = lookup env b in
      let fl = Types.is_float a.Value.ty in
      if is_uniform ra && is_uniform rb then
        UI
          (if fl then if Ops.eval_float_cmp op (uf_of ra) (uf_of rb) then 1 else 0
           else if Ops.eval_int_cmp op (ui_of ra) (ui_of rb) then 1
           else 0)
      else if fl then
        let va = to_vf n ra and vb = to_vf n rb in
        VI (Array.init n (fun l -> if Ops.eval_float_cmp op va.(l) vb.(l) then 1 else 0))
      else (
        match (ra, rb) with
        | VI va, (UI _ | UF _) ->
            let y = ui_of rb in
            VI (Array.init n (fun l -> if Ops.eval_int_cmp op va.(l) y then 1 else 0))
        | (UI _ | UF _), VI vb ->
            let x = ui_of ra in
            VI (Array.init n (fun l -> if Ops.eval_int_cmp op x vb.(l) then 1 else 0))
        | _ ->
            let va = to_vi n ra and vb = to_vi n rb in
            VI (Array.init n (fun l -> if Ops.eval_int_cmp op va.(l) vb.(l) then 1 else 0)))
  | Instr.Select (c, a, b) ->
      count_op ctx mask.em Cint;
      let rc = lookup env c and ra = lookup env a and rb = lookup env b in
      if is_uniform rc then if ui_of rc <> 0 then ra else rb
      else
        let vc = to_vi n rc in
        if Types.is_float ty then
          let va = to_vf n ra and vb = to_vf n rb in
          VF (Array.init n (fun l -> if vc.(l) <> 0 then va.(l) else vb.(l)))
        else if Types.is_memref ty then
          let va = to_vb n ra and vb = to_vb n rb in
          VB (Array.init n (fun l -> if vc.(l) <> 0 then va.(l) else vb.(l)))
        else
          let va = to_vi n ra and vb = to_vi n rb in
          VI (Array.init n (fun l -> if vc.(l) <> 0 then va.(l) else vb.(l)))
  | Instr.Cast a ->
      count_op ctx mask.em Cint;
      let ra = lookup env a in
      if Types.is_float ty then
        if is_uniform ra then UF (uf_of ra) else VF (to_vf n ra)
      else if is_uniform ra then UI (ui_of ra)
      else VI (to_vi n ra)
  | Instr.Load { mem; idx } ->
      let bufs = to_vb n (lookup env mem) and idxs = to_vi n (lookup env idx) in
      (match ctx.m.racecheck with
      | None -> ()
      | Some rc -> Racecheck.set_op rc (Fmt.str "load %a" Value.pp mem));
      if Types.is_float (Types.elem mem.Value.ty) then begin
        let out = Array.make n 0. in
        vec_access ctx mask ~is_store:false bufs idxs (fun l b i -> out.(l) <- Memory.get_f b i);
        if n = 1 then UF out.(0) else VF out
      end
      else begin
        let out = Array.make n 0 in
        vec_access ctx mask ~is_store:false bufs idxs (fun l b i -> out.(l) <- Memory.get_i b i);
        if n = 1 then UI out.(0) else VI out
      end

(** Merge per-lane values from two divergent branches:
    lanes where [cbits] is true take [t], others take [e]. *)
let merge_branch ctx cbits (ty : Types.t) (t : rv option) (e : rv option) : rv =
  let n = ctx.nlanes in
  match (t, e) with
  | Some t, None -> t
  | None, Some e -> e
  | None, None -> if Types.is_float ty then UF 0. else UI 0
  | Some t, Some e ->
      if Types.is_float ty then
        let vt = to_vf n t and ve = to_vf n e in
        VF (Array.init n (fun l -> if cbits.(l) then vt.(l) else ve.(l)))
      else if Types.is_memref ty then
        let vt = to_vb n t and ve = to_vb n e in
        VB (Array.init n (fun l -> if cbits.(l) then vt.(l) else ve.(l)))
      else
        let vt = to_vi n t and ve = to_vi n e in
        VI (Array.init n (fun l -> if cbits.(l) then vt.(l) else ve.(l)))

(** Merge loop-carried values: lanes active in [bits] take [next],
    inactive lanes keep [old]. *)
let merge_masked ctx (bits : bool array) (ty : Types.t) ~(next : rv) ~(old : rv) : rv =
  let n = ctx.nlanes in
  if Array.for_all Fun.id bits then next
  else if Types.is_float ty then
    let vn = to_vf n next and vo = to_vf n old in
    VF (Array.init n (fun l -> if bits.(l) then vn.(l) else vo.(l)))
  else if Types.is_memref ty then
    let vn = to_vb n next and vo = to_vb n old in
    VB (Array.init n (fun l -> if bits.(l) then vn.(l) else vo.(l)))
  else
    let vn = to_vi n next and vo = to_vi n old in
    VI (Array.init n (fun l -> if bits.(l) then vn.(l) else vo.(l)))

(* ------------------------------------------------------------------ *)
(* Block execution                                                     *)
(* ------------------------------------------------------------------ *)

type terminator = T_none | T_yield of rv list | T_yield_while of rv * rv list

(** Execute a block under [mask]; returns the terminator data. *)
let rec exec_block ctx env (mask : bmask) (block : Instr.block) : terminator =
  let term = ref T_none in
  List.iter
    (fun i ->
      match i with
      | Instr.Yield vs -> term := T_yield (List.map (lookup env) vs)
      | Instr.Yield_while (c, vs) -> term := T_yield_while (lookup env c, List.map (lookup env) vs)
      | Instr.Return _ -> device_fail "return inside device code"
      | _ -> exec_instr ctx env mask i)
    block;
  !term

and exec_instr ctx env (mask : bmask) (i : Instr.instr) : unit =
  let n = ctx.nlanes in
  match i with
  | Instr.Let (v, e) -> bind env v (eval_expr ctx env mask v e)
  | Instr.Store { mem; idx; v } ->
      let bufs = to_vb n (lookup env mem) and idxs = to_vi n (lookup env idx) in
      (match ctx.m.racecheck with
      | None -> ()
      | Some rc -> Racecheck.set_op rc (Fmt.str "store %a" Value.pp mem));
      let rv = lookup env v in
      if Types.is_float (Types.elem mem.Value.ty) then
        let vals = to_vf n rv in
        vec_access ctx mask ~is_store:true bufs idxs (fun l b i -> Memory.set_f b i vals.(l))
      else
        let vals = to_vi n rv in
        vec_access ctx mask ~is_store:true bufs idxs (fun l b i -> Memory.set_i b i vals.(l))
  | Instr.If { cond; results; then_; else_ } -> (
      let rc = lookup env cond in
      (* branching costs one instruction *)
      count_op ctx mask.em Cint;
      if is_uniform rc then begin
        let branch = if ui_of rc <> 0 then then_ else else_ in
        match exec_block ctx env mask branch with
        | T_yield vs -> List.iter2 (bind env) results vs
        | T_none when results = [] -> ()
        | T_none | T_yield_while _ -> device_fail "malformed if region"
      end
      else begin
        let vc = to_vi n rc in
        let tb = Array.init n (fun l -> mask.bits.(l) && vc.(l) <> 0) in
        let eb = Array.init n (fun l -> mask.bits.(l) && vc.(l) = 0) in
        let tm = bmask ctx tb and em = bmask ctx eb in
        (* count warps that execute both sides *)
        let nwarps = Pgpu_support.Util.ceil_div n ctx.ws in
        for w = 0 to nwarps - 1 do
          let lo = w * ctx.ws and hi = Int.min ((w + 1) * ctx.ws) n in
          let both = ref (false, false) in
          for l = lo to hi - 1 do
            let t, e = !both in
            both := (t || tb.(l), e || eb.(l))
          done;
          if fst !both && snd !both then
            ctx.m.counters.Counters.divergent_branches <-
              ctx.m.counters.Counters.divergent_branches +. 1.
        done;
        let run m blk =
          if m.em.active = 0 then None
          else
            match exec_block ctx env m blk with
            | T_yield vs -> Some vs
            | T_none -> Some []
            | T_yield_while _ -> device_fail "malformed if region"
        in
        let tvs = run tm then_ and evs = run em else_ in
        List.iteri
          (fun k (r : Value.t) ->
            let pick = Option.map (fun vs -> List.nth vs k) in
            bind env r (merge_branch ctx tb r.Value.ty (pick tvs) (pick evs)))
          results
      end)
  | Instr.For { iv; lb; ub; step; iter_args; inits; results; body } -> (
      let rlb = lookup env lb and rub = lookup env ub and rstep = lookup env step in
      if is_uniform rlb && is_uniform rub && is_uniform rstep then begin
        let l0 = ui_of rlb and u = ui_of rub and s = ui_of rstep in
        if s <= 0 then device_fail "for loop with non-positive step";
        List.iter2 (bind env) iter_args (List.map (lookup env) inits);
        let k = ref l0 in
        while !k < u do
          bind env iv (UI !k);
          count_op ctx mask.em Cint;
          count_op ctx mask.em Cint;
          (match exec_block ctx env mask body with
          | T_yield vs -> List.iter2 (bind env) iter_args vs
          | T_none | T_yield_while _ -> device_fail "malformed for region");
          k := !k + s
        done;
        List.iter2 (fun r a -> bind env r (lookup env a)) results iter_args
      end
      else begin
        (* per-lane trip counts *)
        let vlb = to_vi n rlb and vub = to_vi n rub and vstep = to_vi n rstep in
        let ivv = Array.copy vlb in
        List.iter2 (bind env) iter_args (List.map (lookup env) inits);
        let continue_ = ref true in
        while !continue_ do
          let bits = Array.init n (fun l -> mask.bits.(l) && ivv.(l) < vub.(l)) in
          let am = bmask ctx bits in
          if am.em.active = 0 then continue_ := false
          else begin
            bind env iv (VI (Array.copy ivv));
            count_op ctx am.em Cint;
            count_op ctx am.em Cint;
            let olds = List.map (lookup env) iter_args in
            (match exec_block ctx env am body with
            | T_yield vs ->
                List.iter2
                  (fun (a : Value.t) (next, old) ->
                    bind env a (merge_masked ctx bits a.Value.ty ~next ~old))
                  iter_args
                  (List.combine vs olds)
            | T_none | T_yield_while _ -> device_fail "malformed for region");
            for l = 0 to n - 1 do
              if bits.(l) then ivv.(l) <- ivv.(l) + vstep.(l)
            done
          end
        done;
        List.iter2 (fun r a -> bind env r (lookup env a)) results iter_args
      end)
  | Instr.While { iter_args; inits; results; body } ->
      List.iter2 (bind env) iter_args (List.map (lookup env) inits);
      let active = ref mask in
      let continue_ = ref true in
      while !continue_ do
        count_op ctx !active.em Cint;
        let olds = List.map (lookup env) iter_args in
        (match exec_block ctx env !active body with
        | T_yield_while (c, vs) ->
            List.iter2
              (fun (a : Value.t) (next, old) ->
                bind env a (merge_masked ctx !active.bits a.Value.ty ~next ~old))
              iter_args
              (List.combine vs olds);
            if is_uniform c then begin
              if ui_of c = 0 then continue_ := false
            end
            else begin
              let vc = to_vi n c in
              let bits = Array.init n (fun l -> !active.bits.(l) && vc.(l) <> 0) in
              let am = bmask ctx bits in
              active := am;
              if am.em.active = 0 then continue_ := false
            end
        | T_none | T_yield _ -> device_fail "malformed while region")
      done;
      List.iter2 (fun r a -> bind env r (lookup env a)) results iter_args
  | Instr.Parallel { level = Instr.Threads; ivs; ubs; body; _ } ->
      if ctx.nlanes <> 1 then device_fail "nested thread parallels";
      let dims = List.map (fun u -> ui_of (lookup env u)) ubs in
      let nlanes = List.fold_left ( * ) 1 dims in
      if nlanes <= 0 then device_fail "thread parallel with empty dimension";
      if nlanes > ctx.m.observed_threads then ctx.m.observed_threads <- nlanes;
      let tctx = { ctx with nlanes } in
      (* lane order: x fastest, matching CUDA's warp lane numbering *)
      let rec bind_dims stride = function
        | [] -> ()
        | ((iv : Value.t), d) :: rest ->
            bind env iv (VI (Array.init nlanes (fun l -> l / stride mod d)));
            bind_dims (stride * d) rest
      in
      bind_dims 1 (List.combine ivs dims);
      ignore (exec_block tctx env (full tctx) body)
  | Instr.Parallel { level = Instr.Blocks; _ } -> device_fail "nested blocks parallel"
  | Instr.Barrier _ ->
      if mask.em.active <> ctx.nlanes then
        device_fail "barrier divergence: %d of %d lanes active" mask.em.active ctx.nlanes;
      (match ctx.m.racecheck with None -> () | Some rc -> Racecheck.barrier rc);
      ctx.m.counters.Counters.barriers <- ctx.m.counters.Counters.barriers +. float_of_int mask.em.warps;
      ctx.m.counters.Counters.warp_insts <-
        ctx.m.counters.Counters.warp_insts +. float_of_int mask.em.warps
  | Instr.Alloc_shared { res; elt; size } ->
      let space = if ctx.m.shared_as_global then Types.Global else Types.Shared in
      bind env res (UB (Memory.alloc ctx.m.alloc space elt size))
  | Instr.Alloc _ | Instr.Free _ | Instr.Memcpy _ -> device_fail "host memory op in device code"
  | Instr.Gpu_wrapper _ -> device_fail "nested gpu_wrapper"
  | Instr.Alternatives _ -> device_fail "unresolved alternatives inside device code"
  | Instr.Intrinsic { name; _ } -> device_fail "intrinsic %S in device code" name
  | Instr.Yield _ | Instr.Yield_while _ | Instr.Return _ -> device_fail "stray terminator"

(* ------------------------------------------------------------------ *)
(* Block runner                                                        *)
(* ------------------------------------------------------------------ *)

let runner ~(env : Exec.env) (p : Instr.instr) : runner =
  match p with
  | Instr.Parallel { level = Instr.Blocks; ivs; ubs; body; _ } ->
      let dims = List.map (fun u -> ui_of (Exec.lookup env u)) ubs in
      let dx = match dims with d :: _ -> d | [] -> 1 in
      let dy = match dims with _ :: d :: _ -> d | _ -> 1 in
      fun m ->
        let env = { local = Hashtbl.create 64; host = env } in
        fun ~sm lb ->
          let coords = [ lb mod dx; lb / dx mod dy; lb / (dx * dy) ] in
          List.iteri (fun k (iv : Value.t) -> bind env iv (UI (List.nth coords k))) ivs;
          let ctx = { m; nlanes = 1; ws = m.target.Pgpu_target.Descriptor.warp_size; sm } in
          ignore (exec_block ctx env (full ctx) body);
          m.counters.Counters.blocks <- m.counters.Counters.blocks +. 1.
  | _ -> device_fail "launch expects a blocks-level parallel"

(* ------------------------------------------------------------------ *)
(* Host code                                                           *)
(* ------------------------------------------------------------------ *)

(* The host half of the tree-walker the runtime ran host code with
   before it compiled it: the oracle of [Runtime.run] on modules
   without launches or memcpys. Values are boxed in a hashtable env,
   and each instruction but a terminator charges
   [Runtime.host_op_cost] before it runs. *)

module Runtime = Pgpu_runtime.Runtime

type host = { vars : (int, rv) Hashtbl.t; alloc : Memory.allocator; mutable composite : float }

let host_fail fmt = Fmt.kstr (fun s -> raise (Runtime.Host_error s)) fmt

let hlookup h (v : Value.t) =
  match Hashtbl.find_opt h.vars v.Value.id with
  | Some rv -> rv
  | None -> Pgpu_support.Util.failf "exec: unbound value %a" Value.pp v

let hbind h (v : Value.t) rv = Hashtbl.replace h.vars v.Value.id rv

let as_int h v =
  match hlookup h v with
  | UI x -> x
  | UF x -> int_of_float x
  | _ -> host_fail "expected host scalar int %a" Value.pp v

let as_float h v =
  match hlookup h v with
  | UF x -> x
  | UI x -> float_of_int x
  | _ -> host_fail "expected host scalar float %a" Value.pp v

let as_buf h v = match hlookup h v with UB b -> b | _ -> host_fail "expected buffer %a" Value.pp v

let eval_host_expr h (res : Value.t) (e : Instr.expr) : rv =
  let ty = res.Value.ty in
  match e with
  | Instr.Const (Instr.Ci n) -> UI n
  | Instr.Const (Instr.Cf f) -> UF f
  | Instr.Binop (op, a, b) ->
      if Types.is_float ty then UF (Ops.eval_float_binop op (as_float h a) (as_float h b))
      else UI (Ops.eval_int_binop op (as_int h a) (as_int h b))
  | Instr.Unop (op, a) ->
      if Types.is_float ty then UF (Ops.eval_float_unop op (as_float h a))
      else UI (Ops.eval_int_unop op (as_int h a))
  | Instr.Cmp (op, a, b) ->
      let r =
        if Types.is_float a.Value.ty then Ops.eval_float_cmp op (as_float h a) (as_float h b)
        else Ops.eval_int_cmp op (as_int h a) (as_int h b)
      in
      UI (if r then 1 else 0)
  | Instr.Select (c, a, b) -> if as_int h c <> 0 then hlookup h a else hlookup h b
  | Instr.Cast a -> (
      match (Types.is_float ty, hlookup h a) with
      | true, UI x -> UF (float_of_int x)
      | true, (UF _ as v) -> v
      | false, UF x -> UI (int_of_float x)
      | _, v -> v)
  | Instr.Load { mem; idx } ->
      let b = as_buf h mem and i = as_int h idx in
      if Types.is_float (Types.elem mem.Value.ty) then UF (Memory.get_f b i) else UI (Memory.get_i b i)

(** The fills as the runtime once made them: the whole stream drawn
    into an array first ({!Runtime.rand_array}), then copied. *)
let eval_intrinsic h name (args : Value.t list) =
  match (name, args) with
  | "fill_rand", [ buf; seed ] ->
      let b = as_buf h buf in
      let data = Runtime.rand_array (as_int h seed) b.Memory.len in
      Memory.fill_f b (fun i -> data.(i))
  | "fill_rand_range", [ buf; seed; lo; hi ] ->
      let b = as_buf h buf in
      let lo = as_float h lo and hi = as_float h hi in
      let data = Runtime.rand_array (as_int h seed) b.Memory.len in
      Memory.fill_f b (fun i -> lo +. ((hi -. lo) *. data.(i)))
  | "fill_int_rand", [ buf; seed; bound ] ->
      let b = as_buf h buf in
      if as_int h bound <= 0 && b.Memory.len > 0 then
        host_fail "fill_int_rand: bound %d is not positive" (as_int h bound);
      let data = Runtime.rand_int_array (as_int h seed) (as_int h bound) b.Memory.len in
      Memory.fill_i b (fun i -> data.(i))
  | "fill_const", [ buf; c ] ->
      let b = as_buf h buf in
      if Types.is_float b.Memory.elt then Memory.fill_f b (fun _ -> as_float h c)
      else Memory.fill_i b (fun _ -> as_int h c)
  | "fill_seq", [ buf ] -> Memory.fill_i (as_buf h buf) (fun i -> i)
  | _ -> host_fail "intrinsic %S with %d args is not in the host oracle" name (List.length args)

let rec exec_host_block h (block : Instr.block) =
  let rec go = function
    | [] -> `Fallthrough
    | i :: rest -> (
        match i with
        | Instr.Yield vs -> `Yield (List.map (hlookup h) vs)
        | Instr.Yield_while (c, vs) -> `Yield_while (as_int h c <> 0, List.map (hlookup h) vs)
        | Instr.Return vs -> `Return (List.map (hlookup h) vs)
        | _ ->
            exec_host_instr h i;
            go rest)
  in
  go block

and exec_host_instr h (i : Instr.instr) : unit =
  h.composite <- h.composite +. Runtime.host_op_cost;
  match i with
  | Instr.Let (v, e) -> hbind h v (eval_host_expr h v e)
  | Instr.Store { mem; idx; v } ->
      let b = as_buf h mem and k = as_int h idx in
      if Types.is_float (Types.elem mem.Value.ty) then Memory.set_f b k (as_float h v)
      else Memory.set_i b k (as_int h v)
  | Instr.If { cond; results; then_; else_ } -> (
      let branch = if as_int h cond <> 0 then then_ else else_ in
      match exec_host_block h branch with
      | `Yield vs -> List.iter2 (hbind h) results vs
      | `Fallthrough when results = [] -> ()
      | _ -> host_fail "malformed host if")
  | Instr.For { iv; lb; ub; step; iter_args; inits; results; body } ->
      let l0 = as_int h lb and u = as_int h ub and s = as_int h step in
      if s <= 0 then host_fail "host for loop with non-positive step";
      List.iter2 (fun a init -> hbind h a (hlookup h init)) iter_args inits;
      let k = ref l0 in
      while !k < u do
        hbind h iv (UI !k);
        (match exec_host_block h body with
        | `Yield vs -> List.iter2 (hbind h) iter_args vs
        | _ -> host_fail "malformed host for");
        k := !k + s
      done;
      List.iter2 (fun r a -> hbind h r (hlookup h a)) results iter_args
  | Instr.While { iter_args; inits; results; body } ->
      List.iter2 (fun a init -> hbind h a (hlookup h init)) iter_args inits;
      let continue_ = ref true in
      while !continue_ do
        match exec_host_block h body with
        | `Yield_while (c, vs) ->
            List.iter2 (hbind h) iter_args vs;
            if not c then continue_ := false
        | _ -> host_fail "malformed host while"
      done;
      List.iter2 (fun r a -> hbind h r (hlookup h a)) results iter_args
  | Instr.Alloc { res; space; elt; count } ->
      let n = as_int h count in
      if n < 0 then host_fail "allocation of %a with a negative count (%d)" Value.pp res n;
      hbind h res (UB (Memory.alloc h.alloc space elt n))
  | Instr.Free _ -> ()
  | Instr.Intrinsic { name; args; _ } -> eval_intrinsic h name args
  | Instr.Memcpy _ | Instr.Gpu_wrapper _ -> host_fail "the host oracle runs no copies or launches"
  | Instr.Alternatives _ -> host_fail "alternatives outside gpu_wrapper"
  | Instr.Parallel _ | Instr.Barrier _ | Instr.Alloc_shared _ ->
      host_fail "device construct in host code"
  | Instr.Yield _ | Instr.Yield_while _ | Instr.Return _ -> host_fail "stray terminator"

let run_host ?(fname = "main") (m : Instr.modul) (args : rv list) =
  let f = Instr.find_func m fname in
  let h = { vars = Hashtbl.create 64; alloc = Memory.allocator (); composite = 0. } in
  List.iter2 (hbind h) f.Instr.params args;
  match exec_host_block h f.Instr.body with
  | exception Memory.Out_of_bounds msg -> raise (Runtime.Host_error msg)
  | `Return vs -> (vs, h.composite)
  | _ -> host_fail "%s did not return" fname

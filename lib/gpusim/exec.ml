(** Vectorized SPMD execution of GPU kernels.

    One GPU block is interpreted with *all its threads at once*: every
    SSA value inside the thread-level parallel is either uniform or a
    per-lane array, and divergent control flow is handled with lane
    masks. This mirrors how the hardware executes warps and lets the
    executor observe exactly the events the performance model needs:
    issued warp instructions, per-warp memory coalescing, cache
    traffic, shared-memory bank conflicts and branch divergence.

    Blocks of a grid are run by one grid loop ({!run_grid}),
    optionally sampled (with counter extrapolation) for large grids
    where only timing is of interest; the tree-walker and the compiled
    engine differ only in the per-block runner they hand it. *)

open Pgpu_ir

let src = Logs.Src.create "pgpu.gpusim" ~doc:"Polygeist-GPU simulator"

module Log = (val Logs.src_log src : Logs.LOG)

(** Runtime values: uniform scalars or per-lane vectors. *)
type rv =
  | UI of int
  | UF of float
  | UB of Memory.buf
  | VI of int array
  | VF of float array
  | VB of Memory.buf array

type machine = {
  target : Pgpu_target.Descriptor.t;
  mutable alloc : Memory.allocator;
      (** host allocator between launches; swapped for a deterministic
          per-block allocator while a block body runs, so device-side
          [Alloc_shared] addresses depend only on the block index *)
  l2s : Cache.t array;
      (** the L2 modelled as per-SM slices (address-sliced, as real L2s
          are physically partitioned): an access from SM [s] probes
          [l2s.(s)] only. This makes all cache state per-SM, so blocks
          mapped to different SMs touch disjoint mutable state — the
          property that lets sharded launches be bit-identical to
          sequential ones. *)
  l1s : Cache.t array;
  mutable counters : Counters.t;
  mutable next_sm : int;
  mutable observed_threads : int;  (** threads/block seen by the last launch *)
  mutable shared_as_global : bool;
      (** AMD backend behaviour on shared-memory-heavy kernels: the
          allocation is demoted to global memory (Section VII-D2) *)
  mutable racecheck : Racecheck.t option;
      (** opt-in dynamic race detector; [None] (the default) keeps
          every instrumentation hook to a single match *)
  scratch : int array;
      (** per-machine scratch for the warp-request modelling (warps
          have at most 64 lanes); lives here so machines owned by
          different domains never share mutable state *)
  bank_counts : int array;  (** per-bank distinct-word counters *)
}

let create_machine (target : Pgpu_target.Descriptor.t) =
  {
    target;
    alloc = Memory.allocator ();
    l2s =
      Array.init target.sm_count (fun _ ->
          Cache.create
            ~size_bytes:(max 4096 (target.l2_bytes / max 1 target.sm_count))
            ~line_bytes:128 ~ways:16);
    l1s =
      Array.init target.sm_count (fun _ ->
          Cache.create ~size_bytes:target.l1_bytes_per_sm ~line_bytes:target.l1_line_bytes ~ways:8);
    counters = Counters.create ();
    next_sm = 0;
    observed_threads = 1;
    shared_as_global = false;
    racecheck = None;
    scratch = Array.make 64 0;
    bank_counts = Array.make 64 0;
  }

(** A private copy of [m] that writes no state [m] can see, so the
    clone can execute on another domain and leaves no trace on the
    machine the committed launch runs on. The TDO search runs every
    trial on one. The caches are copy-on-write ({!Cache.clone}): a
    clone copies only the rows it probes, and [m] must not be probed
    while a clone of it is in use. The race detector is deliberately
    not carried over (trial machines never race-check). *)
let clone_machine m =
  {
    m with
    alloc = Memory.clone_allocator m.alloc;
    l2s = Array.map Cache.clone m.l2s;
    l1s = Array.map Cache.clone m.l1s;
    counters = Counters.copy m.counters;
    racecheck = None;
    scratch = Array.make 64 0;
    bank_counts = Array.make 64 0;
  }

type env = (int, rv) Hashtbl.t

let env_create () : env = Hashtbl.create 256
let bind (env : env) (v : Value.t) rv = Hashtbl.replace env v.Value.id rv

let lookup (env : env) (v : Value.t) =
  (* [find] rather than [find_opt]: host loops resolve every operand
     through here, and the option would be an allocation per lookup *)
  match Hashtbl.find env v.Value.id with
  | rv -> rv
  | exception Not_found -> Pgpu_support.Util.failf "exec: unbound value %a" Value.pp v

(** Lane masks with cached population statistics. *)
type mask = { bits : bool array; active : int; warps : int }

type ctx = {
  m : machine;
  env : env;
  nlanes : int;
  ws : int;  (** warp size *)
  sm : int;  (** SM executing the current block *)
}

let mk_mask ctx bits =
  let active = ref 0 and warps = ref 0 in
  let nwarps = Pgpu_support.Util.ceil_div ctx.nlanes ctx.ws in
  for w = 0 to nwarps - 1 do
    let lo = w * ctx.ws and hi = Int.min ((w + 1) * ctx.ws) ctx.nlanes in
    let any = ref false in
    for l = lo to hi - 1 do
      if bits.(l) then (
        incr active;
        any := true)
    done;
    if !any then incr warps
  done;
  { bits; active = !active; warps = !warps }

let full_mask ctx = mk_mask ctx (Array.make ctx.nlanes true)

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

let to_ub = function UB b -> b | _ -> invalid_arg "exec: expected uniform buffer"

let to_vb n = function
  | UB b -> Array.make n b
  | VB a -> a
  | UI _ | UF _ | VI _ | VF _ -> invalid_arg "exec: expected buffer"

(* ------------------------------------------------------------------ *)
(* Counting                                                            *)
(* ------------------------------------------------------------------ *)

type op_class = Cint | Cfp32 | Cfp64 | Csfu

let count_op ctx (mask : mask) cls =
  let c = ctx.m.counters in
  c.Counters.warp_insts <- c.Counters.warp_insts +. float_of_int mask.warps;
  c.Counters.lane_total <- c.Counters.lane_total +. float_of_int mask.active;
  let a = float_of_int mask.active in
  match cls with
  | Cint -> c.Counters.lane_int <- c.Counters.lane_int +. a
  | Cfp32 -> c.Counters.lane_fp32 <- c.Counters.lane_fp32 +. a
  | Cfp64 -> c.Counters.lane_fp64 <- c.Counters.lane_fp64 +. a
  | Csfu -> c.Counters.lane_sfu <- c.Counters.lane_sfu +. a

let class_of_binop (ty : Types.t) (op : Ops.binop) =
  match ty with
  | Types.F32 -> ( match op with Ops.Div | Ops.Rem | Ops.Pow -> Csfu | _ -> Cfp32)
  | Types.F64 -> ( match op with Ops.Div | Ops.Rem | Ops.Pow -> Csfu | _ -> Cfp64)
  | Types.I1 | Types.I32 | Types.I64 | Types.Memref _ -> Cint

let is_sfu = function
  | Ops.Sqrt | Ops.Exp | Ops.Log | Ops.Sin | Ops.Cos | Ops.Rsqrt -> true
  | Ops.Neg | Ops.Not | Ops.Abs | Ops.Floor | Ops.Ceil -> false

let class_of_unop (ty : Types.t) (op : Ops.unop) =
  if is_sfu op then Csfu
  else
    match ty with
    | Types.F32 -> Cfp32
    | Types.F64 -> Cfp64
    | Types.I1 | Types.I32 | Types.I64 | Types.Memref _ -> Cint

(* ------------------------------------------------------------------ *)
(* Memory access with coalescing and cache modelling                   *)
(* ------------------------------------------------------------------ *)

(** Collect the distinct values of [addrs.(l) lsr shift] over the
    active lanes of one warp into the machine's scratch; returns their
    count. Addresses are non-negative, so the shift is an exact
    division by the (power-of-two) granule. Coalesced accesses arrive
    already sorted: sortedness is detected during collection and the
    insertion sort (at most 64 entries, allocation-free) only runs on
    the shuffled minority. *)
let distinct_shifted ctx shift (addrs : int array) (mask : mask) lo hi =
  let scratch = ctx.m.scratch in
  let bits = mask.bits in
  let n = ref 0 in
  let sorted = ref true in
  let prev = ref min_int in
  for l = lo to hi - 1 do
    if Array.unsafe_get bits l then begin
      let v = Array.unsafe_get addrs l lsr shift in
      if v < !prev then sorted := false;
      prev := v;
      Array.unsafe_set scratch !n v;
      incr n
    end
  done;
  let k = !n in
  if not !sorted then
    for i = 1 to k - 1 do
      let v = scratch.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && scratch.(!j) > v do
        scratch.(!j + 1) <- scratch.(!j);
        decr j
      done;
      scratch.(!j + 1) <- v
    done;
  (* compact duplicates *)
  let d = ref 0 in
  for i = 0 to k - 1 do
    let v = Array.unsafe_get scratch i in
    if i = 0 || v <> Array.unsafe_get scratch (!d - 1) then begin
      Array.unsafe_set scratch !d v;
      incr d
    end
  done;
  !d

(** Model one warp-level global-memory request: compute the 32 B
    sectors the active lanes touch, walk them through L1 (per-SM) and
    L2, and account traffic. Loads allocate in L1; stores are
    write-through, no-allocate. *)
let global_request ctx ~(is_store : bool) (addrs : int array) (mask : mask) lo hi =
  let c = ctx.m.counters in
  let scratch = ctx.m.scratch in
  let shift = Counters.sector_shift in
  let nsec_i = distinct_shifted ctx shift addrs mask lo hi in
  let nsec = float_of_int nsec_i in
  if is_store then begin
    c.Counters.global_store_req <- c.Counters.global_store_req +. 1.;
    c.Counters.store_sectors <- c.Counters.store_sectors +. nsec;
    c.Counters.store_l2_sectors <- c.Counters.store_l2_sectors +. nsec;
    for i = 0 to nsec_i - 1 do
      if not (Cache.access ctx.m.l2s.(ctx.sm) (Array.unsafe_get scratch i lsl shift)) then
        c.Counters.l2_store_miss_sectors <- c.Counters.l2_store_miss_sectors +. 1.
    done
  end
  else begin
    c.Counters.global_load_req <- c.Counters.global_load_req +. 1.;
    c.Counters.load_sectors <- c.Counters.load_sectors +. nsec;
    for i = 0 to nsec_i - 1 do
      if not (Cache.access ctx.m.l1s.(ctx.sm) (Array.unsafe_get scratch i lsl shift)) then begin
        c.Counters.l1_load_miss_sectors <- c.Counters.l1_load_miss_sectors +. 1.;
        if not (Cache.access ctx.m.l2s.(ctx.sm) (Array.unsafe_get scratch i lsl shift)) then
          c.Counters.l2_load_miss_sectors <- c.Counters.l2_load_miss_sectors +. 1.
      end
    done
  end

(** Model one warp-level shared-memory request with bank-conflict
    replays: the replay count is the maximum, over banks, of distinct
    32-bit words addressed in that bank. *)
let shared_request ctx ~(is_store : bool) (addrs : int array) (mask : mask) lo hi =
  let c = ctx.m.counters in
  let scratch = ctx.m.scratch and bank_counts = ctx.m.bank_counts in
  let banks = ctx.m.target.Pgpu_target.Descriptor.shmem_banks in
  let nwords = distinct_shifted ctx 2 addrs mask lo hi in
  Array.fill bank_counts 0 banks 0;
  let replays = ref 1 in
  if banks land (banks - 1) = 0 then begin
    let bm = banks - 1 in
    for i = 0 to nwords - 1 do
      let b = Array.unsafe_get scratch i land bm in
      let n = Array.unsafe_get bank_counts b + 1 in
      Array.unsafe_set bank_counts b n;
      if n > !replays then replays := n
    done
  end
  else
    for i = 0 to nwords - 1 do
      let b = scratch.(i) mod banks in
      bank_counts.(b) <- bank_counts.(b) + 1;
      if bank_counts.(b) > !replays then replays := bank_counts.(b)
    done;
  if is_store then c.Counters.shared_store_req <- c.Counters.shared_store_req +. 1.
  else c.Counters.shared_load_req <- c.Counters.shared_load_req +. 1.;
  c.Counters.shared_transactions <- c.Counters.shared_transactions +. float_of_int !replays

(** The memory-request model of both engines: one warp instruction,
    plus one request, per warp with an active lane. A one-lane warp
    touches one granule, so its arm skips the coalescer and the bank
    table but makes the counter increments and cache probes
    {!global_request} and {!shared_request} make on a one-lane range,
    in the same order: the two arms agree bit for bit at [ws = 1]. *)
let requests ctx ~is_store (space : Types.space) (addrs : int array) (mask : mask) =
  let c = ctx.m.counters in
  let bits = mask.bits in
  let n = ctx.nlanes in
  if ctx.ws = 1 then begin
    match space with
    | Types.Global | Types.Host ->
        let l1 = ctx.m.l1s.(ctx.sm) and l2 = ctx.m.l2s.(ctx.sm) in
        let shift = Counters.sector_shift in
        for l = 0 to n - 1 do
          if Array.unsafe_get bits l then begin
            let sector = (Array.unsafe_get addrs l lsr shift) lsl shift in
            c.Counters.warp_insts <- c.Counters.warp_insts +. 1.;
            if is_store then begin
              c.Counters.global_store_req <- c.Counters.global_store_req +. 1.;
              c.Counters.store_sectors <- c.Counters.store_sectors +. 1.;
              c.Counters.store_l2_sectors <- c.Counters.store_l2_sectors +. 1.;
              if not (Cache.access l2 sector) then
                c.Counters.l2_store_miss_sectors <- c.Counters.l2_store_miss_sectors +. 1.
            end
            else begin
              c.Counters.global_load_req <- c.Counters.global_load_req +. 1.;
              c.Counters.load_sectors <- c.Counters.load_sectors +. 1.;
              if not (Cache.access l1 sector) then begin
                c.Counters.l1_load_miss_sectors <- c.Counters.l1_load_miss_sectors +. 1.;
                if not (Cache.access l2 sector) then
                  c.Counters.l2_load_miss_sectors <- c.Counters.l2_load_miss_sectors +. 1.
              end
            end
          end
        done
    | Types.Shared ->
        for l = 0 to n - 1 do
          if Array.unsafe_get bits l then begin
            c.Counters.warp_insts <- c.Counters.warp_insts +. 1.;
            if is_store then c.Counters.shared_store_req <- c.Counters.shared_store_req +. 1.
            else c.Counters.shared_load_req <- c.Counters.shared_load_req +. 1.;
            c.Counters.shared_transactions <- c.Counters.shared_transactions +. 1.
          end
        done
  end
  else
    let ws = ctx.ws in
    for w = 0 to Pgpu_support.Util.ceil_div n ws - 1 do
      let lo = w * ws in
      let hi = Int.min (lo + ws) n in
      let any = ref false in
      for l = lo to hi - 1 do
        if Array.unsafe_get bits l then any := true
      done;
      if !any then begin
        c.Counters.warp_insts <- c.Counters.warp_insts +. 1.;
        match space with
        | Types.Global | Types.Host -> global_request ctx ~is_store addrs mask lo hi
        | Types.Shared -> shared_request ctx ~is_store addrs mask lo hi
      end
    done

(** Masked vector memory access. Computes per-lane addresses, performs
    the functional load/store, records shared accesses for the race
    detector, and models the instruction through {!requests}. *)
let vec_access ctx (mask : mask) ~is_store (bufs : Memory.buf array) (idxs : int array)
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
  requests ctx ~is_store effective_space addrs mask

(* ------------------------------------------------------------------ *)
(* Expression evaluation                                               *)
(* ------------------------------------------------------------------ *)

let ui_of = function
  | UI x -> x
  | UF x -> int_of_float x
  | VI _ | VF _ | UB _ | VB _ -> invalid_arg "exec: expected uniform scalar"

let uf_of = function
  | UF x -> x
  | UI x -> float_of_int x
  | VI _ | VF _ | UB _ | VB _ -> invalid_arg "exec: expected uniform scalar"

let eval_expr ctx (mask : mask) (res : Value.t) (e : Instr.expr) : rv =
  let n = ctx.nlanes in
  let env = ctx.env in
  let ty = res.Value.ty in
  match e with
  | Instr.Const (Instr.Ci x) -> UI x
  | Instr.Const (Instr.Cf x) -> UF x
  | Instr.Binop (op, a, b) -> (
      count_op ctx mask (class_of_binop ty op);
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
      count_op ctx mask (class_of_unop ty op);
      let ra = lookup env a in
      if Types.is_float ty then
        if is_uniform ra then UF (Ops.eval_float_unop op (uf_of ra))
        else VF (Array.map (Ops.eval_float_unop op) (to_vf n ra))
      else if is_uniform ra then UI (Ops.eval_int_unop op (ui_of ra))
      else VI (Array.map (Ops.eval_int_unop op) (to_vi n ra))
  | Instr.Cmp (op, a, b) ->
      count_op ctx mask Cint;
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
      count_op ctx mask Cint;
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
      count_op ctx mask Cint;
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

exception Device_error of string

let device_fail fmt = Fmt.kstr (fun s -> raise (Device_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Block execution                                                     *)
(* ------------------------------------------------------------------ *)

type terminator = T_none | T_yield of rv list | T_yield_while of rv * rv list

(** Execute a block under [mask]; returns the terminator data. *)
let rec exec_block ctx (mask : mask) (block : Instr.block) : terminator =
  let term = ref T_none in
  List.iter
    (fun i ->
      match i with
      | Instr.Yield vs -> term := T_yield (List.map (lookup ctx.env) vs)
      | Instr.Yield_while (c, vs) ->
          term := T_yield_while (lookup ctx.env c, List.map (lookup ctx.env) vs)
      | Instr.Return _ -> device_fail "return inside device code"
      | _ -> exec_instr ctx mask i)
    block;
  !term

and exec_instr ctx (mask : mask) (i : Instr.instr) : unit =
  let env = ctx.env in
  let n = ctx.nlanes in
  match i with
  | Instr.Let (v, e) -> bind env v (eval_expr ctx mask v e)
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
      count_op ctx mask Cint;
      if is_uniform rc then begin
        let branch = if ui_of rc <> 0 then then_ else else_ in
        match exec_block ctx mask branch with
        | T_yield vs -> List.iter2 (bind env) results vs
        | T_none when results = [] -> ()
        | T_none | T_yield_while _ -> device_fail "malformed if region"
      end
      else begin
        let vc = to_vi n rc in
        let tb = Array.init n (fun l -> mask.bits.(l) && vc.(l) <> 0) in
        let eb = Array.init n (fun l -> mask.bits.(l) && vc.(l) = 0) in
        let tm = mk_mask ctx tb and em = mk_mask ctx eb in
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
          if m.active = 0 then None
          else
            match exec_block ctx m blk with
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
          count_op ctx mask Cint;
          count_op ctx mask Cint;
          (match exec_block ctx mask body with
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
          let am = mk_mask ctx bits in
          if am.active = 0 then continue_ := false
          else begin
            bind env iv (VI (Array.copy ivv));
            count_op ctx am Cint;
            count_op ctx am Cint;
            let olds = List.map (lookup env) iter_args in
            (match exec_block ctx am body with
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
        count_op ctx !active Cint;
        let olds = List.map (lookup env) iter_args in
        (match exec_block ctx !active body with
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
              let am = mk_mask ctx bits in
              active := am;
              if am.active = 0 then continue_ := false
            end
        | T_none | T_yield _ -> device_fail "malformed while region")
      done;
      List.iter2 (fun r a -> bind env r (lookup env a)) results iter_args
  | Instr.Parallel { level = Instr.Threads; ivs; ubs; body; _ } ->
      if ctx.nlanes <> 1 then device_fail "nested thread parallels";
      let dims = List.map (fun u -> ui_of (lookup env u)) ubs in
      let nlanes = List.fold_left ( * ) 1 dims in
      if nlanes <= 0 then device_fail "thread parallel with empty dimension";
      ctx.m.observed_threads <- nlanes;
      let tctx = { ctx with nlanes } in
      (* lane order: x fastest, matching CUDA's warp lane numbering *)
      let rec bind_dims stride = function
        | [] -> ()
        | ((iv : Value.t), d) :: rest ->
            bind env iv (VI (Array.init nlanes (fun l -> l / stride mod d)));
            bind_dims (stride * d) rest
      in
      bind_dims 1 (List.combine ivs dims);
      ignore (exec_block tctx (full_mask tctx) body)
  | Instr.Parallel { level = Instr.Blocks; _ } -> device_fail "nested blocks parallel"
  | Instr.Barrier _ ->
      if mask.active <> ctx.nlanes then
        device_fail "barrier divergence: %d of %d lanes active" mask.active ctx.nlanes;
      (match ctx.m.racecheck with None -> () | Some rc -> Racecheck.barrier rc);
      ctx.m.counters.Counters.barriers <- ctx.m.counters.Counters.barriers +. float_of_int mask.warps;
      ctx.m.counters.Counters.warp_insts <-
        ctx.m.counters.Counters.warp_insts +. float_of_int mask.warps
  | Instr.Alloc_shared { res; elt; size } ->
      let space = if ctx.m.shared_as_global then Types.Global else Types.Shared in
      bind env res (UB (Memory.alloc ctx.m.alloc space elt size))
  | Instr.Alloc _ | Instr.Free _ | Instr.Memcpy _ -> device_fail "host memory op in device code"
  | Instr.Gpu_wrapper _ -> device_fail "nested gpu_wrapper"
  | Instr.Alternatives _ -> device_fail "unresolved alternatives inside device code"
  | Instr.Intrinsic { name; _ } -> device_fail "intrinsic %S in device code" name
  | Instr.Yield _ | Instr.Yield_while _ | Instr.Return _ -> device_fail "stray terminator"

(* ------------------------------------------------------------------ *)
(* Grid launch                                                         *)
(* ------------------------------------------------------------------ *)

type launch_result = {
  nblocks : int;
  threads_per_block : int;
  grid_dims : int list;
  block_dims : int list;
  counters : Counters.t;  (** delta for this launch, scaled to the full grid *)
}

(** How many blocks of the grid to execute functionally.
    [`All] executes every block (correct outputs, slower); [`Sample k]
    executes [k] representative blocks and extrapolates the counters —
    outputs are only partially computed, which is what autotuning runs
    use. *)
type mode = [ `All | `Sample of int ]

let block_dims_of env (block : Instr.block) =
  let rec find = function
    | [] -> []
    | Instr.Parallel { level = Instr.Threads; ubs; _ } :: _ ->
        List.map (fun u -> ui_of (lookup env u)) ubs
    | i :: rest -> (
        match i with
        | Instr.Parallel { level = Instr.Blocks; body; _ } -> (
            match find body with [] -> find rest | r -> r)
        | Instr.If { then_; else_; _ } -> (
            match find then_ with
            | [] -> ( match find else_ with [] -> find rest | r -> r)
            | r -> r)
        | Instr.For { body; _ } | Instr.While { body; _ } -> (
            match find body with [] -> find rest | r -> r)
        | _ -> find rest)
  in
  find block

(** Below this many executed blocks a launch always runs sequentially:
    the shard setup (wrapper machines, per-shard runners, pool
    round-trip) would cost more than it saves. Affects wall-clock only,
    never results — sharded and sequential launches are bit-identical. *)
let shard_threshold = 16

(** Linear indices of the blocks a launch of [total] blocks executes:
    all of them, or [k] evenly spaced representatives when sampling. *)
let sampled_blocks (mode : mode) total =
  if total <= 0 then [||]
  else
    match mode with
    | `All -> Array.init total Fun.id
    | `Sample k when total <= k -> Array.init total Fun.id
    | `Sample k ->
        let k = max 1 k in
        Array.init k (fun j -> j * total / k)

(** Scale counters measured on [executed] of [total] blocks to the full
    grid. *)
let extrapolate (c : Counters.t) ~total ~executed =
  if executed > 0 && executed < total then
    Counters.scale c (float_of_int total /. float_of_int executed)

type runner = machine -> sm:int -> int -> unit

(** Drive the grid-level parallel [p] on machine [m]: resolve the grid
    through [env], pick the executed blocks, assign them to SMs
    round-robin by executed position, run each through [runner] with
    the deterministic allocator of its linear index, and extrapolate.

    With [jobs > 1] (and no race detector attached) the executed
    blocks are sharded over the persistent domain pool, grouped by the
    SM each block is assigned to: shard [g] executes, in position
    order, exactly the blocks whose SM [s] satisfies [s mod groups = g],
    on a wrapper of [m] that shares its per-SM caches but owns its
    counters and scratch. Because every piece of cache state is per-SM
    ([l1s], the [l2s] slices) and each block's device allocator depends
    only on its linear index, each per-SM state sees the same access
    sequence as in a sequential launch, and the integer-valued counter
    deltas merge exactly — outputs, counters and simulated times are
    bit-identical to [jobs = 1]. *)
let run_grid ?(jobs = 1) (m : machine) ~(mode : mode) ~(env : env) (p : Instr.instr)
    (runner : runner) : launch_result =
  match p with
  | Instr.Parallel { level = Instr.Blocks; ubs; body; _ } ->
      let dims = List.map (fun u -> ui_of (lookup env u)) ubs in
      let total = List.fold_left ( * ) 1 dims in
      let saved = m.counters in
      m.counters <- Counters.create ();
      m.counters.Counters.launches <- 1.;
      Array.iter Cache.reset m.l1s;
      let block_dims = block_dims_of env body in
      let result_threads = ref (List.fold_left ( * ) 1 block_dims) in
      let indices = sampled_blocks mode total in
      let executed = Array.length indices in
      if executed > 0 then begin
        let sm_count = m.target.Pgpu_target.Descriptor.sm_count in
        let start_sm = m.next_sm in
        (* round-robin by executed position, identical to advancing
           [next_sm] once per block *)
        let sm_of j = (start_sm + j) mod sm_count in
        let run_blocks (mg : machine) keep =
          let run = runner mg in
          for j = 0 to executed - 1 do
            if keep j then begin
              let lb = indices.(j) in
              (match mg.racecheck with None -> () | Some rc -> Racecheck.new_block rc lb);
              mg.alloc <- Memory.block_allocator lb;
              run ~sm:(sm_of j) lb
            end
          done
        in
        let host_alloc = m.alloc in
        let shards =
          if m.racecheck = None then min (Pgpu_support.Pool.effective_jobs jobs) sm_count
          else 1
        in
        Fun.protect
          ~finally:(fun () -> m.alloc <- host_alloc)
          (fun () ->
            if shards > 1 && executed >= shard_threshold then begin
              let wrappers =
                Array.init shards (fun _ ->
                    {
                      m with
                      counters = Counters.create ();
                      scratch = Array.make 64 0;
                      bank_counts = Array.make 64 0;
                    })
              in
              Pgpu_support.Pool.run (Pgpu_support.Pool.get ()) ~jobs:shards shards
                (fun ~slot:_ g -> run_blocks wrappers.(g) (fun j -> sm_of j mod shards = g));
              Array.iter
                (fun (w : machine) ->
                  Counters.accumulate m.counters w.counters;
                  (* every shard that ran a block carries the same
                     post-launch value (thread extents are uniform
                     across a launch), so any of them is authoritative *)
                  if w.counters.Counters.blocks > 0. then
                    m.observed_threads <- w.observed_threads)
                wrappers
            end
            else run_blocks m (fun _ -> true));
        m.next_sm <- (start_sm + executed) mod sm_count;
        extrapolate m.counters ~total ~executed;
        result_threads := m.observed_threads
      end;
      let delta = m.counters in
      Counters.accumulate saved delta;
      m.counters <- saved;
      Log.debug (fun k ->
          k "launch: %d block(s) x %d thread(s), %.3g warp instr(s)" total !result_threads
            delta.Counters.warp_insts);
      {
        nblocks = total;
        threads_per_block = !result_threads;
        grid_dims = dims;
        block_dims;
        counters = delta;
      }
  | _ -> device_fail "launch expects a blocks-level parallel"

(** The tree-walker's runner for the grid-level parallel [p]: each
    machine it is readied on binds block indices and kernel values in
    a private copy of [env], so shards never share a table. *)
let block_runner ~(env : env) (p : Instr.instr) : runner =
  match p with
  | Instr.Parallel { level = Instr.Blocks; ivs; ubs; body; _ } ->
      let dims = List.map (fun u -> ui_of (lookup env u)) ubs in
      let dx = match dims with d :: _ -> d | [] -> 1 in
      let dy = match dims with _ :: d :: _ -> d | _ -> 1 in
      fun m ->
        let env = Hashtbl.copy env in
        fun ~sm lb ->
          let coords = [ lb mod dx; lb / dx mod dy; lb / (dx * dy) ] in
          List.iteri (fun k (iv : Value.t) -> bind env iv (UI (List.nth coords k))) ivs;
          let ctx = { m; env; nlanes = 1; ws = m.target.Pgpu_target.Descriptor.warp_size; sm } in
          ignore (exec_block ctx (full_mask ctx) body);
          m.counters.Counters.blocks <- m.counters.Counters.blocks +. 1.
  | _ -> device_fail "launch expects a blocks-level parallel"

(** Launch the grid-level parallel [p] on machine [m] through the
    tree-walking interpreter. The environment must bind every free
    value of the kernel region (grid/block sizes, device buffer
    pointers, scalar arguments). *)
let launch ?jobs (m : machine) ~(mode : mode) ~(env : env) (p : Instr.instr) : launch_result =
  run_grid ?jobs m ~mode ~env p (block_runner ~env p)

(** The simulated machine and the grid loop that kernels run on.

    One GPU block runs with *all its threads at once*: every SSA value
    inside the thread-level parallel is either uniform or a per-lane
    array, and divergent control flow is handled with lane masks. This
    mirrors how the hardware executes warps and lets the engine observe
    exactly the events the performance model needs: issued warp
    instructions, per-warp memory coalescing, cache traffic,
    shared-memory bank conflicts and branch divergence.

    This module holds the machine, the lane masks, the operation
    counting and the memory-request model; the compiled engine
    ({!Compile}) executes instructions against them. Blocks of a grid
    are run by one grid loop ({!run_grid}) on every target, GPU or
    CPU, optionally sampled (with counter extrapolation) for large
    grids where only timing is of interest; the target's kind picks
    how the loop schedules blocks onto SMs or cores. The request model
    coalesces each warp's active lanes into ascending distinct sectors
    in one pass, and probes the caches once per run of sectors that
    share a line ({!Cache.access_run}), not once per sector. The tree-walking reference interpreter the
    tests compare the engine against ([test/interp.ml]) runs under the
    same grid loop with its own per-block runner and its own,
    per-sector request model. *)

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
  owned : bool array;
      (** per SM: whether [l1s] and [l2s] hold this machine's own
          caches there; a clone holds its source's until a block first
          runs there ({!run_grid}) *)
  mutable counters : Counters.t;
  mutable next_sm : int;  (** the SM a GPU launch's first block runs on *)
  mutable observed_threads : int;
      (** the largest threads/block of the thread-level parallels the
          current launch has executed; 1 until it reaches one *)
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

(** One L1 and one L2 slice per SM, or per core on a CPU. A GPU's L2
    has 128 B lines; a CPU's L2 slices have the core's line size. *)
let create_machine (target : Pgpu_target.Descriptor.t) =
  let l2_line =
    match target.kind with
    | Pgpu_target.Descriptor.Gpu -> 128
    | Pgpu_target.Descriptor.Cpu -> target.l1_line_bytes
  in
  {
    target;
    alloc = Memory.allocator ();
    l2s =
      Array.init target.sm_count (fun _ ->
          Cache.create
            ~size_bytes:(max 4096 (target.l2_bytes / max 1 target.sm_count))
            ~line_bytes:l2_line ~ways:16);
    l1s =
      Array.init target.sm_count (fun _ ->
          Cache.create ~size_bytes:target.l1_bytes_per_sm ~line_bytes:target.l1_line_bytes ~ways:8);
    owned = Array.make target.sm_count true;
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
    trial on one. It copies no cache: it holds [m]'s until a launch
    first runs a block on that SM, and then takes copy-on-write clones
    of that SM's L1 and L2 slice ({!Cache.clone}), which copy only the
    rows they probe; [m] must not be probed while a clone of it is in
    use. The race detector is deliberately not carried over (trial
    machines never race-check). *)
let clone_machine m =
  {
    m with
    alloc = Memory.clone_allocator m.alloc;
    l2s = Array.copy m.l2s;
    l1s = Array.copy m.l1s;
    owned = Array.map (fun _ -> false) m.owned;
    counters = Counters.copy m.counters;
    racecheck = None;
    scratch = Array.make 64 0;
    bank_counts = Array.make 64 0;
  }

(** Leave on [m], which owns all its caches, what the launches run on
    its clone [c] left on [c]: [c]'s host allocator and [next_sm] and,
    on a GPU, its L2 slices. Every launch empties the L1s, and on a
    CPU the L2 slices, before its first block, so nothing else carries
    into [m]'s next launch. Each L2 slice [c] cloned takes back the
    rows [c]'s clone of it owns ({!Cache.write_back}). *)
let adopt m ~clone:c =
  m.alloc <- c.alloc;
  m.next_sm <- c.next_sm;
  if m.target.Pgpu_target.Descriptor.kind = Pgpu_target.Descriptor.Gpu then
    Array.iteri (fun s own -> if own then Cache.write_back ~clone:c.l2s.(s) ~into:m.l2s.(s)) c.owned

(** The host register file. A value's slot indexes all three banks,
    and the value's type picks the one that holds it, so the int and
    float banks keep their scalars unboxed. *)
type env = {
  index : (int, int) Hashtbl.t;  (** value id -> slot *)
  mutable ints : int array;
  mutable floats : float array;
  mutable bufs : Memory.buf array;
}

type bank = Ints | Floats | Bufs

let bank (ty : Types.t) = if Types.is_memref ty then Bufs else if Types.is_float ty then Floats else Ints

let no_buf : Memory.buf =
  { Memory.id = -1; space = Types.Host; elt = Types.I32; len = 0; data = Memory.I [||]; base = 0 }

let env_create () =
  {
    index = Hashtbl.create 256;
    ints = Array.make 64 0;
    floats = Array.make 64 0.;
    bufs = Array.make 64 no_buf;
  }

let slot env (v : Value.t) =
  match Hashtbl.find_opt env.index v.Value.id with
  | Some s -> s
  | None ->
      let s = Hashtbl.length env.index in
      let cap = Array.length env.ints in
      if s = cap then begin
        let grow a fill = Array.append a (Array.make cap fill) in
        env.ints <- grow env.ints 0;
        env.floats <- grow env.floats 0.;
        env.bufs <- grow env.bufs no_buf
      end;
      Hashtbl.add env.index v.Value.id s;
      s

let bind env (v : Value.t) rv =
  let s = slot env v in
  match (bank v.Value.ty, rv) with
  | Ints, UI x -> env.ints.(s) <- x
  | Ints, UF x -> env.ints.(s) <- int_of_float x
  | Floats, UF x -> env.floats.(s) <- x
  | Floats, UI x -> env.floats.(s) <- float_of_int x
  | Bufs, UB b -> env.bufs.(s) <- b
  | _ -> Pgpu_support.Util.failf "exec: %a cannot hold this value in the host env" Value.pp v

let lookup env (v : Value.t) =
  match Hashtbl.find env.index v.Value.id with
  | s -> (
      match bank v.Value.ty with
      | Ints -> UI env.ints.(s)
      | Floats -> UF env.floats.(s)
      | Bufs -> UB env.bufs.(s))
  | exception Not_found -> Pgpu_support.Util.failf "exec: unbound value %a" Value.pp v

(** Lane masks with cached population statistics. *)
type mask = { bits : bool array; mutable active : int; mutable warps : int }

type ctx = {
  m : machine;
  mutable nlanes : int;
  ws : int;  (** warp size *)
  mutable sm : int;  (** SM executing the current block *)
}

let recount ctx mask =
  let bits = mask.bits in
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
  mask.active <- !active;
  mask.warps <- !warps

let mk_mask ctx bits =
  let mask = { bits; active = 0; warps = 0 } in
  recount ctx mask;
  mask

let full_mask ctx = mk_mask ctx (Array.make ctx.nlanes true)

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
    active lanes [lo, hi) of one warp into the machine's scratch,
    ascending; returns their count. Addresses are non-negative, so the
    shift is an exact division by the (power-of-two) granule. One pass
    drops repeats of the previous value and notes any decrease: a
    coalesced warp arrives ascending and is done, and only the
    shuffled minority is insertion-sorted (at most 64 entries,
    allocation-free) and compacted. *)
let coalesce ctx shift (addrs : int array) (bits : bool array) lo hi =
  let scratch = ctx.m.scratch in
  let n = ref 0 in
  let sorted = ref true in
  let prev = ref (-1) in
  for l = lo to hi - 1 do
    if Array.unsafe_get bits l then begin
      let v = Array.unsafe_get addrs l lsr shift in
      if v <> !prev then begin
        if v < !prev then sorted := false;
        prev := v;
        Array.unsafe_set scratch !n v;
        incr n
      end
    end
  done;
  let k = !n in
  if !sorted then k
  else begin
    for i = 1 to k - 1 do
      let v = scratch.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && scratch.(!j) > v do
        scratch.(!j + 1) <- scratch.(!j);
        decr j
      done;
      scratch.(!j + 1) <- v
    done;
    let d = ref 1 in
    for i = 1 to k - 1 do
      let v = Array.unsafe_get scratch i in
      if v <> Array.unsafe_get scratch (!d - 1) then begin
        Array.unsafe_set scratch !d v;
        incr d
      end
    done;
    !d
  end

(** Count [reqs] global requests touching [sectors] sectors in all. *)
let count_global ctx ~is_store reqs sectors =
  let c = ctx.m.counters in
  let reqs = float_of_int reqs and sectors = float_of_int sectors in
  if is_store then begin
    c.Counters.global_store_req <- c.Counters.global_store_req +. reqs;
    c.Counters.store_sectors <- c.Counters.store_sectors +. sectors;
    c.Counters.store_l2_sectors <- c.Counters.store_l2_sectors +. sectors
  end
  else begin
    c.Counters.global_load_req <- c.Counters.global_load_req +. reqs;
    c.Counters.load_sectors <- c.Counters.load_sectors +. sectors
  end

(** Count [reqs] shared requests costing [transactions] in all. *)
let count_shared ctx ~is_store reqs transactions =
  let c = ctx.m.counters in
  let reqs = float_of_int reqs in
  if is_store then c.Counters.shared_store_req <- c.Counters.shared_store_req +. reqs
  else c.Counters.shared_load_req <- c.Counters.shared_load_req +. reqs;
  c.Counters.shared_transactions <- c.Counters.shared_transactions +. float_of_int transactions

(** [k] probes of one line, the first at sector address [a]. A load
    probes the SM's L1 and, when that misses, fetches [a] from the
    SM's L2 slice; the other [k - 1] sectors then hit the L1. A store
    (write-through, no-allocate) probes only the L2 slice. Misses are
    counted per sector. *)
let probe_run ctx ~is_store a k =
  let c = ctx.m.counters in
  let l2 = ctx.m.l2s.(ctx.sm) in
  if is_store then begin
    if not (Cache.access_run l2 a k) then
      c.Counters.l2_store_miss_sectors <- c.Counters.l2_store_miss_sectors +. 1.
  end
  else if not (Cache.access_run ctx.m.l1s.(ctx.sm) a k) then begin
    c.Counters.l1_load_miss_sectors <- c.Counters.l1_load_miss_sectors +. 1.;
    if not (Cache.access l2 a) then
      c.Counters.l2_load_miss_sectors <- c.Counters.l2_load_miss_sectors +. 1.
  end

(** The cache a request's runs are cut by: the L1 for a load, the L2
    slice for a store. *)
let first_cache ctx ~is_store = if is_store then ctx.m.l2s.(ctx.sm) else ctx.m.l1s.(ctx.sm)

(** One warp-level global-memory request over lanes [lo, hi): the 32 B
    sectors the active lanes touch, counted per sector, probed once per
    run of sectors in one line ({!probe_run}). Ascending sectors of one
    line are consecutive, so this makes the hits and misses of probing
    every sector in turn. *)
let global_request ctx ~is_store (addrs : int array) bits lo hi =
  let n = coalesce ctx Counters.sector_shift addrs bits lo hi in
  count_global ctx ~is_store 1 n;
  let cache = first_cache ctx ~is_store in
  let scratch = ctx.m.scratch in
  let shift = Counters.sector_shift in
  let i = ref 0 in
  while !i < n do
    let a = Array.unsafe_get scratch !i lsl shift in
    let ln = Cache.line cache a in
    let j = ref (!i + 1) in
    while !j < n && Cache.line cache (Array.unsafe_get scratch !j lsl shift) = ln do
      incr j
    done;
    probe_run ctx ~is_store a (!j - !i);
    i := !j
  done

(** One warp-level shared-memory request over lanes [lo, hi), costing
    one transaction per bank-conflict replay: the most distinct 32-bit
    words any one bank is asked for. Distinct words spanning fewer
    than [shmem_banks] fall in distinct banks, so such a warp costs
    one transaction without the bank table. *)
let shared_request ctx ~is_store (addrs : int array) bits lo hi =
  let scratch = ctx.m.scratch and bank_counts = ctx.m.bank_counts in
  let banks = ctx.m.target.Pgpu_target.Descriptor.shmem_banks in
  let nwords = coalesce ctx 2 addrs bits lo hi in
  let replays = ref 1 in
  if scratch.(nwords - 1) - scratch.(0) >= banks then begin
    Array.fill bank_counts 0 banks 0;
    let pow2 = banks land (banks - 1) = 0 in
    for i = 0 to nwords - 1 do
      let w = Array.unsafe_get scratch i in
      let b = if pow2 then w land (banks - 1) else w mod banks in
      let n = bank_counts.(b) + 1 in
      bank_counts.(b) <- n;
      if n > !replays then replays := n
    done
  end;
  count_shared ctx ~is_store 1 !replays

(** The one-lane arm of {!requests}: each active lane is a warp of one
    sector or word. Its counters move once per instruction, by the
    active-lane count, and consecutive active lanes whose sectors
    share a line probe it once ({!probe_run}). *)
let lane_requests ctx ~is_store (space : Types.space) (addrs : int array) (mask : mask) =
  let c = ctx.m.counters in
  let k = mask.active in
  c.Counters.warp_insts <- c.Counters.warp_insts +. float_of_int k;
  match space with
  | Types.Shared -> count_shared ctx ~is_store k k
  | Types.Global | Types.Host ->
      count_global ctx ~is_store k k;
      let cache = first_cache ctx ~is_store in
      let bits = mask.bits in
      let shift = Counters.sector_shift in
      (* the open run: its first sector address, its line, its length *)
      let a0 = ref 0 and ln0 = ref (-1) and run = ref 0 in
      for l = 0 to ctx.nlanes - 1 do
        if Array.unsafe_get bits l then begin
          let a = (Array.unsafe_get addrs l lsr shift) lsl shift in
          let ln = Cache.line cache a in
          if ln = !ln0 then incr run
          else begin
            if !run > 0 then probe_run ctx ~is_store !a0 !run;
            a0 := a;
            ln0 := ln;
            run := 1
          end
        end
      done;
      if !run > 0 then probe_run ctx ~is_store !a0 !run

(** The memory-request model of one memory instruction: one warp
    instruction, plus one request, per warp with an active lane. *)
let requests ctx ~is_store (space : Types.space) (addrs : int array) (mask : mask) =
  if ctx.ws = 1 then lane_requests ctx ~is_store space addrs mask
  else begin
    let c = ctx.m.counters in
    let bits = mask.bits in
    let n = ctx.nlanes in
    let ws = ctx.ws in
    let full = mask.active = n in
    for w = 0 to Pgpu_support.Util.ceil_div n ws - 1 do
      let lo = w * ws in
      let hi = Int.min (lo + ws) n in
      let l = ref lo in
      if not full then
        while !l < hi && not (Array.unsafe_get bits !l) do
          incr l
        done;
      if !l < hi then begin
        c.Counters.warp_insts <- c.Counters.warp_insts +. 1.;
        match space with
        | Types.Global | Types.Host -> global_request ctx ~is_store addrs bits lo hi
        | Types.Shared -> shared_request ctx ~is_store addrs bits lo hi
      end
    done
  end

(* ------------------------------------------------------------------ *)
(* Uniform coercions                                                   *)
(* ------------------------------------------------------------------ *)

let ui_of = function
  | UI x -> x
  | UF x -> int_of_float x
  | VI _ | VF _ | UB _ | VB _ -> invalid_arg "exec: expected uniform scalar"

let uf_of = function
  | UF x -> x
  | UI x -> float_of_int x
  | VI _ | VF _ | UB _ | VB _ -> invalid_arg "exec: expected uniform scalar"

let to_ub = function UB b -> b | _ -> invalid_arg "exec: expected uniform buffer"

exception Device_error of string

let device_fail fmt = Fmt.kstr (fun s -> raise (Device_error s)) fmt

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
    through [env], pick the executed blocks, assign each to an SM (a
    core on a CPU), run each through [runner] with the deterministic
    allocator of its linear index, and extrapolate.

    The target's kind picks the schedule. A GPU assigns SMs
    round-robin by executed position, starting where the previous
    launch stopped ([next_sm]), and its L2 slices persist across
    launches. A CPU gives core [j / chunk] the block at executed
    position [j], with [chunk = ceil (executed / min cores executed)]
    (one contiguous chunk per core, as an OpenMP static schedule),
    starts every launch at core 0, and empties its L2 slices at every
    launch. Every launch empties the L1s. Only the caches [m] owns are
    reset or probed: on a clone ({!clone_machine}), an SM the launch
    assigns a block to and whose caches are still the source's gets
    its own clones of them first, emptied as the launch empties the
    owned ones.

    The launch's thread count is the larger of the first thread-level
    parallel's extents ({!block_dims_of}) and the largest thread count
    an executed block reached, so a launch whose blocks reach none
    reports its static block size, not a previous launch's.

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
      (* an empty grid is legal (an epilogue may launch none), a
         negative one is not *)
      if List.exists (fun d -> d < 0) dims then
        device_fail "grid with a negative extent (%a)" Fmt.(list ~sep:(any ", ") int) dims;
      let total = List.fold_left ( * ) 1 dims in
      let cpu = m.target.Pgpu_target.Descriptor.kind = Pgpu_target.Descriptor.Cpu in
      let saved = m.counters in
      m.counters <- Counters.create ();
      m.counters.Counters.launches <- 1.;
      m.observed_threads <- 1;
      Array.iteri
        (fun s own ->
          if own then begin
            Cache.reset m.l1s.(s);
            if cpu then Cache.reset m.l2s.(s)
          end)
        m.owned;
      let block_dims = block_dims_of env body in
      let result_threads = ref (List.fold_left ( * ) 1 block_dims) in
      let indices = sampled_blocks mode total in
      let executed = Array.length indices in
      if executed > 0 then begin
        let sm_count = m.target.Pgpu_target.Descriptor.sm_count in
        let start_sm = m.next_sm in
        (* a GPU assigns SMs round-robin by executed position, from
           where the last launch stopped; a CPU gives each core one
           contiguous chunk, from core 0 *)
        let sm_of =
          if cpu then
            let chunk = Pgpu_support.Util.ceil_div executed (min sm_count executed) in
            fun j -> j / chunk
          else fun j -> (start_sm + j) mod sm_count
        in
        (* a clone takes its own caches on an SM when a block first
           runs there, emptied as the owned ones were above *)
        for j = 0 to executed - 1 do
          let s = sm_of j in
          if not m.owned.(s) then begin
            m.l1s.(s) <- Cache.clone m.l1s.(s);
            Cache.reset m.l1s.(s);
            m.l2s.(s) <- Cache.clone m.l2s.(s);
            if cpu then Cache.reset m.l2s.(s);
            m.owned.(s) <- true
          end
        done;
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
                  m.observed_threads <- max m.observed_threads w.observed_threads)
                wrappers
            end
            else run_blocks m (fun _ -> true));
        if not cpu then m.next_sm <- (start_sm + executed) mod sm_count;
        extrapolate m.counters ~total ~executed;
        result_threads := max !result_threads m.observed_threads
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


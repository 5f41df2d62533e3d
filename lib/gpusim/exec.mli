(** The simulated machine and the grid loop that kernels run on.

    One GPU block runs with *all its threads at once*: every SSA value
    inside the thread-level parallel is either uniform or a per-lane
    array, and divergent control flow is handled with lane masks.
    Blocks of a grid are run by one grid loop ({!run_grid}) on every
    target, GPU or CPU, optionally sampled (with counter
    extrapolation) for large grids where only timing is of interest.

    This interface is the engine seam: the slot-indexed compiled
    engine ({!Compile}) executes against the machine, masks, counting
    ({!count_op}) and memory-request model ({!requests}) exposed here.
    The tree-walking reference interpreter the tests keep as its
    oracle ([test/interp.ml]) drives the same machine, masks and
    counting, but models memory with a reference request model of its
    own, so engine parity checks {!requests} too. *)

open Pgpu_ir

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
          per-block allocator while a block body runs *)
  l2s : Cache.t array;
      (** the L2 modelled as per-SM slices: an access from SM [s]
          probes [l2s.(s)] only, making all cache state per-SM so that
          sharded launches are bit-identical to sequential ones *)
  l1s : Cache.t array;
  owned : bool array;
      (** per SM: whether [l1s] and [l2s] hold this machine's own
          caches there; a clone holds its source's until a block first
          runs there *)
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

(** A fresh machine: one L1 and one L2 slice per SM, or per core on a
    CPU target. A GPU's L2 slices have 128 B lines, a CPU's the core's
    line size ([l1_line_bytes]). *)
val create_machine : Pgpu_target.Descriptor.t -> machine

val clone_machine : machine -> machine
(** A private copy of [m] that never writes state [m] can see, safe to
    execute on another domain, alongside other clones of [m] (the race
    detector is not carried over: trial machines never race-check).
    Every TDO trial runs on one. It copies no cache: {!run_grid}
    clones an SM's L1 and L2 slice ({!Cache.clone}, copy-on-write)
    when it first assigns a block there, so a clone costs the SMs its
    launches run on and the rows they probe, not the caches [m]
    holds.

    {b Source-idle rule:} [m] still owns the caches and rows its
    clones share, so [m] must not be probed while a clone of it is in
    use. The TDO search keeps this rule: the live machine is idle
    until every trial is done, and then either adopts the winner's
    clone ({!adopt}) or runs the commit. *)

val adopt : machine -> clone:machine -> unit
(** [adopt m ~clone] leaves on [m], which owns all its caches (it is
    not itself a clone), what the launches run on [clone] (a
    {!clone_machine} of [m] made while [m] stayed idle) left on
    [clone], as far as [m]'s later launches can tell: its host
    allocator, [next_sm] and, on a GPU, its L2 slices. Every launch
    empties the L1s, and on a CPU the L2 slices, before its first
    block, so nothing else carries over. Each L2 slice [clone] cloned
    takes back the rows its clone owns ({!Cache.write_back}), under
    [m]'s stamp, so [m] holds no second copy of what it already held.
    [clone] must be dropped afterwards. *)

(** The host register file: what host code computes, and what kernel
    launches read their arguments and grid geometry from. Three
    unboxed banks share one slot numbering: every value has one slot,
    held in the bank its type picks ({!bank}): memrefs in [bufs],
    floats in [floats], the rest in [ints]. The runtime gives every
    host value of a run its slot ({!slot}) before the first host
    instruction runs, and its compiled host code reads and writes the
    banks directly. A slot no instruction has written yet reads as
    [0], [0.] or an empty buffer.

    {!bind} and {!lookup} serve what reads or writes the env once per
    launch and the tests. The banks are only ever replaced (they grow
    by {!slot}), so a copy of the record with copied banks is a
    private env that shares the read-only [index]: what a TDO trial
    runs on. *)
type env = {
  index : (int, int) Hashtbl.t;  (** value id -> slot *)
  mutable ints : int array;
  mutable floats : float array;
  mutable bufs : Memory.buf array;
}

type bank = Ints | Floats | Bufs

(** The bank a value of this type lives in. *)
val bank : Types.t -> bank

val env_create : unit -> env

(** [slot env v] is [v]'s slot, given a fresh one when [v] has
    none. *)
val slot : env -> Value.t -> int

(** Store a uniform value in [v]'s slot, with the coercions of the
    host program's scalar reads ([UI] into a float slot converts,
    [UF] into an int slot truncates).
    @raise Failure on a per-lane value, or a buffer/scalar mismatch. *)
val bind : env -> Value.t -> rv -> unit

(** The value in [v]'s slot, boxed by [v]'s bank.
    @raise Failure on a value without a slot. *)
val lookup : env -> Value.t -> rv

(** A lane mask as its active lanes: [lanes.(0 .. active - 1)], in
    ascending order, and [warps], the number of warps that hold one.
    The engine rebuilds the masks it owns in place (a varying branch
    splits its parent's list, a varying loop filters it); a mask
    passed to an instruction is only read. *)
type mask = { lanes : int array; mutable active : int; mutable warps : int }

type ctx = {
  m : machine;
  mutable nlanes : int;
  ws : int;  (** warp size *)
  mutable sm : int;  (** SM executing the current block *)
}

(** Every lane of [ctx.nlanes]. *)
val full_mask : ctx -> mask

(** The mask of the lanes whose bit is set, of [ctx.nlanes]: how the
    tests' oracle, which keeps per-lane booleans, makes its masks. The
    engine builds its own from its parent's list and never calls it. *)
val mask_of_bits : ctx -> bool array -> mask

(** Issue classes of the operation counters. *)
type op_class = Cint | Cfp32 | Cfp64 | Csfu

(** Count one issued operation over the active lanes of [mask]. *)
val count_op : ctx -> mask -> op_class -> unit

val class_of_binop : Types.t -> Ops.binop -> op_class
val class_of_unop : Types.t -> Ops.unop -> op_class

(** [requests ctx ~is_store space addrs mask] models one memory
    instruction over the active lanes of [mask], lane [l] accessing
    byte address [addrs.(l)] of [space] (already resolved: a shared
    access the machine demotes to global arrives as [Global]); it
    reads [addrs] at listed lanes only. It issues one warp
    instruction, plus one request, per warp with an active lane: a
    full mask per warp of lanes, any other mask per run of its list
    in one warp.

    A global request coalesces its warp's active lanes into distinct
    32 B sectors ({!Counters.sector_shift}), counted per sector. A
    load walks each sector through the SM's L1 and, on a miss, its L2
    slice; a store is write-through, no-allocate, and probes only the
    L2 slice. The probes are made once per run of ascending sectors
    that share a line ({!Cache.access_run}), which leaves every cache
    and counter as probing each sector in turn would. A shared request
    costs one transaction per bank-conflict replay: the most distinct
    32-bit words any one bank is asked for.

    At [ctx.ws = 1] (the CPU targets) each listed lane is its own warp
    of one sector or word: the counters move once per instruction, by
    the active-lane count, and consecutive listed lanes in one line
    make one probe. The results are those of the warp rule applied to
    every lane. *)
val requests : ctx -> is_store:bool -> Types.space -> int array -> mask -> unit

(** Uniform-scalar coercions (raise [Invalid_argument] on vectors). *)
val ui_of : rv -> int

val uf_of : rv -> float
val to_ub : rv -> Memory.buf

exception Device_error of string

val device_fail : ('a, Format.formatter, unit, 'b) format4 -> 'a

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

(** Dimensions of the first thread-level parallel reachable in the
    block body, resolved through [env]. *)
val block_dims_of : env -> Instr.block -> int list

(** A per-block runner: [runner m] readies a kernel to execute on
    machine [m] (a launch machine or a shard's wrapper of one) and
    returns the function that runs block [lb] on SM [sm] of [m],
    counting it in [m]'s block counter. *)
type runner = machine -> sm:int -> int -> unit

(** The grid loop, for every target. Resolves the grid-level parallel
    [p] through [env], executes the blocks [mode] selects — each on an
    SM (a core on a CPU), with the deterministic device allocator of
    its linear index — and extrapolates the counters to the full grid.
    A grid with a negative extent raises [Device_error]; an empty one
    runs no block.

    The target's kind picks the schedule. On a GPU, SMs are assigned
    round-robin by executed position, from where the previous launch
    stopped, and the L2 slices persist across launches. On a CPU, core
    [c] runs the [c]-th contiguous chunk of
    [ceil (executed / min cores executed)] executed blocks, every
    launch starts at core 0, and the L2 slices are emptied at every
    launch. Every launch empties the L1s. It resets and probes only
    the caches [m] owns: on a clone, an SM that is assigned a block
    while its caches are still the source's gets clones of them
    first, emptied as the owned ones were. [threads_per_block] is the
    larger of the static block size ({!block_dims_of}) and the largest
    thread count an executed block reached.

    [jobs] (default 1) shards the executed blocks over the persistent
    domain pool, grouping blocks by their assigned SM so every per-SM
    cache sees the same access sequence as a sequential launch —
    outputs, counters and simulated times are bit-identical to
    [jobs = 1]. Falls back to sequential execution when a race detector
    is attached or the grid is small. *)
val run_grid : ?jobs:int -> machine -> mode:mode -> env:env -> Instr.instr -> runner -> launch_result

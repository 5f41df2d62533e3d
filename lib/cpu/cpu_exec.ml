(** Domain-parallel CPU execution of retargeted kernels.

    A kernel region lowered by barrier fission contains only
    barrier-free thread-level parallels, so each block can be run by
    one simulated core with no cross-thread synchronization. The block
    grid is statically chunked across the target's cores (one
    contiguous chunk per core), and the chunks run concurrently on
    OCaml domains ([Pool.map ~jobs] bounds host parallelism;
    the simulated core count bounds the chunking).

    Each simulated core owns its performance state — an event-counter
    record, a private L1 and a slice of the shared last-level cache,
    and an address allocator for block-shared scratch — so cores never
    contend on simulator state. Functional memory (the [Memory.buf]
    contents) is shared between domains: race-free kernels write
    disjoint elements, which OCaml arrays support without locking.
    Counters are merged in core order after the join, keeping results
    deterministic regardless of domain scheduling.

    The cores are kept across launches by the state that owns them (a
    runtime state, or a TDO trial's), each with its own
    {!Compile.frames}: a launch gives every core it uses fresh
    counters and resets its L1 and L2 slice ({!Cache.reset} leaves a
    cache as a fresh one), and the core rebinds its kernel's register
    files instead of allocating them. A core and its frames are driven
    by one domain at a time; no table is shared between cores.

    Each block runs through the compiled engine with [warp_size = 1]:
    after fission every epoch is barrier-free, so executing its
    threads as one lockstep group is observably identical to a
    sequential per-thread loop. At that width the memory-request model
    ({!Exec.requests}) takes its one-lane arm:
    every element access is one request of one 32 B sector through
    the core's L1 and L2 slice (or one shared transaction) — the
    per-element traffic a compiled CPU loop nest would issue — with
    no warp coalescing or bank-conflict modelling to pay for, and
    consecutive accesses to one line cost the host one cache probe. *)

open Pgpu_ir
module Descriptor = Pgpu_target.Descriptor
open Pgpu_gpusim

let src = Logs.Src.create "pgpu.cpu" ~doc:"CPU backend executor"

module Log = (val Logs.src_log src : Logs.LOG)

(* ------------------------------------------------------------------ *)
(* Per-core simulator state                                            *)
(* ------------------------------------------------------------------ *)

(** One simulated core's machine: a single L1, and as its L2 this
    core's slice of the device's shared last-level capacity. *)
let core_machine (t : Descriptor.t) : Exec.machine =
  {
    Exec.target = t;
    alloc = Memory.allocator ();
    l2s =
      [|
        Cache.create
          ~size_bytes:(max 4096 (t.Descriptor.l2_bytes / max 1 t.Descriptor.sm_count))
          ~line_bytes:t.Descriptor.l1_line_bytes ~ways:16;
      |];
    l1s =
      [|
        Cache.create ~size_bytes:t.Descriptor.l1_bytes_per_sm
          ~line_bytes:t.Descriptor.l1_line_bytes ~ways:8;
      |];
    counters = Counters.create ();
    next_sm = 0;
    observed_threads = 1;
    shared_as_global = false;
    racecheck = None;
    scratch = Array.make 64 0;
    bank_counts = Array.make 64 0;
  }

(** A simulated core: its machine, and the register files of the
    kernels it has run ({!Compile.frames}), rebound at each launch. *)
type core = { machine : Exec.machine; frames : Compile.frames }

type cores = { target : Descriptor.t; mutable cores : core array }

let cores target = { target; cores = [||] }

(** Make the first [n] cores exist. Runs on the launching domain,
    before the cores are handed to theirs. *)
let ready cs n =
  let have = Array.length cs.cores in
  if have < n then
    cs.cores <-
      Array.append cs.cores
        (Array.init (n - have) (fun _ ->
             let machine = core_machine cs.target in
             { machine; frames = Compile.frames machine }))

(** Ready a core for a launch: fresh counters and thread count, and
    empty caches ({!Cache.reset} leaves a cache as a fresh one). *)
let reset { machine = m; _ } =
  m.Exec.counters <- Counters.create ();
  m.Exec.observed_threads <- 1;
  Array.iter Cache.reset m.Exec.l1s;
  Array.iter Cache.reset m.Exec.l2s

(* ------------------------------------------------------------------ *)
(* Static vectorization analysis                                       *)
(* ------------------------------------------------------------------ *)

(** Fraction of thread-level work the compiler's vectorizer would
    cover, estimated statically: an epoch (thread-level parallel)
    vectorizes when its body is straight-line — no [If]/[While]
    anywhere inside, since divergent lanes defeat packed execution.
    Epochs are weighted by their instruction counts; all epochs of a
    kernel iterate the same thread set, so instruction count is the
    right relative weight. Returns a fraction in [0, 1] (1 when the
    region has no thread-level parallel at all). *)
let vector_fraction (region : Instr.block) : float =
  let total = ref 0 and vec = ref 0 in
  let count b =
    let n = ref 0 in
    Instr.iter_deep (fun _ -> incr n) b;
    !n
  in
  let divergent b =
    let d = ref false in
    Instr.iter_deep (fun i -> match i with Instr.If _ | Instr.While _ -> d := true | _ -> ()) b;
    !d
  in
  Instr.iter_deep
    (fun i ->
      match i with
      | Instr.Parallel { level = Instr.Threads; body; _ } ->
          let n = count body in
          total := !total + n;
          if not (divergent body) then vec := !vec + n
      | _ -> ())
    region;
  if !total = 0 then 1. else float_of_int !vec /. float_of_int !total

(* ------------------------------------------------------------------ *)
(* Grid launch                                                         *)
(* ------------------------------------------------------------------ *)

type launch_result = {
  result : Exec.launch_result;  (** counters merged across all cores *)
  vector_fraction : float;  (** statically vectorizable share of thread work *)
  cores_used : int;  (** simulated cores that received blocks *)
}

(** Launch the grid-level parallel [p] across [cs], the cores of a
    CPU target. [env] must bind every free value of the kernel region.
    The blocks to execute and the extrapolation of their counters come
    from the grid loop ({!Exec.sampled_blocks}, {!Exec.extrapolate});
    each core is reset, then runs its contiguous chunk through
    [runner frames], readied on that core's machine with its frames.
    [jobs] bounds concurrent OCaml domains (the simulated core count
    bounds the work split); each core is driven by one domain. Raises
    [Exec.Device_error] on the same malformed-IR conditions as
    {!Exec.run_grid}. *)
let launch (cs : cores) ~(jobs : int) ~(mode : Exec.mode) ~(env : Exec.env) (p : Instr.instr)
    (runner : Compile.frames -> Exec.runner) : launch_result =
  let target = cs.target in
  match p with
  | Instr.Parallel { level = Instr.Blocks; ubs; body; _ } ->
      let dims = List.map (fun u -> Exec.ui_of (Exec.lookup env u)) ubs in
      let total = List.fold_left ( * ) 1 dims in
      let block_dims = Exec.block_dims_of env body in
      let vf = vector_fraction [ p ] in
      let indices = Exec.sampled_blocks mode total in
      let executed = Array.length indices in
      let ncores = max 1 (min target.Descriptor.sm_count executed) in
      (* static chunking: core c takes the c-th contiguous run of
         blocks, mirroring an OpenMP static schedule *)
      let chunk = Pgpu_support.Util.ceil_div executed ncores in
      let work = List.filter (fun c -> c * chunk < executed) (List.init ncores Fun.id) in
      ready cs ncores;
      let run_core c =
        let core = cs.cores.(c) in
        reset core;
        let m = core.machine in
        let run = runner core.frames m in
        (* block-shared scratch comes from the deterministic per-block
           allocator, so simulated addresses depend only on the block
           index — never on which core (or how many) ran the block *)
        for j = c * chunk to min executed ((c + 1) * chunk) - 1 do
          m.Exec.alloc <- Memory.block_allocator indices.(j);
          run ~sm:0 indices.(j)
        done;
        (m.Exec.counters, m.Exec.observed_threads)
      in
      let per_core = Pgpu_support.Pool.(map (get ())) ~jobs run_core work in
      let merged = Counters.create () in
      merged.Counters.launches <- 1.;
      let threads = ref (List.fold_left ( * ) 1 block_dims) in
      List.iter
        (fun (c, obs) ->
          Counters.accumulate merged c;
          if obs > !threads then threads := obs)
        per_core;
      Exec.extrapolate merged ~total ~executed;
      Log.debug (fun k ->
          k "cpu launch: %d block(s) on %d core(s), vec %.0f%%, %.3g instr(s)" total
            (List.length work) (vf *. 100.) merged.Counters.warp_insts);
      {
        result =
          {
            Exec.nblocks = total;
            threads_per_block = !threads;
            grid_dims = dims;
            block_dims;
            counters = merged;
          };
        vector_fraction = vf;
        cores_used = List.length work;
      }
  | _ -> raise (Exec.Device_error "cpu launch expects a blocks-level parallel")

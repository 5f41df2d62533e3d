(** Domain-parallel CPU execution of fission-lowered kernel regions.
    Blocks are statically chunked across the target's simulated cores
    (each with private counters, L1, an L2 slice, and a scratch
    allocator) and run concurrently on OCaml domains; counters
    merge in core order, so results are deterministic. The cores
    outlive a launch: each keeps its machine and its kernels' register
    files, and a launch resets its counters and caches to a fresh
    core's, so a relaunch allocates no register banks. *)

open Pgpu_ir
open Pgpu_gpusim

(** Statically-estimated vectorizable share of a region's thread-level
    work: epochs whose bodies are straight-line (no [If]/[While]),
    weighted by instruction count. 1 when the region has no
    thread-level parallel. *)
val vector_fraction : Instr.block -> float

type launch_result = {
  result : Exec.launch_result;  (** counters merged across all cores *)
  vector_fraction : float;  (** statically vectorizable share of thread work *)
  cores_used : int;  (** simulated cores that received blocks *)
}

(** The simulated cores of one CPU target, kept across launches: each
    core's machine (counters, L1, L2 slice, scratch allocator) and
    the register files of the kernels it has run. A runtime state and
    each TDO trial's state own one set; a set is driven by one launch
    at a time. *)
type cores

(** [cores target] is an empty set; cores are made at first use. *)
val cores : Pgpu_target.Descriptor.t -> cores

(** [launch cores ~jobs ~mode ~env p runner] launches the grid-level
    parallel [p] across the target's cores. The executed blocks and
    the counter extrapolation come from the grid loop
    ({!Exec.sampled_blocks}, {!Exec.extrapolate}). Each core used is
    reset — fresh counters, empty caches — and runs its static chunk
    through [runner frames] (the compiled kernel's {!Compile.runner}
    on the core's frames), readied on that core's machine. [env] must
    bind every free value of the kernel region. [jobs] bounds
    concurrent OCaml domains; each core, and its frames, is driven by
    one domain. Raises [Exec.Device_error] on malformed IR, like
    {!Exec.run_grid}. *)
val launch :
  cores ->
  jobs:int ->
  mode:Exec.mode ->
  env:Exec.env ->
  Instr.instr ->
  (Compile.frames -> Exec.runner) ->
  launch_result

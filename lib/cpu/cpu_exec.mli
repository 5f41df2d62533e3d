(** Domain-parallel CPU execution of fission-lowered kernel regions.
    Blocks are statically chunked across the target's simulated cores
    (each with private counters, L1, an L2 slice, and a scratch
    allocator) and run concurrently on OCaml domains; counters
    merge in core order, so results are deterministic. *)

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

(** [launch target ~jobs ~mode ~env p runner] launches the grid-level
    parallel [p] across the target's cores. The executed blocks and
    the counter extrapolation come from the grid loop
    ({!Exec.sampled_blocks}, {!Exec.extrapolate}); each core runs its
    static chunk through [runner] (the compiled kernel's
    {!Compile.runner}), readied on that core's machine. [env] must
    bind every free value of the kernel region. [jobs] bounds
    concurrent OCaml domains. Raises [Exec.Device_error] on malformed
    IR, like {!Exec.run_grid}. *)
val launch :
  Pgpu_target.Descriptor.t ->
  jobs:int ->
  mode:Exec.mode ->
  env:Exec.env ->
  Instr.instr ->
  Exec.runner ->
  launch_result

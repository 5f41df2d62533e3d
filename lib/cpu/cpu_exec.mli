(** Domain-parallel CPU execution of fission-lowered kernel regions.
    Blocks are statically chunked across the target's simulated cores
    (each with private counters, L1, an L2 slice, and a scratch
    allocator) and interpreted concurrently on OCaml domains; counters
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

(** Launch a grid-level parallel across the target's cores. The
    executed blocks and the counter extrapolation come from the grid
    loop ({!Exec.sampled_blocks}, {!Exec.extrapolate}); each core
    runs its static chunk through the compiled kernel's runner when
    [compiled] is given, else the tree-walker's. [env] must bind every
    free value of the kernel region. [jobs] bounds concurrent OCaml
    domains. Raises [Exec.Device_error] on malformed IR, like the
    lockstep interpreter. *)
val launch :
  Pgpu_target.Descriptor.t ->
  ?compiled:Compile.t ->
  jobs:int ->
  mode:Exec.mode ->
  env:Exec.env ->
  Instr.instr ->
  launch_result

(** Analytical CPU timing model: the GPU roofline restructured for
    cores — scalar/SIMD issue split by the vectorizable fraction, a
    per-core L1 + shared L2 + capacity-split L3/DRAM hierarchy, and
    out-of-order latency hiding instead of warp oversubscription.
    Produces the same [Timing.breakdown] record as the GPU model and
    raises [Timing.Infeasible] on configurations the target cannot
    host, so the runtime's timing-driven optimization treats CPU and
    GPU alternatives uniformly. *)

(** Statically-estimated vectorizable share of a region's thread-level
    work: epochs whose bodies are straight-line (no [If]/[While]),
    weighted by instruction count. 1 when the region has no
    thread-level parallel. *)
val vector_fraction : Pgpu_ir.Instr.block -> float

val estimate :
  Pgpu_target.Descriptor.t ->
  demand:Timing.demand_source ->
  vector_fraction:float ->
  Exec.launch_result ->
  Timing.breakdown

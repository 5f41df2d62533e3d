(** Analytical GPU timing model: converts the event counters of one
    kernel launch into a time estimate on a target. A latency-aware
    roofline — the maximum over per-resource throughput limits (issue,
    FP32/FP64/INT/SFU lanes, LSU, L1, shared memory, L2, DRAM) and a
    latency term that shrinks with occupancy and with the kernel's
    instruction-/memory-level parallelism — the mechanism through
    which thread and block coarsening pay off. Throughput scales with
    the SMs the grid actually occupies, so undersized or
    over-coarsened grids lose smoothly. *)

open Pgpu_target

type breakdown = {
  cycles : float;
  issue_cycles : float;
  fp32_cycles : float;
  fp64_cycles : float;
  int_cycles : float;
  sfu_cycles : float;
  lsu_cycles : float;
  l1_cycles : float;
  shared_cycles : float;
  l2_cycles : float;
  dram_cycles : float;
  l3_cycles : float;
      (** share of [dram_cycles] served by a last-level cache (CPU
          targets; [0.] on GPUs). Informational — already included in
          [dram_cycles], never an independent roofline term. *)
  latency_cycles : float;
  occupancy : Occupancy.result;
  utilization : float;  (** last-wave block-slot utilization *)
  lsu_utilization : float;  (** LSU issue-pipe busy fraction (Table II) *)
  fma_utilization : float;
  seconds : float;
}

(** Static per-kernel inputs of the model (from the backend). *)
type demand_source = {
  regs_per_thread : int;
  shmem_per_block : int;
  ilp : float;  (** independent instructions per dependency step *)
  mlp : float;  (** independent loads per dependent-load step *)
}

(** The kernel configuration cannot execute on the target at all. *)
exception Infeasible of string

val estimate : Descriptor.t -> demand:demand_source -> Exec.launch_result -> breakdown

(** The independent roofline terms as [(name, cycles)] pairs —
    [cycles] is their maximum. Single source of truth for "what limits
    this launch" consumers (profiler, bottleneck classifier). *)
val terms : breakdown -> (string * float) list

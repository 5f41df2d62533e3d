(** Backend kernel statistics: the ptxas-feedback stand-in.

    The paper's multi-versioning consults the real backend for the
    statistics that decide whether a coarsened replica is worth
    keeping — register usage and spilling. [analyze] reproduces them
    by lowering the kernel's per-thread region to the virtual ISA and
    running register allocation against the target's budget, and adds
    the static shared-memory demand (which block coarsening
    multiplies) plus ILP/MLP estimates that feed the latency term of
    the timing model. *)

open Pgpu_ir

type kernel_stats = {
  regs_per_thread : int;
  spilled : int;  (** registers spilled to local memory *)
  spill_instructions : int;
  static_shmem : int;  (** bytes of static shared memory per block *)
  ilp : float;  (** independent instructions per dependency step *)
  mlp : float;  (** independent loads per dependent-load step *)
  n_instructions : int;  (** virtual-ISA instructions in the thread body *)
}

val pp_stats : kernel_stats Fmt.t

(** The body of the first thread-level parallel loop in the region —
    the per-thread code that the register allocator models. *)
val find_threads_body : Instr.block -> Instr.block option

(** ILP and MLP estimates of the lowered per-thread code: instructions
    (resp. loads) divided by the depth of the longest dependency (resp.
    load-to-address) chain. [analyze] passes the program it lowered for
    register allocation, which does not modify it. *)
val parallelism : Visa.program -> float * float

val analyze : Descriptor.t -> Instr.block -> kernel_stats

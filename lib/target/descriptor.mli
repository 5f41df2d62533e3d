(** Target machine descriptors (the paper's Table I, plus the CPU
    targets of the barrier-fission backend).

    One record per machine: the parameters that the occupancy
    calculator, the virtual-ISA backend, the functional simulators and
    the timing models consume. Peak arithmetic throughput is *derived*
    from lane counts and clocks, so headline numbers are a consequence
    of the machine model rather than free constants. *)

type vendor = Nvidia | Amd | Generic

(** Whether the descriptor models a GPU (SPMD warps on SMs/CUs) or a
    CPU (barrier-fissioned loop nests, each block run sequentially on
    one core). The simulator's one grid loop picks its block schedule
    and L2 policy from it. For CPU descriptors the per-SM fields are
    reinterpreted per core and [warp_size] is 1. *)
type kind = Gpu | Cpu

type t = {
  name : string;  (** short lower-case name, e.g. ["a100"] *)
  arch : string;  (** compiler target triple component, e.g. ["sm_80"] *)
  vendor : vendor;
  kind : kind;
  sm_count : int;  (** streaming multiprocessors / compute units / CPU cores *)
  warp_size : int;  (** 32-wide warps (NVIDIA), 64-wide wavefronts (CDNA), 1 on CPUs *)
  clock_ghz : float;  (** sustained boost clock used for throughput *)
  issue_per_cycle : int;  (** warp instructions issued per SM per cycle *)
  simd_width : int;
      (** data-parallel lanes of one vector instruction: the warp width
          on GPUs, the vector-register width (f32 elements) on CPUs *)
  fp32_lanes_per_sm : int;
  fp64_lanes_per_sm : int;
  int_lanes_per_sm : int;
  sfu_lanes_per_sm : int;  (** special-function units: sqrt, exp, sin, ... *)
  lsu_lanes_per_sm : int;  (** load/store address lanes *)
  max_threads_per_block : int;
  max_threads_per_sm : int;
  max_blocks_per_sm : int;
  regs_per_sm : int;  (** 32-bit registers in the SM register file *)
  max_regs_per_thread : int;  (** backend register budget per thread *)
  shmem_per_sm : int;  (** shared memory (LDS) bytes per SM *)
  max_shmem_per_block : int;
      (** static shared-memory budget the compiler accepts per block;
          alternatives demanding more are pruned (Section VI) *)
  shmem_banks : int;
  l1_bytes_per_sm : int;
  l1_line_bytes : int;
  l2_bytes : int;
      (** device-wide on GPUs; total across per-core slices on CPUs *)
  l3_bytes : int;  (** shared last-level cache; 0 on the GPU targets *)
  l3_bandwidth_gbs : float;  (** aggregate L3 bandwidth; 0 on GPUs *)
  l1_latency : float;  (** load-to-use latencies, in cycles *)
  l2_latency : float;
  dram_latency : float;
  alu_latency : float;
  l2_bandwidth_gbs : float;
  mem_bandwidth_gbs : float;  (** DRAM/HBM bandwidth *)
  h2d_bandwidth_gbs : float;  (** host-device interconnect (PCIe) *)
  kernel_launch_overhead : float;  (** seconds per kernel launch *)
  block_dispatch_overhead : float;  (** seconds per dispatched block *)
}

(** Peak FP32 throughput in TFLOP/s: FMA counts as two operations. *)
val fp32_tflops : t -> float

val fp64_tflops : t -> float

val a4000 : t
val a100 : t
val rx6800 : t
val mi210 : t

(** Generic 16-core desktop-class x86-64 CPU (AVX2): the default
    [--target cpu] machine of the barrier-fission backend. *)
val cpu : t

(** AMD EPYC 7763 (Zen 3): a 64-core server part. *)
val epyc7763 : t

(** Every registered target, GPUs first. *)
val all : t list

val gpus : t list
val pp_vendor : vendor Fmt.t
val pp : t Fmt.t

(** Header and rows of the paper's Table I (GPU targets), rendered
    from the descriptors. *)
val table1_rows : unit -> string list * string list list

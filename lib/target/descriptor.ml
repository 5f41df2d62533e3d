(** Target GPU descriptors (Table I).

    One record per GPU used in the paper's evaluation: the machine
    parameters that the occupancy calculator, the virtual-ISA backend,
    the functional simulator and the timing model consume. Peak
    arithmetic throughput is *derived* from lane counts and clocks
    ([fp32_tflops]/[fp64_tflops]), so the Table I headline numbers are
    a consequence of the machine model rather than free constants. *)

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
  (* --- machine shape --- *)
  sm_count : int;  (** streaming multiprocessors / compute units / CPU cores *)
  warp_size : int;  (** 32-wide warps (NVIDIA), 64-wide wavefronts (CDNA), 1 on CPUs *)
  clock_ghz : float;  (** sustained boost clock used for throughput *)
  issue_per_cycle : int;  (** warp instructions issued per SM per cycle *)
  simd_width : int;
      (** data-parallel lanes of one vector instruction: the warp width
          on GPUs, the vector-register width (f32 elements) on CPUs *)
  (* --- execution lanes per SM, in results per cycle --- *)
  fp32_lanes_per_sm : int;
  fp64_lanes_per_sm : int;
  int_lanes_per_sm : int;
  sfu_lanes_per_sm : int;  (** special-function units: sqrt, exp, sin, ... *)
  lsu_lanes_per_sm : int;  (** load/store address lanes *)
  (* --- occupancy limits --- *)
  max_threads_per_block : int;
  max_threads_per_sm : int;
  max_blocks_per_sm : int;
  regs_per_sm : int;  (** 32-bit registers in the SM register file *)
  max_regs_per_thread : int;  (** backend register budget per thread *)
  shmem_per_sm : int;  (** shared memory (LDS) bytes per SM *)
  max_shmem_per_block : int;
      (** static shared-memory budget the compiler accepts per block;
          alternatives demanding more are pruned (Section VI). On the
          A100 this is the 52 KiB static window that makes lud's
          2 KiB-tile block coarsening legal up to factor 26 (Fig. 14). *)
  shmem_banks : int;
  (* --- memory system --- *)
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
  (* --- launch costs --- *)
  kernel_launch_overhead : float;  (** seconds per kernel launch *)
  block_dispatch_overhead : float;  (** seconds per dispatched block *)
}

(** Peak FP32 throughput in TFLOP/s: FMA counts as two operations. *)
let fp32_tflops t =
  2. *. float_of_int (t.sm_count * t.fp32_lanes_per_sm) *. t.clock_ghz /. 1000.

let fp64_tflops t =
  2. *. float_of_int (t.sm_count * t.fp64_lanes_per_sm) *. t.clock_ghz /. 1000.

(** NVIDIA RTX A4000 (GA104): the workstation Ampere part — full FP32
    rate (128 lanes/SM) but 1/32-rate FP64. *)
let a4000 =
  {
    name = "a4000";
    arch = "sm_86";
    vendor = Nvidia;
    kind = Gpu;
    sm_count = 48;
    warp_size = 32;
    clock_ghz = 1.56;
    issue_per_cycle = 4;
    simd_width = 32;
    fp32_lanes_per_sm = 128;
    fp64_lanes_per_sm = 4;
    int_lanes_per_sm = 64;
    sfu_lanes_per_sm = 16;
    lsu_lanes_per_sm = 16;
    max_threads_per_block = 1024;
    max_threads_per_sm = 1536;
    max_blocks_per_sm = 16;
    regs_per_sm = 65536;
    max_regs_per_thread = 255;
    shmem_per_sm = 102400;
    max_shmem_per_block = 101376;
    shmem_banks = 32;
    l1_bytes_per_sm = 131072;
    l1_line_bytes = 128;
    l2_bytes = 4194304;
    l3_bytes = 0;
    l3_bandwidth_gbs = 0.;
    l1_latency = 28.;
    l2_latency = 190.;
    dram_latency = 380.;
    alu_latency = 4.;
    l2_bandwidth_gbs = 1200.;
    mem_bandwidth_gbs = 448.;
    h2d_bandwidth_gbs = 12.;
    kernel_launch_overhead = 4e-6;
    block_dispatch_overhead = 1.5e-9;
  }

(** NVIDIA A100 (GA100): the datacenter Ampere part — half-rate FP64
    (32 lanes/SM), 40 MiB L2, HBM2e. *)
let a100 =
  {
    name = "a100";
    arch = "sm_80";
    vendor = Nvidia;
    kind = Gpu;
    sm_count = 108;
    warp_size = 32;
    clock_ghz = 1.41;
    issue_per_cycle = 4;
    simd_width = 32;
    fp32_lanes_per_sm = 64;
    fp64_lanes_per_sm = 32;
    int_lanes_per_sm = 64;
    sfu_lanes_per_sm = 16;
    lsu_lanes_per_sm = 32;
    max_threads_per_block = 1024;
    max_threads_per_sm = 2048;
    max_blocks_per_sm = 32;
    regs_per_sm = 65536;
    max_regs_per_thread = 255;
    shmem_per_sm = 167936;
    max_shmem_per_block = 53248;
    shmem_banks = 32;
    l1_bytes_per_sm = 196608;
    l1_line_bytes = 128;
    l2_bytes = 41943040;
    l3_bytes = 0;
    l3_bandwidth_gbs = 0.;
    l1_latency = 28.;
    l2_latency = 200.;
    dram_latency = 400.;
    alu_latency = 4.;
    l2_bandwidth_gbs = 4000.;
    mem_bandwidth_gbs = 1555.;
    h2d_bandwidth_gbs = 24.;
    kernel_launch_overhead = 4e-6;
    block_dispatch_overhead = 1.5e-9;
  }

(** AMD Radeon RX 6800 (Navi 21, RDNA2): gaming part — wave32, high
    clocks, 1/16-rate FP64, 16 KiB vector L1 per CU. *)
let rx6800 =
  {
    name = "rx6800";
    arch = "gfx1030";
    vendor = Amd;
    kind = Gpu;
    sm_count = 60;
    warp_size = 32;
    clock_ghz = 2.105;
    issue_per_cycle = 4;
    simd_width = 32;
    fp32_lanes_per_sm = 64;
    fp64_lanes_per_sm = 4;
    int_lanes_per_sm = 64;
    sfu_lanes_per_sm = 16;
    lsu_lanes_per_sm = 32;
    max_threads_per_block = 1024;
    max_threads_per_sm = 2048;
    max_blocks_per_sm = 16;
    regs_per_sm = 65536;
    max_regs_per_thread = 256;
    shmem_per_sm = 65536;
    max_shmem_per_block = 65536;
    shmem_banks = 32;
    l1_bytes_per_sm = 16384;
    l1_line_bytes = 128;
    l2_bytes = 4194304;
    l3_bytes = 0;
    l3_bandwidth_gbs = 0.;
    l1_latency = 30.;
    l2_latency = 210.;
    dram_latency = 420.;
    alu_latency = 4.;
    l2_bandwidth_gbs = 1800.;
    mem_bandwidth_gbs = 512.;
    h2d_bandwidth_gbs = 12.;
    kernel_launch_overhead = 4e-6;
    block_dispatch_overhead = 1.5e-9;
  }

(** AMD Instinct MI210 (gfx90a, CDNA2): datacenter part — wave64 and
    full-rate vector FP64 (the Fig. 17 asymmetry). *)
let mi210 =
  {
    name = "mi210";
    arch = "gfx90a";
    vendor = Amd;
    kind = Gpu;
    sm_count = 104;
    warp_size = 64;
    clock_ghz = 1.7;
    issue_per_cycle = 4;
    simd_width = 64;
    fp32_lanes_per_sm = 64;
    fp64_lanes_per_sm = 64;
    int_lanes_per_sm = 64;
    sfu_lanes_per_sm = 16;
    lsu_lanes_per_sm = 32;
    max_threads_per_block = 1024;
    max_threads_per_sm = 2048;
    max_blocks_per_sm = 16;
    regs_per_sm = 65536;
    max_regs_per_thread = 256;
    shmem_per_sm = 65536;
    max_shmem_per_block = 65536;
    shmem_banks = 32;
    l1_bytes_per_sm = 16384;
    l1_line_bytes = 64;
    l2_bytes = 8388608;
    l3_bytes = 0;
    l3_bandwidth_gbs = 0.;
    l1_latency = 30.;
    l2_latency = 220.;
    dram_latency = 440.;
    alu_latency = 4.;
    l2_bandwidth_gbs = 3000.;
    mem_bandwidth_gbs = 1638.;
    h2d_bandwidth_gbs = 24.;
    kernel_launch_overhead = 4e-6;
    block_dispatch_overhead = 1.5e-9;
  }

(** Generic 16-core desktop-class x86-64 CPU (AVX2): the default
    [--target cpu] machine of the barrier-fission backend. Per-SM
    fields are per core: two 8-wide FMA pipes (16 f32 results/cycle),
    half-rate f64, four scalar ALUs, two load/store ports, 32 KiB L1D
    and a 512 KiB private L2 slice per core, one shared 32 MiB L3.
    Occupancy limits are permissive — a CPU "block" is just a loop
    iteration — but keep the same shape so alternatives pruning and
    the tuner work unchanged. *)
let cpu =
  {
    name = "cpu";
    arch = "x86_64";
    vendor = Generic;
    kind = Cpu;
    sm_count = 16;
    warp_size = 1;
    clock_ghz = 3.2;
    issue_per_cycle = 4;
    simd_width = 8;
    fp32_lanes_per_sm = 16;
    fp64_lanes_per_sm = 8;
    int_lanes_per_sm = 4;
    sfu_lanes_per_sm = 1;
    lsu_lanes_per_sm = 2;
    max_threads_per_block = 1024;
    max_threads_per_sm = 2048;
    max_blocks_per_sm = 32;
    regs_per_sm = 262144;
    max_regs_per_thread = 512;
    shmem_per_sm = 4194304;
    max_shmem_per_block = 2097152;
    shmem_banks = 32;
    l1_bytes_per_sm = 32768;
    l1_line_bytes = 64;
    l2_bytes = 8388608;
    l3_bytes = 33554432;
    l3_bandwidth_gbs = 400.;
    l1_latency = 4.;
    l2_latency = 14.;
    dram_latency = 300.;
    alu_latency = 4.;
    l2_bandwidth_gbs = 1600.;
    mem_bandwidth_gbs = 76.8;
    h2d_bandwidth_gbs = 76.8;
    kernel_launch_overhead = 5e-6;
    block_dispatch_overhead = 2e-8;
  }

(** AMD EPYC 7763 (Zen 3): a 64-core server part — same core
    micro-architecture assumptions as [cpu] but wider (8-channel DDR4)
    and with a much larger L3. *)
let epyc7763 =
  {
    cpu with
    name = "epyc7763";
    arch = "znver3";
    sm_count = 64;
    clock_ghz = 2.45;
    l2_bytes = 33554432;
    l3_bytes = 268435456;
    l3_bandwidth_gbs = 800.;
    mem_bandwidth_gbs = 204.8;
    h2d_bandwidth_gbs = 204.8;
  }

let all = [ a4000; a100; rx6800; mi210; cpu; epyc7763 ]
let gpus = List.filter (fun t -> t.kind = Gpu) all

let pp_vendor ppf = function
  | Nvidia -> Fmt.string ppf "NVIDIA"
  | Amd -> Fmt.string ppf "AMD"
  | Generic -> Fmt.string ppf "Generic"

let pp ppf t =
  Fmt.pf ppf "%-8s %-8s %a  %3d %s, warp %2d, %.2f GHz, %5.2f/%5.2f TFLOP/s f32/f64, %4.0f GB/s"
    t.name t.arch pp_vendor t.vendor t.sm_count
    (match t.kind with
    | Cpu -> "cores"
    | Gpu -> ( match t.vendor with Amd -> "CUs" | Nvidia | Generic -> "SMs"))
    t.warp_size t.clock_ghz (fp32_tflops t) (fp64_tflops t) t.mem_bandwidth_gbs

(** Header and rows of the paper's Table I, rendered from the
    descriptors. *)
let table1_rows () =
  let header =
    [
      "GPU";
      "Vendor";
      "Arch";
      "SMs/CUs";
      "Warp";
      "Clock (GHz)";
      "FP32 (TFLOP/s)";
      "FP64 (TFLOP/s)";
      "Mem BW (GB/s)";
      "Regs/SM";
      "Shmem/SM (KiB)";
      "L2 (MiB)";
    ]
  in
  let row t =
    [
      t.name;
      Fmt.str "%a" pp_vendor t.vendor;
      t.arch;
      string_of_int t.sm_count;
      string_of_int t.warp_size;
      Fmt.str "%.2f" t.clock_ghz;
      Fmt.str "%.2f" (fp32_tflops t);
      Fmt.str "%.2f" (fp64_tflops t);
      Fmt.str "%.0f" t.mem_bandwidth_gbs;
      string_of_int t.regs_per_sm;
      Fmt.str "%d" (t.shmem_per_sm / 1024);
      Fmt.str "%.0f" (float_of_int t.l2_bytes /. 1048576.);
    ]
  in
  (header, List.map row gpus)

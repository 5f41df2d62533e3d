(** Analytical GPU timing model.

    Converts the event counters of one kernel launch into an execution
    time estimate on a given target. The model is a latency-aware
    roofline: the kernel time is the maximum over the throughput limits
    of each execution resource (issue slots, FP32/FP64/INT/SFU lanes,
    LSU, L1, shared memory, L2, DRAM), and a latency-boundedness term
    that shrinks with occupancy and with the instruction- and
    memory-level parallelism of the kernel body — the mechanism through
    which thread and block coarsening pay off (Section II-A3 and V of
    the paper).

    Absolute times are not expected to match the paper's hardware; the
    model exists to reproduce the *shape* of the evaluation (who wins,
    by what factor, and where the crossovers sit). *)

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
      (** informational: the share of [dram_cycles] served by a last-level
          cache (CPU targets only; always [0.] on GPUs). Not an
          independent roofline term — it is already included in
          [dram_cycles] — but lets attribution distinguish L3-resident
          working sets from true DRAM streaming. *)
  latency_cycles : float;
  occupancy : Occupancy.result;
  utilization : float;  (** grid-tail / partial-wave utilization *)
  lsu_utilization : float;  (** fraction of kernel time LSU is busy *)
  fma_utilization : float;
  seconds : float;
}

type demand_source = {
  regs_per_thread : int;
  shmem_per_block : int;
  ilp : float;  (** independent instructions per dependency step *)
  mlp : float;  (** independent loads per dependent load chain step *)
}

(** Why a kernel configuration cannot execute on the target at all. *)
exception Infeasible of string

let estimate (t : Descriptor.t) ~(demand : demand_source) (launch : Exec.launch_result) : breakdown
    =
  let c = launch.Exec.counters in
  let threads = max 1 launch.Exec.threads_per_block in
  let occ_demand =
    {
      Occupancy.threads_per_block = threads;
      regs_per_thread = demand.regs_per_thread;
      shmem_per_block = demand.shmem_per_block;
    }
  in
  let occ =
    match Occupancy.compute t occ_demand with
    | Ok r -> r
    | Error e -> raise (Infeasible (Fmt.str "%a" Occupancy.pp_rejection e))
  in
  let fi = float_of_int in
  (* SMs that actually receive blocks: a grid smaller than the machine
     leaves the rest idle, which is how undersized kernels (and
     over-coarsened grids) lose throughput *)
  let busy_sms = fi (min t.sm_count (max 1 launch.Exec.nblocks)) in
  let sms = busy_sms in
  (* --- throughput limits, in device cycles --- *)
  let issue_cycles = c.Counters.warp_insts /. (sms *. fi t.issue_per_cycle) in
  let fp32_cycles = c.Counters.lane_fp32 /. (sms *. fi t.fp32_lanes_per_sm) in
  let fp64_cycles = c.Counters.lane_fp64 /. (sms *. fi t.fp64_lanes_per_sm) in
  let int_cycles = c.Counters.lane_int /. (sms *. fi t.int_lanes_per_sm) in
  let sfu_cycles = c.Counters.lane_sfu /. (sms *. fi t.sfu_lanes_per_sm) in
  let mem_requests =
    c.Counters.global_load_req +. c.Counters.global_store_req +. c.Counters.shared_load_req
    +. c.Counters.shared_store_req
  in
  let lsu_cycles = mem_requests *. (fi t.warp_size /. fi t.lsu_lanes_per_sm) /. sms in
  let l1_bytes = (c.Counters.load_sectors +. c.Counters.store_sectors) *. Counters.sector_bytes in
  let l1_cycles = l1_bytes /. (128. *. sms) in
  let shared_cycles = c.Counters.shared_transactions /. sms in
  let ghz = t.clock_ghz *. 1e9 in
  let l2_bytes = Counters.l2_to_l1_read_bytes c +. Counters.l1_to_l2_write_bytes c in
  let l2_cycles = l2_bytes /. (t.l2_bandwidth_gbs *. 1e9) *. ghz in
  let dram_bytes = Counters.dram_read_bytes c +. Counters.dram_write_bytes c in
  let dram_cycles = dram_bytes /. (t.mem_bandwidth_gbs *. 1e9) *. ghz in
  (* --- latency-bound term --- *)
  let warps_per_block = Pgpu_support.Util.ceil_div threads t.warp_size in
  let total_warps = launch.Exec.nblocks * warps_per_block in
  (* warps actually resident per busy SM (a small grid cannot reach
     the occupancy limit) *)
  let active_warps =
    Float.min
      (fi occ.Occupancy.active_warps)
      (Float.max 1. (fi total_warps /. busy_sms))
  in
  let load_req = c.Counters.global_load_req in
  let miss_l1 =
    if c.Counters.load_sectors > 0. then c.Counters.l1_load_miss_sectors /. c.Counters.load_sectors
    else 0.
  in
  let miss_l2 =
    if c.Counters.l1_load_miss_sectors > 0. then
      c.Counters.l2_load_miss_sectors /. c.Counters.l1_load_miss_sectors
    else 0.
  in
  let avg_load_latency =
    t.l1_latency +. (miss_l1 *. (t.l2_latency +. (miss_l2 *. (t.dram_latency -. t.l2_latency))))
  in
  let shared_latency = 25. in
  let mem_stall =
    (load_req *. avg_load_latency) +. (c.Counters.shared_load_req *. shared_latency)
  in
  let alu_warp_insts =
    let lane_ops = max 1. c.Counters.lane_total in
    c.Counters.warp_insts *. ((c.Counters.lane_int +. c.Counters.lane_fp32 +. c.Counters.lane_fp64) /. lane_ops)
  in
  let sfu_warp_insts =
    let lane_ops = max 1. c.Counters.lane_total in
    c.Counters.warp_insts *. (c.Counters.lane_sfu /. lane_ops)
  in
  let alu_stall = (alu_warp_insts *. t.alu_latency) +. (sfu_warp_insts *. 16.) in
  let ilp = max 1. demand.ilp and mlp = max 1. demand.mlp in
  let latency_cycles =
    (mem_stall /. (sms *. active_warps *. mlp)) +. (alu_stall /. (sms *. active_warps *. ilp))
  in
  (* reported machine utilization: fraction of the device's block
     slots the grid can keep busy in its last (or only) wave *)
  let concurrent_blocks = occ.Occupancy.blocks_per_sm * t.sm_count in
  let waves = Pgpu_support.Util.ceil_div (max 1 launch.Exec.nblocks) concurrent_blocks in
  let utilization = Float.min 1. (fi launch.Exec.nblocks /. fi (waves * concurrent_blocks)) in
  let bound =
    List.fold_left Float.max 0.
      [
        issue_cycles;
        fp32_cycles;
        fp64_cycles;
        int_cycles;
        sfu_cycles;
        lsu_cycles;
        l1_cycles;
        shared_cycles;
        l2_cycles;
        dram_cycles;
        latency_cycles;
      ]
  in
  let cycles = bound in
  let seconds =
    (cycles /. ghz) +. t.kernel_launch_overhead
    +. (fi launch.Exec.nblocks *. t.block_dispatch_overhead)
  in
  let denom = Float.max cycles 1. in
  {
    cycles;
    issue_cycles;
    fp32_cycles;
    fp64_cycles;
    int_cycles;
    sfu_cycles;
    lsu_cycles;
    l1_cycles;
    shared_cycles;
    l2_cycles;
    dram_cycles;
    l3_cycles = 0.;
    latency_cycles;
    occupancy = occ;
    utilization;
    lsu_utilization = Float.min 1. (lsu_cycles /. denom);
    fma_utilization = Float.min 1. (Float.max fp32_cycles fp64_cycles /. denom);
    seconds;
  }

(* The independent roofline terms, named. [cycles] is their maximum, so
   the head of the list sorted by value is the limiting resource; l3 is
   deliberately absent (it is a refinement of dram, not a term). *)
let terms (b : breakdown) =
  [
    ("issue", b.issue_cycles);
    ("fp32", b.fp32_cycles);
    ("fp64", b.fp64_cycles);
    ("int", b.int_cycles);
    ("sfu", b.sfu_cycles);
    ("lsu", b.lsu_cycles);
    ("l1", b.l1_cycles);
    ("shared", b.shared_cycles);
    ("l2", b.l2_cycles);
    ("dram", b.dram_cycles);
    ("latency", b.latency_cycles);
  ]

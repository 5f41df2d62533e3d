(** Analytical CPU timing model.

    Shares the latency-aware roofline structure of the GPU model
    ([Pgpu_gpusim.Timing]) and produces the same [Timing.breakdown]
    record so the runtime, tracer and profiler treat CPU launches
    uniformly. The differences encode what makes CPUs CPUs:

    - **scalar vs. SIMD issue**: counted lane operations split by the
      statically-estimated vectorizable fraction; vector lanes retire
      [simd_width] (f32) or [simd_width/2] (f64) per port-cycle,
      scalar lanes one per port-cycle. Coarsening raises the
      straight-line share of epochs, which is how unroll/interleave
      factors pay off on this model.
    - **deep cache hierarchy**: per-core L1 bandwidth, shared-L2
      bandwidth for L1 misses, then an L3 capacity split — miss bytes
      up to [l3_bytes] are served at [l3_bandwidth_gbs], the excess
      at DRAM bandwidth.
    - **out-of-order latency hiding**: there is no warp oversubscription
      on a CPU; memory stalls are divided by the kernel's memory-level
      parallelism (the reorder window proxy), not by resident warps.

    Raises [Timing.Infeasible] exactly like the GPU model, so
    timing-driven optimization prunes CPU-infeasible alternatives
    through the same catch. *)

open Pgpu_ir
open Pgpu_target

(* An epoch (thread-level parallel) vectorizes when its body is
   straight-line: no [If]/[While] anywhere inside, since divergent
   lanes defeat packed execution. Epochs are weighted by their
   instruction counts; all epochs of a kernel iterate the same thread
   set, so instruction count is the right relative weight. *)
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

let estimate (t : Descriptor.t) ~(demand : Timing.demand_source) ~(vector_fraction : float)
    (launch : Exec.launch_result) : Timing.breakdown =
  let c = launch.Exec.counters in
  let threads = max 1 launch.Exec.threads_per_block in
  let occ_demand =
    {
      Occupancy.threads_per_block = threads;
      regs_per_thread = demand.Timing.regs_per_thread;
      shmem_per_block = demand.Timing.shmem_per_block;
    }
  in
  let occ =
    match Occupancy.compute t occ_demand with
    | Ok r -> r
    | Error e -> raise (Timing.Infeasible (Fmt.str "%a" Occupancy.pp_rejection e))
  in
  let fi = float_of_int in
  let fv = Float.max 0. (Float.min 1. vector_fraction) in
  let busy = fi (min t.Descriptor.sm_count (max 1 launch.Exec.nblocks)) in
  let simd = fi (max 1 t.Descriptor.simd_width) in
  (* effective operations after packing: a vector lane-op costs 1/simd
     of a port-cycle, a scalar one a full port-cycle *)
  let packed lanes width = lanes *. ((fv /. width) +. (1. -. fv)) in
  (* issue: every instruction decodes once per thread when scalar, once
     per vector group when vectorized *)
  let issue_cycles =
    packed c.Counters.warp_insts simd /. (busy *. fi t.Descriptor.issue_per_cycle)
  in
  (* ports = peak lanes / simd width; f64 vectors hold half the lanes *)
  let fp32_cycles = packed c.Counters.lane_fp32 simd /. (busy *. fi t.Descriptor.fp32_lanes_per_sm /. simd) in
  let fp64_cycles =
    packed c.Counters.lane_fp64 (simd /. 2.)
    /. (busy *. fi t.Descriptor.fp64_lanes_per_sm /. (simd /. 2.))
  in
  let int_cycles = packed c.Counters.lane_int simd /. (busy *. fi t.Descriptor.int_lanes_per_sm /. simd) in
  (* special functions stay scalar library calls on CPUs *)
  let sfu_cycles = c.Counters.lane_sfu /. (busy *. fi t.Descriptor.sfu_lanes_per_sm) in
  let mem_requests =
    c.Counters.global_load_req +. c.Counters.global_store_req +. c.Counters.shared_load_req
    +. c.Counters.shared_store_req
  in
  let lsu_cycles = packed mem_requests simd /. (busy *. fi t.Descriptor.lsu_lanes_per_sm) in
  (* per-core L1 moves one line per cycle *)
  let l1_bytes =
    ((c.Counters.load_sectors +. c.Counters.store_sectors) *. Counters.sector_bytes)
    +. (c.Counters.shared_transactions *. 4.)
  in
  let l1_cycles = l1_bytes /. (fi t.Descriptor.l1_line_bytes *. busy) in
  let ghz = t.Descriptor.clock_ghz *. 1e9 in
  let l2_bytes = Counters.l2_to_l1_read_bytes c +. Counters.l1_to_l2_write_bytes c in
  let l2_cycles = l2_bytes /. (t.Descriptor.l2_bandwidth_gbs *. 1e9) *. ghz in
  (* L2-slice misses hit the shared L3 while the working set fits its
     capacity; the excess spills to DRAM *)
  let llc_bytes = Counters.dram_read_bytes c +. Counters.dram_write_bytes c in
  let l3_served = Float.min llc_bytes (fi t.Descriptor.l3_bytes) in
  let dram_served = llc_bytes -. l3_served in
  let l3_cycles =
    if t.Descriptor.l3_bandwidth_gbs > 0. then
      l3_served /. (t.Descriptor.l3_bandwidth_gbs *. 1e9) *. ghz
    else 0.
  in
  let dram_cycles = (dram_served /. (t.Descriptor.mem_bandwidth_gbs *. 1e9) *. ghz) +. l3_cycles in
  (* --- latency term: an out-of-order window, not warp switching --- *)
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
    t.Descriptor.l1_latency
    +. (miss_l1 *. (t.Descriptor.l2_latency +. (miss_l2 *. (t.Descriptor.dram_latency -. t.Descriptor.l2_latency))))
  in
  let mlp = Float.max 1. demand.Timing.mlp and ilp = Float.max 1. demand.Timing.ilp in
  let mem_stall = c.Counters.global_load_req *. avg_load_latency /. (busy *. mlp) in
  let alu_stall = c.Counters.warp_insts *. t.Descriptor.alu_latency /. (busy *. ilp *. 8.) in
  (* /8: the reorder buffer overlaps independent scalar chains far
     beyond the ILP the backend counts per dependency step *)
  let latency_cycles = mem_stall +. alu_stall in
  let concurrent_blocks = t.Descriptor.sm_count in
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
        l2_cycles;
        dram_cycles;
        latency_cycles;
      ]
  in
  let cycles = bound in
  let seconds =
    (cycles /. ghz) +. t.Descriptor.kernel_launch_overhead
    +. (fi launch.Exec.nblocks /. busy *. t.Descriptor.block_dispatch_overhead)
  in
  let denom = Float.max cycles 1. in
  {
    Timing.cycles;
    issue_cycles;
    fp32_cycles;
    fp64_cycles;
    int_cycles;
    sfu_cycles;
    lsu_cycles;
    l1_cycles;
    shared_cycles = 0.;
    l2_cycles;
    dram_cycles;
    l3_cycles;
    latency_cycles;
    occupancy = occ;
    utilization;
    lsu_utilization = Float.min 1. (lsu_cycles /. denom);
    fma_utilization = Float.min 1. (Float.max fp32_cycles fp64_cycles /. denom);
    seconds;
  }

(** Nsight-Compute-style profiler report.

    Renders the launch records of a run — the simulator's event
    counters ([Gpusim.Counters]), the timing-model breakdown and the
    backend statistics — as a per-kernel text report plus a
    machine-readable JSON form. The counter section reproduces exactly
    the Table II metric set of the paper (runtime, LSU/FMA
    utilization, L2<->L1 traffic, L1<->SM and shared-memory request
    counts), so a [pgpu profile] run stands in for the Nsight Compute
    runs behind the paper's profiling analysis. *)

module Runtime = Pgpu_runtime.Runtime
module Counters = Pgpu_gpusim.Counters
module Timing = Pgpu_gpusim.Timing
module Exec = Pgpu_gpusim.Exec
module Backend = Pgpu_target.Backend
module Occupancy = Pgpu_target.Occupancy
module Bottleneck = Pgpu_gpusim.Bottleneck
module Json = Pgpu_trace.Json

type kernel_profile = {
  kernel : string;
  launches : int;
  seconds : float;  (** total simulated seconds across launches *)
  alternative : int option;  (** alternatives region of the dominant launch *)
  grid_dims : int list;  (** dominant (largest-grid) launch *)
  block_dims : int list;
  nblocks : int;
  threads_per_block : int;
  regs_per_thread : int;
  spilled : int;
  static_shmem : int;
  ilp : float;
  mlp : float;
  occupancy : float;
  occupancy_limiter : string;
  blocks_per_sm : int;
  utilization : float;
  lsu_utilization : float;
  fma_utilization : float;
  bottleneck : Bottleneck.t;  (** attribution of the dominant launch *)
  cycles : float;  (** simulated device cycles of the dominant launch *)
  counters : Counters.t;  (** aggregated over all launches *)
}

type report = { composite_seconds : float; kernels : kernel_profile list }

let of_records (records : Runtime.launch_record list) : kernel_profile list =
  let names =
    List.fold_left
      (fun acc (r : Runtime.launch_record) ->
        if List.mem r.Runtime.kernel acc then acc else acc @ [ r.Runtime.kernel ])
      [] records
  in
  List.map
    (fun kernel ->
      let recs =
        List.filter (fun (r : Runtime.launch_record) -> String.equal r.Runtime.kernel kernel) records
      in
      let seconds = List.fold_left (fun acc (r : Runtime.launch_record) -> acc +. r.Runtime.seconds) 0. recs in
      let counters = Counters.create () in
      List.iter
        (fun (r : Runtime.launch_record) -> Counters.accumulate counters r.Runtime.result.Exec.counters)
        recs;
      (* utilizations, occupancy and the bottleneck come from the
         dominant (largest-grid) launch — what a profiler run of the
         kernel reports *)
      let dominant =
        List.fold_left
          (fun acc (r : Runtime.launch_record) ->
            match acc with
            | Some (a : Runtime.launch_record)
              when a.Runtime.result.Exec.nblocks >= r.Runtime.result.Exec.nblocks ->
                acc
            | _ -> Some r)
          None recs
      in
      let d = Option.get dominant in
      let b = d.Runtime.breakdown in
      {
        kernel;
        launches = List.length recs;
        seconds;
        alternative = d.Runtime.alternative;
        grid_dims = d.Runtime.result.Exec.grid_dims;
        block_dims = d.Runtime.result.Exec.block_dims;
        nblocks = d.Runtime.result.Exec.nblocks;
        threads_per_block = d.Runtime.result.Exec.threads_per_block;
        regs_per_thread = d.Runtime.stats.Backend.regs_per_thread;
        spilled = d.Runtime.stats.Backend.spilled;
        static_shmem = d.Runtime.stats.Backend.static_shmem;
        ilp = d.Runtime.stats.Backend.ilp;
        mlp = d.Runtime.stats.Backend.mlp;
        occupancy = b.Timing.occupancy.Occupancy.occupancy;
        occupancy_limiter = b.Timing.occupancy.Occupancy.limiter;
        blocks_per_sm = b.Timing.occupancy.Occupancy.blocks_per_sm;
        utilization = b.Timing.utilization;
        lsu_utilization = b.Timing.lsu_utilization;
        fma_utilization = b.Timing.fma_utilization;
        bottleneck = d.Runtime.bottleneck;
        cycles = b.Timing.cycles;
        counters;
      })
    names

let of_run ~composite_seconds records = { composite_seconds; kernels = of_records records }

(* ------------------------------------------------------------------ *)
(* Text report                                                         *)
(* ------------------------------------------------------------------ *)

let pp_dims ppf dims = Fmt.pf ppf "(%a)" Fmt.(list ~sep:comma int) dims

let pp_kernel ~composite ppf (k : kernel_profile) =
  let line label fmt = Fmt.pf ppf ("  %-24s " ^^ fmt ^^ "@.") label in
  Fmt.pf ppf "Kernel: %s  (%d launch%s%a)@." k.kernel k.launches
    (if k.launches = 1 then "" else "es")
    Fmt.(option (any ", alternative " ++ int))
    k.alternative;
  line "Launch" "grid %a  block %a  (%d blocks x %d threads)" pp_dims k.grid_dims pp_dims
    k.block_dims k.nblocks k.threads_per_block;
  line "Duration" "%.6f s  (%.1f%% of composite)" k.seconds
    (if composite > 0. then 100. *. k.seconds /. composite else 0.);
  line "Registers/Thread" "%d  (%d spilled)" k.regs_per_thread k.spilled;
  line "Static SMem/Block" "%d B" k.static_shmem;
  line "ILP / MLP" "%.2f / %.2f" k.ilp k.mlp;
  line "Achieved Occupancy" "%.1f%%  (limiter: %s, %d blocks/SM)" (100. *. k.occupancy)
    k.occupancy_limiter k.blocks_per_sm;
  line "Grid Utilization" "%.1f%%" (100. *. k.utilization);
  line "Bottleneck" "%a" Bottleneck.pp k.bottleneck;
  (* the Table II counter set *)
  line "LSU Utilization" "%.0f%%" (100. *. k.lsu_utilization);
  line "FMA Utilization" "%.0f%%" (100. *. k.fma_utilization);
  line "L2->L1 Read" "%.1f MB" (Counters.l2_to_l1_read_bytes k.counters /. 1e6);
  line "L1->L2 Write" "%.1f MB" (Counters.l1_to_l2_write_bytes k.counters /. 1e6);
  line "L1->SM Read Req." "%.2f M" (k.counters.Counters.global_load_req /. 1e6);
  line "SM->L1 Write Req." "%.2f M" (k.counters.Counters.global_store_req /. 1e6);
  line "ShMem->SM Read Req." "%.2f M" (k.counters.Counters.shared_load_req /. 1e6);
  line "SM->ShMem Write Req." "%.2f M" (k.counters.Counters.shared_store_req /. 1e6);
  line "DRAM Read / Write" "%.1f / %.1f MB"
    (Counters.dram_read_bytes k.counters /. 1e6)
    (Counters.dram_write_bytes k.counters /. 1e6);
  line "Warp Instructions" "%.2f M" (k.counters.Counters.warp_insts /. 1e6);
  line "Barriers" "%.0f" k.counters.Counters.barriers;
  line "Divergent Branches" "%.0f" k.counters.Counters.divergent_branches

let pp_report ppf (r : report) =
  Fmt.pf ppf "== Profile: %d kernel%s, composite %.6f s ==@.@." (List.length r.kernels)
    (if List.length r.kernels = 1 then "" else "s")
    r.composite_seconds;
  List.iteri
    (fun i k ->
      if i > 0 then Fmt.pf ppf "@.";
      pp_kernel ~composite:r.composite_seconds ppf k)
    r.kernels

(* ------------------------------------------------------------------ *)
(* JSON report                                                         *)
(* ------------------------------------------------------------------ *)

let json_of_kernel (k : kernel_profile) : Json.t =
  Json.Obj
    [
      ("kernel", Json.Str k.kernel);
      ("launches", Json.Int k.launches);
      ("seconds", Json.Float k.seconds);
      ("alternative", match k.alternative with Some a -> Json.Int a | None -> Json.Null);
      ("grid_dims", Json.List (List.map Json.int k.grid_dims));
      ("block_dims", Json.List (List.map Json.int k.block_dims));
      ("nblocks", Json.Int k.nblocks);
      ("threads_per_block", Json.Int k.threads_per_block);
      ("regs_per_thread", Json.Int k.regs_per_thread);
      ("spilled", Json.Int k.spilled);
      ("static_shmem", Json.Int k.static_shmem);
      ("ilp", Json.Float k.ilp);
      ("mlp", Json.Float k.mlp);
      ("occupancy", Json.Float k.occupancy);
      ("occupancy_limiter", Json.Str k.occupancy_limiter);
      ("blocks_per_sm", Json.Int k.blocks_per_sm);
      ("utilization", Json.Float k.utilization);
      ("lsu_utilization", Json.Float k.lsu_utilization);
      ("fma_utilization", Json.Float k.fma_utilization);
      ("bottleneck", Json.Str (Bottleneck.label_name k.bottleneck.Bottleneck.label));
      ("bottleneck_limiter", Json.Str k.bottleneck.Bottleneck.limiter);
      ("bottleneck_headroom", Json.Float k.bottleneck.Bottleneck.headroom);
      ("cycles", Json.Float k.cycles);
      ("l2_l1_read_bytes", Json.Float (Counters.l2_to_l1_read_bytes k.counters));
      ("l1_l2_write_bytes", Json.Float (Counters.l1_to_l2_write_bytes k.counters));
      ("dram_read_bytes", Json.Float (Counters.dram_read_bytes k.counters));
      ("dram_write_bytes", Json.Float (Counters.dram_write_bytes k.counters));
      ("global_load_req", Json.Float k.counters.Counters.global_load_req);
      ("global_store_req", Json.Float k.counters.Counters.global_store_req);
      ("shared_load_req", Json.Float k.counters.Counters.shared_load_req);
      ("shared_store_req", Json.Float k.counters.Counters.shared_store_req);
      ("shared_transactions", Json.Float k.counters.Counters.shared_transactions);
      ("warp_insts", Json.Float k.counters.Counters.warp_insts);
      ("barriers", Json.Float k.counters.Counters.barriers);
      ("divergent_branches", Json.Float k.counters.Counters.divergent_branches);
      ("blocks", Json.Float k.counters.Counters.blocks);
    ]

let json_of_report (r : report) : Json.t =
  Json.Obj
    [
      ("composite_seconds", Json.Float r.composite_seconds);
      ("kernels", Json.List (List.map json_of_kernel r.kernels));
    ]

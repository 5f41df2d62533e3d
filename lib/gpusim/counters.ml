(** Execution event counters.

    One record accumulates everything the timing model and the
    Table II profiling report need. Counters are floats so that
    sampled executions can be scaled to the full grid. *)

type t = {
  mutable warp_insts : float;  (** issued warp instructions *)
  mutable lane_int : float;  (** integer ALU lane-ops *)
  mutable lane_fp32 : float;
  mutable lane_fp64 : float;
  mutable lane_sfu : float;  (** special-function lane-ops *)
  mutable lane_total : float;
  mutable global_load_req : float;  (** warp-level global load requests (L1→SM reads) *)
  mutable global_store_req : float;  (** warp-level global store requests (SM→L1 writes) *)
  mutable load_sectors : float;  (** 32 B sectors touched by global loads *)
  mutable store_sectors : float;
  mutable l1_load_miss_sectors : float;  (** sectors fetched from L2 (L2→L1 read) *)
  mutable l2_load_miss_sectors : float;  (** sectors fetched from DRAM *)
  mutable store_l2_sectors : float;  (** write-through traffic L1→L2 *)
  mutable l2_store_miss_sectors : float;
  mutable shared_load_req : float;  (** warp shared-memory read requests *)
  mutable shared_store_req : float;
  mutable shared_transactions : float;  (** after bank-conflict replays *)
  mutable barriers : float;
  mutable divergent_branches : float;  (** warps that executed both sides of a branch *)
  mutable blocks : float;
  mutable launches : float;
}

let create () =
  {
    warp_insts = 0.;
    lane_int = 0.;
    lane_fp32 = 0.;
    lane_fp64 = 0.;
    lane_sfu = 0.;
    lane_total = 0.;
    global_load_req = 0.;
    global_store_req = 0.;
    load_sectors = 0.;
    store_sectors = 0.;
    l1_load_miss_sectors = 0.;
    l2_load_miss_sectors = 0.;
    store_l2_sectors = 0.;
    l2_store_miss_sectors = 0.;
    shared_load_req = 0.;
    shared_store_req = 0.;
    shared_transactions = 0.;
    barriers = 0.;
    divergent_branches = 0.;
    blocks = 0.;
    launches = 0.;
  }

let copy t = { t with warp_insts = t.warp_insts }

(** [diff a b] is the counter delta [a - b] (with [a] the later
    snapshot). *)
let diff a b =
  {
    warp_insts = a.warp_insts -. b.warp_insts;
    lane_int = a.lane_int -. b.lane_int;
    lane_fp32 = a.lane_fp32 -. b.lane_fp32;
    lane_fp64 = a.lane_fp64 -. b.lane_fp64;
    lane_sfu = a.lane_sfu -. b.lane_sfu;
    lane_total = a.lane_total -. b.lane_total;
    global_load_req = a.global_load_req -. b.global_load_req;
    global_store_req = a.global_store_req -. b.global_store_req;
    load_sectors = a.load_sectors -. b.load_sectors;
    store_sectors = a.store_sectors -. b.store_sectors;
    l1_load_miss_sectors = a.l1_load_miss_sectors -. b.l1_load_miss_sectors;
    l2_load_miss_sectors = a.l2_load_miss_sectors -. b.l2_load_miss_sectors;
    store_l2_sectors = a.store_l2_sectors -. b.store_l2_sectors;
    l2_store_miss_sectors = a.l2_store_miss_sectors -. b.l2_store_miss_sectors;
    shared_load_req = a.shared_load_req -. b.shared_load_req;
    shared_store_req = a.shared_store_req -. b.shared_store_req;
    shared_transactions = a.shared_transactions -. b.shared_transactions;
    barriers = a.barriers -. b.barriers;
    divergent_branches = a.divergent_branches -. b.divergent_branches;
    blocks = a.blocks -. b.blocks;
    launches = a.launches -. b.launches;
  }

(** Scale every per-work counter by [k] (used to extrapolate sampled
    block execution to the full grid). [launches] is not scaled. *)
let scale t k =
  t.warp_insts <- t.warp_insts *. k;
  t.lane_int <- t.lane_int *. k;
  t.lane_fp32 <- t.lane_fp32 *. k;
  t.lane_fp64 <- t.lane_fp64 *. k;
  t.lane_sfu <- t.lane_sfu *. k;
  t.lane_total <- t.lane_total *. k;
  t.global_load_req <- t.global_load_req *. k;
  t.global_store_req <- t.global_store_req *. k;
  t.load_sectors <- t.load_sectors *. k;
  t.store_sectors <- t.store_sectors *. k;
  t.l1_load_miss_sectors <- t.l1_load_miss_sectors *. k;
  t.l2_load_miss_sectors <- t.l2_load_miss_sectors *. k;
  t.store_l2_sectors <- t.store_l2_sectors *. k;
  t.l2_store_miss_sectors <- t.l2_store_miss_sectors *. k;
  t.shared_load_req <- t.shared_load_req *. k;
  t.shared_store_req <- t.shared_store_req *. k;
  t.shared_transactions <- t.shared_transactions *. k;
  t.barriers <- t.barriers *. k;
  t.divergent_branches <- t.divergent_branches *. k;
  t.blocks <- t.blocks *. k

(** Add delta [d] into [t]. *)
let accumulate t d =
  t.warp_insts <- t.warp_insts +. d.warp_insts;
  t.lane_int <- t.lane_int +. d.lane_int;
  t.lane_fp32 <- t.lane_fp32 +. d.lane_fp32;
  t.lane_fp64 <- t.lane_fp64 +. d.lane_fp64;
  t.lane_sfu <- t.lane_sfu +. d.lane_sfu;
  t.lane_total <- t.lane_total +. d.lane_total;
  t.global_load_req <- t.global_load_req +. d.global_load_req;
  t.global_store_req <- t.global_store_req +. d.global_store_req;
  t.load_sectors <- t.load_sectors +. d.load_sectors;
  t.store_sectors <- t.store_sectors +. d.store_sectors;
  t.l1_load_miss_sectors <- t.l1_load_miss_sectors +. d.l1_load_miss_sectors;
  t.l2_load_miss_sectors <- t.l2_load_miss_sectors +. d.l2_load_miss_sectors;
  t.store_l2_sectors <- t.store_l2_sectors +. d.store_l2_sectors;
  t.l2_store_miss_sectors <- t.l2_store_miss_sectors +. d.l2_store_miss_sectors;
  t.shared_load_req <- t.shared_load_req +. d.shared_load_req;
  t.shared_store_req <- t.shared_store_req +. d.shared_store_req;
  t.shared_transactions <- t.shared_transactions +. d.shared_transactions;
  t.barriers <- t.barriers +. d.barriers;
  t.divergent_branches <- t.divergent_branches +. d.divergent_branches;
  t.blocks <- t.blocks +. d.blocks;
  t.launches <- t.launches +. d.launches

(* the 32 B sector, the granule of global-memory coalescing and of
   every traffic counter *)
let sector_shift = 5
let sector_bytes = float_of_int (1 lsl sector_shift)

let l2_to_l1_read_bytes t = t.l1_load_miss_sectors *. sector_bytes
let l1_to_l2_write_bytes t = t.store_l2_sectors *. sector_bytes
let dram_read_bytes t = t.l2_load_miss_sectors *. sector_bytes
let dram_write_bytes t = t.l2_store_miss_sectors *. sector_bytes

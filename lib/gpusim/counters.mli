(** Execution event counters: one record accumulates everything the
    timing model and the Table II profiling report need. Counters are
    floats so sampled executions can be scaled to the full grid. *)

type t = {
  mutable warp_insts : float;  (** issued warp instructions *)
  mutable lane_int : float;
  mutable lane_fp32 : float;
  mutable lane_fp64 : float;
  mutable lane_sfu : float;
  mutable lane_total : float;
  mutable global_load_req : float;  (** warp-level L1→SM read requests *)
  mutable global_store_req : float;  (** SM→L1 write requests *)
  mutable load_sectors : float;  (** 32 B sectors touched by loads *)
  mutable store_sectors : float;
  mutable l1_load_miss_sectors : float;  (** sectors fetched from L2 *)
  mutable l2_load_miss_sectors : float;  (** sectors fetched from DRAM *)
  mutable store_l2_sectors : float;  (** write-through traffic L1→L2 *)
  mutable l2_store_miss_sectors : float;
  mutable shared_load_req : float;
  mutable shared_store_req : float;
  mutable shared_transactions : float;  (** after bank-conflict replays *)
  mutable barriers : float;
  mutable divergent_branches : float;  (** warps executing both sides *)
  mutable blocks : float;
  mutable launches : float;
}

val create : unit -> t
val copy : t -> t

(** [diff a b] is the counter delta [a - b]. *)
val diff : t -> t -> t

(** Scale every per-work counter by [k] (extrapolating sampled
    execution); [launches] is not scaled. *)
val scale : t -> float -> unit

val accumulate : t -> t -> unit

(** log2 of the 32 B sector: the granule global-memory requests
    coalesce into and the traffic counters count in. *)
val sector_shift : int

(** [2 ^ sector_shift], as a float for the traffic conversions. *)
val sector_bytes : float

(** The Table II traffic figures, in bytes. *)
val l2_to_l1_read_bytes : t -> float

val l1_to_l2_write_bytes : t -> float
val dram_read_bytes : t -> float
val dram_write_bytes : t -> float

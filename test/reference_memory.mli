(** The oracle's memory model, kept apart from the product's so that
    engine parity also checks {!Pgpu_gpusim.Exec.requests} and
    {!Pgpu_gpusim.Cache}. *)

open Pgpu_gpusim

(** A reference LRU cache: per-way tags and last-use ticks, eagerly
    cleared on reset, deep-copied on clone. Same geometry as
    {!Cache.create}. *)
module Lru : sig
  type t = private {
    sets : int;
    ways : int;
    line_bytes : int;
    tags : int array array;
    last_use : int array array;
    mutable tick : int;
    mutable hits : int;
    mutable misses : int;
  }

  val create : size_bytes:int -> line_bytes:int -> ways:int -> t
  val clone : t -> t

  (** Probe with a byte address; allocates on miss. [true] on hit. *)
  val access : t -> int -> bool

  val reset : t -> unit
end

(** The reference request model, same contract as {!Exec.requests}
    but with the mask as one boolean per lane, the oracle's own form:
    each warp with an active lane collects its active lanes' sectors
    (or words), sorts and deduplicates them, and probes every sector
    through {!Cache.access} — one lane per warp at [ws = 1]. *)
val requests :
  Exec.ctx -> is_store:bool -> Pgpu_ir.Types.space -> int array -> bool array -> unit

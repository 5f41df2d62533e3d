(** Set-associative LRU cache model, used for the per-SM L1 caches and
    the device-wide L2 of the GPU simulator. Tag stores are
    materialised lazily per set and invalidated by epoch, so [create]
    and [reset] stay cheap even for multi-megabyte simulated caches. *)

type t = {
  sets : int;
  ways : int;
  line_bytes : int;
  line_shift : int;  (** log2 of [line_bytes] when a power of two, else -1 *)
  set_data : int array array;
      (** per set, [3 * ways] ints — tags, last-use ticks, epoch
          stamps; [[||]] until the set is first touched *)
  mutable epoch : int;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable last_line : int;
      (** one-entry probe shortcut: line of the most recent hit or
          fill (resident at way [last_w] of [last_data]); -1 = invalid *)
  mutable last_data : int array;
  mutable last_w : int;
}

val create : size_bytes:int -> line_bytes:int -> ways:int -> t

val clone : t -> t
(** Deep, independent copy sharing no mutable state with the source —
    safe to drive from another domain. Behaviourally identical to the
    source (the one-entry probe shortcut is invalidated, which only
    affects probe cost, never hit/miss outcomes). *)

val fresh : t -> t
(** An empty, independent cache with the source's geometry — identical
    to [clone] followed by [reset], without copying tag rows. *)

(** Probe with a byte address; allocates on miss. [true] on hit. *)
val access : t -> int -> bool

(** O(1) full invalidation (epoch bump). *)
val reset : t -> unit

val hit_rate : t -> float

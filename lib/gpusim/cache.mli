(** Set-associative LRU cache model, used for the per-SM L1 caches and
    the device-wide L2 of the GPU simulator. Tag stores are
    materialised lazily per set and invalidated by epoch, so [create]
    and [reset] stay cheap even for multi-megabyte simulated caches.
    Clones share rows copy-on-write, so [clone] costs what the clone
    then touches. *)

type t = {
  id : int;  (** owner stamp of the rows this cache writes in place *)
  sets : int;
  ways : int;
  line_bytes : int;
  line_shift : int;  (** log2 of [line_bytes] when a power of two, else -1 *)
  set_data : int array array;
      (** per set, [3 * ways + 1] ints — tags, last-use ticks, epoch
          stamps, then the owner's [id]; [[||]] until the set is first
          touched *)
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
(** Copy-on-write copy, behaviourally identical to the source (the
    one-entry probe shortcut is invalidated, which only affects probe
    cost, never hit/miss outcomes). It copies the per-set row pointers
    only, and copies a row the first time it probes that set, so it
    never writes state the source can see and may be driven from
    another domain — as may further clones of the same source, and
    clones of the clone.

    {b Source-idle rule:} the source still owns the shared rows and
    writes them in place, so it must not be probed while a clone of it
    is in use. Probing it again once its clones are dropped is safe. *)

(** Probe with a byte address; allocates on miss. [true] on hit. *)
val access : t -> int -> bool

(** O(1) full invalidation (epoch bump). *)
val reset : t -> unit

val hit_rate : t -> float

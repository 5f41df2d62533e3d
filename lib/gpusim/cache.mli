(** Set-associative LRU cache model, used for the per-SM L1 caches and
    the L2 slices of the GPU simulator. Each set keeps its resident
    lines in recency order, most recent first, so a hit moves its line
    to the front and a miss drops the last line of a full set — exact
    LRU without per-way ticks or a victim scan. Rows are materialised
    lazily per set and invalidated by epoch, so [create] and [reset]
    stay cheap even for multi-megabyte simulated caches. Clones share
    rows copy-on-write, so [clone] costs what the clone then
    touches, and a clone's rows can be written back into its source
    ([write_back]) without a copy. *)

type t = {
  id : int;  (** owner stamp of the rows this cache writes in place *)
  sets : int;
  ways : int;
  line_bytes : int;
  line_shift : int;  (** log2 of [line_bytes] when a power of two, else -1 *)
  set_data : int array array;
      (** per set, [ways + 3] ints — owner [id], epoch, resident
          count, then the resident lines, most recent first; [[||]]
          until the set is first touched *)
  mutable epoch : int;
  mutable hits : int;
  mutable misses : int;
  mutable last_line : int;
      (** one-entry probe shortcut: line of the most recent probe,
          which heads its set; -1 = invalid *)
}

val create : size_bytes:int -> line_bytes:int -> ways:int -> t

val clone : t -> t
(** Copy-on-write copy, behaviourally identical to the source. It
    copies the per-set row pointers only, and copies a row the first
    time it probes that set, so it never writes state the source can
    see and may be driven from another domain — as may further clones
    of the same source, and clones of the clone.

    {b Source-idle rule:} the source still owns the shared rows and
    writes them in place, so it must not be probed while a clone of it
    is in use. Probing it again once its clones are dropped is safe. *)

(** [line t addr] is the index of the line holding byte address
    [addr]: two addresses probe the same line exactly when their
    [line]s are equal. *)
val line : t -> int -> int

(** Probe with a byte address; allocates on miss. [true] on hit. *)
val access : t -> int -> bool

(** [access_run t addr k] is [k >= 1] consecutive probes of the line
    holding [addr], counted as one {!access} plus [k - 1] hits: the
    first probe leaves the line resident at the front of its set, so
    the others hit and change nothing. Returns the first probe's
    answer. *)
val access_run : t -> int -> int -> bool

(** O(1) full invalidation (epoch bump). *)
val reset : t -> unit

(** [write_back ~clone ~into] makes [into] answer every later probe
    as [clone] would, where [clone] is a {!clone} of [into] made while
    [into] stayed idle: the rows [clone] owns move into [into],
    restamped as [into]'s, and so do its epoch, shortcut and hit/miss
    counts. It copies no row; the rows [clone] shares are [into]'s
    already. [clone] must not be probed afterwards. *)
val write_back : clone:t -> into:t -> unit

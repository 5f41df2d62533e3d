(** Content-addressed caching for the runtime.

    Two parts:

    - a generic mutex-protected {!Memo} table for in-process
      memoization of OCaml values (the runtime's compiled kernels and
      lowered launch sites), keyed by a hash with a caller-supplied
      equality check so hash collisions can never alias;
    - a persistent, namespaced string-keyed store of {!Json} values,
      loaded from and flushed to [<dir>/<namespace>.json] when a cache
      directory is configured, and purely in-memory otherwise. Its one
      namespace, ["tdo"], holds the autotuner's choices.

    Keys follow a content-addressed scheme: an alpha-invariant region
    hash ([Instr.hash_block ~closed:true]) joined with the target
    descriptor name and the launch parameters, so a cache directory can
    be shared across targets and programs — an entry is only ever found
    again for structurally identical code on the same target. Every
    operation on a [disabled] cache is a no-op, so instrumented call
    sites need no conditionals. All operations are thread-safe: a
    memo may be consulted from several domains concurrently. *)

module Json = Pgpu_trace.Json

(** In-process memoization of OCaml values. *)
module Memo : sig
  type ('a, 'b) t

  val create : unit -> ('a, 'b) t

  (** [find_or_add m ~hash ~equal key compute] returns the memoized
      value for a key equal to [key], or runs [compute] and records the
      result. [compute] runs outside the lock: two domains racing on
      the same key may both compute it (the table keeps one result) —
      wasted work, never a wrong answer. *)
  val find_or_add :
    ('a, 'b) t -> hash:int -> equal:('a -> 'a -> bool) -> 'a -> (unit -> 'b) -> 'b
end

type t

(** The shared no-op cache: never finds, never stores. *)
val disabled : t

(** A fresh cache. Without [dir] it is memory-only (still useful: a
    repeated tuned run in one process replays its TDO choices). With
    [dir] each namespace is backed by [<dir>/<namespace>.json], loaded
    lazily on first access and written back by {!flush}. *)
val create : ?dir:string -> unit -> t

val enabled : t -> bool
val dir : t -> string option

(** Look up [key] in [ns], counting a hit or a miss. Always [None] on
    a disabled cache (without counting). *)
val find : t -> ns:string -> string -> Json.t option

val add : t -> ns:string -> string -> Json.t -> unit

(** Write every dirty namespace back to its file (no-op without a
    cache directory). Entries are sorted by key so cache files are
    deterministic and diff-friendly. *)
val flush : t -> unit

(** Per-namespace (hits, misses, stores). *)
val ns_stats : t -> string -> int * int * int

val hits : t -> ns:string -> int
val misses : t -> ns:string -> int

(** Total (hits, misses, stores) over every namespace touched. *)
val totals : t -> int * int * int

(** Machine-readable report: per-namespace entry counts and hit/miss/
    store counters, plus the backing directory. The CI cache smoke step
    uploads this. *)
val stats_json : t -> Json.t

(** The autotuner's persistent choice store: a namespaced,
    string-keyed store of {!Json} values, loaded from and flushed to
    [<dir>/<namespace>.json] when a cache directory is configured, and
    purely in-memory otherwise. Its one namespace, ["tdo"], holds the
    TDO choices.

    Keys follow a content-addressed scheme: an alpha-invariant region
    hash ([Instr.hash_block]) joined with the target descriptor name
    and the launch parameters, so a cache directory can be shared
    across targets and programs — an entry is only ever found again for
    structurally identical code on the same target. Every operation on
    a [disabled] cache is a no-op, so instrumented call sites need no
    conditionals. All operations are thread-safe: a store may be
    consulted from several domains concurrently. *)

module Json = Pgpu_trace.Json

type t

(** The shared no-op cache: never finds, never stores. *)
val disabled : t

(** A fresh cache. Without [dir] it is memory-only (still useful: a
    repeated tuned run in one process replays its TDO choices). With
    [dir] each namespace is backed by [<dir>/<namespace>.json], loaded
    lazily on first access and written back by {!flush}, which creates
    [dir] and its missing parents. *)
val create : ?dir:string -> unit -> t

val enabled : t -> bool

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

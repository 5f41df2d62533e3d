(** Persistent worker-domain pool.

    Worker domains are spawned lazily on first parallel submission and
    then reused for every subsequent batch, so repeated parallel calls
    (candidate expansion, TDO trials, sharded launches) pay two lock
    round-trips instead of [jobs - 1] domain spawns each.

    Determinism contract: the lowest-index exception is the one
    re-raised, so a batch whose items write only their own index's
    results is observably identical to its sequential counterpart
    regardless of how the domains interleave.

    The pool runs one batch at a time; a batch submitted while another
    is in flight (nested parallelism) runs inline on the submitting
    domain. *)

type t

val get : unit -> t
(** The process-global pool. All subsystems share it, so the process
    never holds more parked domains than the largest [jobs] ever
    requested. *)

val size : t -> int
(** Number of worker domains spawned so far (excluding callers).
    0 until the first parallel batch is submitted. *)

val effective_jobs : int -> int
(** [effective_jobs jobs] is the parallelism a request for [jobs]
    workers actually gets: at least 1, at most the runtime's
    recommended domain count. Callers that pay a per-shard setup cost
    (cloned machines, copied environments) should size their sharding
    by this rather than the raw request, so oversubscribed [--jobs]
    values degrade to sequential execution instead of slowing down. *)

val override_domain_count : int option -> unit
(** Test seam: pretend the machine has [n] cores (or restore detection
    with [None]) so parallel code paths can be exercised on single-core
    CI runners. Oversubscribed domains are slower but correct. *)

val run : t -> jobs:int -> int -> (slot:int -> int -> unit) -> unit
(** [run t ~jobs n f] executes [f ~slot i] for each [i] in [0, n) on up
    to [jobs] workers including the calling domain. [slot] is a dense
    worker identifier in [0, jobs) (slot 0 = the caller) for indexing
    per-worker state. Blocks until all indices complete; re-raises the
    lowest-index exception raised by [f]. Runs inline sequentially when
    [jobs <= 1], [n <= 1], or called from within another batch. *)

val shutdown : t -> unit
(** Stop and join all workers. Registered via [at_exit] for the global
    pool; only needed explicitly in tests. *)

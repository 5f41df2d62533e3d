(** Named performance baselines (the latest seconds of every key in
    the history) and the exact regression comparator. The simulator is
    deterministic, so a key whose seconds differ by any amount has
    moved: [Regressed] iff current > baseline, [Improved] iff
    current < baseline. Swapping baseline and current swaps the
    verdicts, and a run against itself is always [Unchanged]. *)

module Json = Pgpu_trace.Json

type key = { bench : string; kernel : string; target : string; config : string }
type t = { name : string; rev : string; entries : (key * float) list  (** seconds, key order *) }

val compare_key : key -> key -> int
val pp_key : key Fmt.t
val key_of_entry : History.entry -> key

(** The last entry written for each key, keys in first-appearance
    order. Every repeat of a key on one tree is bit-identical, so this
    is the run's value; over a history that spans revisions it is the
    newest one's. *)
val latest : History.entry list -> History.entry list

(** [snapshot ?name entries]: a baseline named [name] (default
    ["baseline"]) at the revision of the first entry, holding each
    key's [latest] seconds. *)
val snapshot : ?name:string -> History.entry list -> t

val json_of_t : t -> Json.t
val save : string -> t -> unit
val load : string -> (t, string) result

type verdict = Improved | Regressed | Unchanged

val verdict_name : verdict -> string

type comparison = {
  key : key;
  baseline : float;  (** seconds *)
  current : float;
  ratio : float;  (** current / baseline seconds *)
  verdict : verdict;
}

type result = {
  comparisons : comparison list;  (** keys present on both sides, key order *)
  missing : key list;  (** in the baseline, absent from the current batch *)
  added : key list;  (** in the current batch, absent from the baseline *)
}

(** Take the [latest] of [entries] and classify every baseline key
    present in them. [missing]/[added] keys never produce a verdict. *)
val compare_runs : t -> History.entry list -> result

val regressions : result -> comparison list
val improvements : result -> comparison list

(** Regressions and improvements: every comparison that is not
    [Unchanged], what [--gate] fails on. *)
val moved : result -> comparison list

val json_of_result : result -> Json.t
val pp_comparison : comparison Fmt.t

(** One summary line plus one line per non-[Unchanged] comparison. *)
val pp_result : result Fmt.t

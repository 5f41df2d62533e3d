(** Append-only run database: one JSONL record per kernel x target x
    configuration, derived from the runtime's launch records and
    stamped with the git revision and an environment fingerprint.
    Appends are whole-line [O_APPEND] writes; loads skip blank lines
    and log-and-skip malformed ones. *)

module Descriptor = Pgpu_target.Descriptor
module Bottleneck = Pgpu_gpusim.Bottleneck
module Json = Pgpu_trace.Json

val src : Logs.src

(** Current record schema; entries from other versions are skipped on
    load. *)
val schema_version : int

type entry = {
  bench : string;  (** benchmark (or source file) the kernel came from *)
  kernel : string;
  target : string;  (** target descriptor name, e.g. ["a100"] *)
  config : string;  (** compilation configuration, e.g. ["untuned"] or ["tdo"] *)
  rev : string;  (** git revision of the writing checkout *)
  env : string;  (** environment fingerprint of the writing process *)
  launches : int;
  alternative : int option;  (** TDO choice of the dominant launch *)
  seconds : float;  (** simulated kernel seconds, all launches *)
  composite_seconds : float;  (** whole-run composite the kernel was part of *)
  host_seconds : float;
      (** host wall-clock of the whole run (compile + execute), shared
          by every kernel of the run; 0 when not measured *)
  jobs : int;
      (** worker domains the run was executed with; 1 when the writer
          predates the field (results are jobs-invariant) *)
  cycles : float;  (** simulated device cycles of the dominant launch *)
  occupancy : float;
  bottleneck : Bottleneck.t;
  warp_insts : float;
  dram_bytes : float;
  divergent_branches : float;
}

(** Current git revision (first 12 hex digits), resolved by walking up
    to [.git] and following [HEAD] — no subprocess. ["unknown"] when
    not in a git checkout. *)
val git_rev : unit -> string

(** Stable fingerprint of the executing toolchain
    (compiler version / OS / word size). *)
val env_fingerprint : unit -> string

(** Project the per-kernel profile of one run into history entries
    (one per kernel), stamped with [git_rev ()] and
    [env_fingerprint ()]. *)
val entries_of_run :
  ?host_seconds:float ->
  ?jobs:int ->
  bench:string ->
  config:string ->
  target:Descriptor.t ->
  Profile.report ->
  entry list

(** The last entry written for each (bench, kernel, target, config)
    key, keys in first-appearance order. Every repeat of a key on one
    tree is bit-identical, so this is the run's value; over a history
    that spans revisions it is the newest one's. *)
val latest : entry list -> entry list

val json_of_entry : entry -> Json.t
val entry_of_json : Json.t -> (entry, string) result

(** JSON object-field accessors shared by the observatory codecs
    ([num_field] accepts both [Int] and [Float] encodings). *)
val str_field : string -> Json.t -> (string, string) result

val num_field : string -> Json.t -> (float, string) result

(** The storage file, [dir/runs.jsonl]. *)
val file : dir:string -> string

(** Append entries (creates [dir] and the file as needed). The whole
    batch is written as one buffered write under an advisory
    [Unix.lockf] write lock, so concurrent bench processes appending
    to the same history can never interleave partial records. *)
val append : dir:string -> entry list -> unit

(** All well-formed entries, in write order. [Error] only when the
    history file itself is unreadable. *)
val load : dir:string -> (entry list, string) result

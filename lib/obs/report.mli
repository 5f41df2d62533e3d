(** Cross-target performance report over a list of profiled runs:
    per-target speedup tables (one row per bench/kernel, one column per
    configuration, speedups vs the ["untuned"] configuration, or the
    first one when there is none) and a bottleneck breakdown per
    target. Same structure rendered as text, JSON, or a self-contained
    HTML dashboard. *)

module Json = Pgpu_trace.Json
module Bottleneck = Pgpu_gpusim.Bottleneck

type config_cell = {
  config : string;
  seconds : float;  (** simulated kernel seconds *)
  speedup : float;  (** reference config seconds / this config seconds *)
}

type kernel_row = {
  bench : string;
  kernel : string;
  cells : config_cell list;
  best_config : string;  (** fastest configuration *)
  bottleneck : Bottleneck.t;  (** of the best configuration's run *)
  occupancy : float;
  alternative : int option;
}

type target_section = {
  target : string;
  reference : string;  (** config the speedups are relative to *)
  configs : string list;
  rows : kernel_row list;
  bottlenecks : (string * int) list;  (** label -> kernel count *)
}

type t = { sections : target_section list }

(** Assemble the report from a list of runs
    [{bench, target, config, profile}], [profile] in
    [Profile.json_of_report]'s schema: the file every [bench/main.exe
    EXPERIMENT --metrics-dir DIR] writes as [DIR/EXPERIMENT.json] and
    the files under [bench/baselines] pin. A run that holds [pruned] in
    place of a profile adds no row. [Error] names the run's index and
    the field that is missing or wrongly typed. *)
val build : Json.t -> (t, string) result

val pp : t Fmt.t
val to_string : t -> string
val to_json : t -> Json.t
val to_html : t -> string

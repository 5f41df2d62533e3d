(** Cross-target performance report over the run history: per-target
    speedup tables (one row per bench/kernel, one column per
    configuration, speedups vs the ["untuned"] reference), a
    bottleneck breakdown per target and an optional embedded bench
    summary. Same structure rendered as text, JSON, or a
    self-contained HTML dashboard. *)

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
  host_seconds : float;  (** that run's host wall-clock; 0 if unrecorded *)
  host_throughput : float;
      (** simulated warp instructions per host second (simulation
          speed); 0 when wall-clock was not recorded *)
}

type target_section = {
  target : string;
  reference : string;  (** config the speedups are relative to *)
  configs : string list;
  rows : kernel_row list;
  bottlenecks : (string * int) list;  (** label -> kernel count *)
}

type t = {
  n_entries : int;
  revs : string list;
  envs : string list;
  sections : target_section list;
  summary : Json.t option;
}

(** Assemble the report from each key's [History.latest] entry. *)
val build : ?summary:Json.t -> History.entry list -> t

val pp : t Fmt.t
val to_string : t -> string
val to_json : t -> Json.t
val to_html : t -> string

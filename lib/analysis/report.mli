(** Diagnostics produced by the barrier-safety and race analyses, with
    text and JSON renderings. Messages are built from value hints (not
    SSA ids), so reports are stable across processes and can be pinned
    by golden tests. *)

module Json = Pgpu_trace.Json

type severity = Error | Warning

type diagnostic = {
  severity : severity;
  kind : string;
      (** stable machine-readable tag: ["barrier-divergence"],
          ["shared-race"], ["possible-race"], ["unknown-index"],
          ["dynamic-race"], ["device-error"], ["host-error"], ["cpu-fission"] *)
  kernel : string;  (** kernel name, suffixed with the alternative desc if any *)
  message : string;
}

val errors : diagnostic list -> diagnostic list
val has_errors : diagnostic list -> bool
val pp_severity : severity Fmt.t
val pp_diagnostic : diagnostic Fmt.t

(** Deterministic report order: kernel, then severity, then message. *)
val sort : diagnostic list -> diagnostic list

(** One line per diagnostic plus a summary line, in [sort] order. *)
val pp_report : diagnostic list Fmt.t

val to_string : diagnostic list -> string
val json_of_diagnostic : diagnostic -> Json.t

(** [{errors; warnings; diagnostics}] with the list in [sort] order. *)
val to_json : diagnostic list -> Json.t

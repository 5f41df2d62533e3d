(** Diagnostics produced by the barrier-safety and race analyses, with
    text and JSON renderings. Diagnostic messages are built from value
    hints (not SSA ids), so reports are stable across processes and can
    be pinned by golden tests. *)

module Json = Pgpu_trace.Json

type severity = Error | Warning

type diagnostic = {
  severity : severity;
  kind : string;
      (** stable machine-readable tag: ["barrier-divergence"],
          ["shared-race"], ["possible-race"], ["unknown-index"],
          ["dynamic-race"], ["device-error"], ["host-error"] *)
  kernel : string;  (** kernel name, suffixed with the alternative desc if any *)
  message : string;
}

let errors ds = List.filter (fun d -> d.severity = Error) ds
let has_errors ds = List.exists (fun d -> d.severity = Error) ds

let pp_severity ppf = function
  | Error -> Fmt.string ppf "error"
  | Warning -> Fmt.string ppf "warning"

let pp_diagnostic ppf d =
  Fmt.pf ppf "%a[%s] %s: %s" pp_severity d.severity d.kind d.kernel d.message

(** The text report: one line per diagnostic plus a summary line, in a
    deterministic order (kernel, then severity, then message). *)
let sort ds =
  List.stable_sort
    (fun a b ->
      match String.compare a.kernel b.kernel with
      | 0 -> ( match compare a.severity b.severity with 0 -> compare a.message b.message | c -> c)
      | c -> c)
    ds

let pp_report ppf ds =
  let ds = sort ds in
  List.iter (fun d -> Fmt.pf ppf "%a@." pp_diagnostic d) ds;
  let ne = List.length (errors ds) and nw = List.length ds - List.length (errors ds) in
  if ds = [] then Fmt.pf ppf "no diagnostics@."
  else Fmt.pf ppf "%d error(s), %d warning(s)@." ne nw

let to_string ds = Fmt.str "%a" pp_report ds

let json_of_diagnostic d =
  Json.Obj
    [
      ("severity", Json.Str (Fmt.str "%a" pp_severity d.severity));
      ("kind", Json.Str d.kind);
      ("kernel", Json.Str d.kernel);
      ("message", Json.Str d.message);
    ]

let to_json ds =
  let ds = sort ds in
  Json.Obj
    [
      ("errors", Json.Int (List.length (errors ds)));
      ("warnings", Json.Int (List.length ds - List.length (errors ds)));
      ("diagnostics", Json.List (List.map json_of_diagnostic ds));
    ]

(** Whole-program composite times, pinned. The quick gate pins kernel
    times and the differential tests compare two kernel engines under
    one host runtime; this table pins what the host runtime adds: the
    host-instruction charges, the memcpy times and the TDO choices.

    Each row is one run of a bundled program at its [test_args] on one
    target under one configuration: the composite seconds, printed
    with [%h] so the comparison is bitwise, and the alternative every
    launch ran, in launch order. The untuned and 3-config tuned rows
    run in the default suite; the 11-config tuned rows (about 7 s) run
    only when [QCHECK_LONG=1], as the long-mode properties do.
    [Composite_table.rows] is printed by {!print_rows}. *)

module P = Pgpu_core.Polygeist_gpu
module E = Pgpu_core.Experiments
module Bench_def = Pgpu_rodinia.Bench_def
module Descriptor = Pgpu_target.Descriptor

let targets = [ Descriptor.a100; Descriptor.rx6800; Descriptor.cpu ]

(** Configurations: name, coarsening specs, tune, long-only. *)
let configs =
  [
    ("untuned", [], false, false);
    ("tdo3", E.obs_specs, true, false);
    ("tdo11", E.composite_specs, true, true);
  ]

let long_mode =
  match Sys.getenv_opt "QCHECK_LONG" with Some ("1" | "true") -> true | _ -> false

(** The alternative of each launch, run-length encoded: [k*n] for [n]
    consecutive launches of alternative [k], [-] for a wrapper without
    alternatives. *)
let alternatives (records : P.Runtime.launch_record list) =
  let name = function None -> "-" | Some k -> string_of_int k in
  let rec go acc = function
    | [] -> List.rev acc
    | (a : P.Runtime.launch_record) :: rest ->
        let k = a.P.Runtime.alternative in
        let rec count n = function
          | (b : P.Runtime.launch_record) :: rest when b.P.Runtime.alternative = k ->
              count (n + 1) rest
          | rest -> (n, rest)
        in
        let n, rest = count 1 rest in
        go (Printf.sprintf "%s*%d" (name k) n :: acc) rest
  in
  String.concat " " (go [] records)

(** Composite seconds ([%h]) and launch alternatives of one run. *)
let measure (b : Bench_def.t) (target : Descriptor.t) ~specs ~tune =
  let c = P.compile ~specs ~target ~source:b.Bench_def.source () in
  let r = P.run ~tune c ~args:b.Bench_def.test_args in
  (Printf.sprintf "%h" r.P.composite_seconds, alternatives r.P.records)

let benches () = P.Rodinia.all @ P.Hecbench.all

(** Print the table in the syntax of [composite_table.ml]. *)
let print_rows () =
  print_endline "let rows =\n  [";
  List.iter
    (fun (cname, specs, tune, _) ->
      List.iter
        (fun (b : Bench_def.t) ->
          List.iter
            (fun (t : Descriptor.t) ->
              let secs, alts = measure b t ~specs ~tune in
              Printf.printf "    (%S, %S, %S, %S, %S);\n" b.Bench_def.name t.Descriptor.name
                cname secs alts)
            targets)
        (benches ()))
    configs;
  print_endline "  ]"

let check_config (cname, specs, tune, long) () =
  if long && not long_mode then ()
  else begin
    let rows = List.filter (fun (_, _, c, _, _) -> String.equal c cname) Composite_table.rows in
    Alcotest.(check int) (cname ^ ": rows") (List.length (benches ()) * List.length targets)
      (List.length rows);
    List.iter
      (fun (bname, tname, _, secs, alts) ->
        let b = List.find (fun (b : Bench_def.t) -> String.equal b.Bench_def.name bname) (benches ()) in
        let t = List.find (fun (t : Descriptor.t) -> String.equal t.Descriptor.name tname) targets in
        let secs', alts' = measure b t ~specs ~tune in
        let what = Printf.sprintf "%s on %s, %s" bname tname cname in
        Alcotest.(check string) (what ^ ": composite seconds") secs secs';
        Alcotest.(check string) (what ^ ": launch alternatives") alts alts')
      rows
  end

let suite =
  [
    ( "composite",
      List.map
        (fun ((cname, _, _, long) as config) ->
          Alcotest.test_case
            (Printf.sprintf "%s composite seconds and choices%s" cname
               (if long then " (QCHECK_LONG=1)" else ""))
            (if long then `Slow else `Quick)
            (check_config config))
        configs );
  ]

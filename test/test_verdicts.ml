(** The race gate's verdicts, pinned. The CI sweep asserts only error
    and warning counts, so a change to the checker or its solver that
    moved a verdict without moving a count would pass it.

    Each row is one kernel of a bundled program compiled for one target
    with the 11 composite coarsening configurations: every candidate's
    decision as [Alternatives.pp_decision] prints it, and every
    diagnostic, warnings included, that the race checker reports on
    each kept candidate's region under the constants the gate resolves
    (the region's own and the host code's), in candidate order. The
    table was printed by {!print_rows} against the tree before the
    gate's per-expansion memo and its pair-query builder, so it holds
    the verdicts of the list-based query path; the whole table takes
    about 3 s. *)

module P = Pgpu_core.Polygeist_gpu
module E = Pgpu_core.Experiments
module Descriptor = Pgpu_target.Descriptor
module Alternatives = Pgpu_transforms.Alternatives
module Coarsen = Pgpu_transforms.Coarsen
module Check = Pgpu_analysis.Check
module Report = Pgpu_analysis.Report
module Affine = Pgpu_analysis.Affine
module Bench_def = Pgpu_rodinia.Bench_def
open Pgpu_ir

let targets = [ Descriptor.a100; Descriptor.rx6800; Descriptor.cpu ]
let benches () = P.Rodinia.all @ P.Hecbench.all

(** The candidates and diagnostics of each kernel of [b] on [target]:
    (kernel, decisions, diagnostics). *)
let measure (b : Bench_def.t) (target : Descriptor.t) =
  let c = P.compile ~specs:E.composite_specs ~target ~source:b.Bench_def.source () in
  let outer = Coarsen.const_env (List.map (fun (f : Instr.func) -> f.Instr.body) c.P.modul.Instr.funcs) in
  let bodies = Hashtbl.create 8 in
  List.iter
    (fun (f : Instr.func) ->
      Instr.iter_deep
        (function Instr.Gpu_wrapper { wid; body; _ } -> Hashtbl.replace bodies wid body | _ -> ())
        f.Instr.body)
    c.P.modul.Instr.funcs;
  List.map
    (fun (kr : P.Pipeline.kernel_report) ->
      let cands = kr.P.Pipeline.candidates in
      let kept = List.filter (fun (c : Alternatives.candidate) -> c.Alternatives.decision = Alternatives.Kept) cands in
      let regions =
        match (Hashtbl.find bodies kr.P.Pipeline.wid, kept) with
        | [ Instr.Alternatives { descs; regions; _ } ], _ -> List.combine descs regions
        | body, [ only ] -> [ (only.Alternatives.desc, body) ]
        | _, _ -> []
      in
      let memo = Affine.memo () in
      let diags =
        List.concat_map
          (fun (c : Alternatives.candidate) ->
            match List.assoc_opt c.Alternatives.desc regions with
            | Some r when c.Alternatives.decision = Alternatives.Kept ->
                let const_of v = match Coarsen.const_env [ r ] v with Some n -> Some n | None -> outer v in
                List.map (Fmt.str "%a" Report.pp_diagnostic)
                  (Report.sort
                     (Check.check_region ~memo ~const_of
                        ~kernel:(kr.P.Pipeline.kernel ^ ":" ^ c.Alternatives.desc)
                        r))
            | _ -> [])
          cands
      in
      let decisions =
        String.concat "; "
          (List.map
             (fun (c : Alternatives.candidate) ->
               Fmt.str "%s %a" c.Alternatives.desc Alternatives.pp_decision c.Alternatives.decision)
             cands)
      in
      (kr.P.Pipeline.kernel, decisions, diags))
    c.P.report.P.Pipeline.kernels

(** Print the table in the syntax of [verdict_table.ml]. *)
let print_rows () =
  print_endline "let rows =\n  [";
  List.iter
    (fun (t : Descriptor.t) ->
      List.iter
        (fun (b : Bench_def.t) ->
          List.iter
            (fun (kernel, decisions, diags) ->
              Printf.printf "    (%S, %S, %S,\n      %S,\n      [%s]);\n" b.Bench_def.name
                t.Descriptor.name kernel decisions
                (String.concat "; " (List.map (Printf.sprintf "%S") diags)))
            (measure b t))
        (benches ()))
    targets;
  print_endline "  ]"

let check_target (t : Descriptor.t) () =
  let rows = List.filter (fun (_, tn, _, _, _) -> String.equal tn t.Descriptor.name) Verdict_table.rows in
  let measured =
    List.concat_map
      (fun (b : Bench_def.t) ->
        List.map (fun (k, d, ds) -> (b.Bench_def.name, t.Descriptor.name, k, d, ds)) (measure b t))
      (benches ())
  in
  Alcotest.(check int) (t.Descriptor.name ^ ": kernels") (List.length rows) (List.length measured);
  List.iter2
    (fun (b, _, k, d, ds) (b', _, k', d', ds') ->
      let what = Printf.sprintf "%s on %s, kernel %s" b t.Descriptor.name k in
      Alcotest.(check (pair string string)) (what ^ ": program, kernel") (b, k) (b', k');
      Alcotest.(check string) (what ^ ": decisions") d d';
      Alcotest.(check (list string)) (what ^ ": diagnostics") ds ds')
    rows measured

let suite =
  [
    ( "verdicts",
      List.map
        (fun (t : Descriptor.t) ->
          Alcotest.test_case ("race gate verdicts on " ^ t.Descriptor.name) `Quick (check_target t))
        targets );
  ]

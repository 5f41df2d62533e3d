(** Differential correctness harness (the paper's output-comparison
    methodology, systematized).

    Every registered Rodinia and HeCBench benchmark is run uncoarsened
    and then pinned to each coarsened variant at block/thread totals
    {2, 4}; all output buffers must be bit-identical to the baseline.
    The matrix runs on both an NVIDIA (A100) and an AMD (RX 6800)
    descriptor, so any coarsening transform that silently reorders
    arithmetic, drops a tail guard or mis-epilogues a reduction fails
    loudly on both vendors' launch geometries. *)

module Bench_def = Pgpu_rodinia.Bench_def
module Frontend = Pgpu_frontend.Frontend
module Runtime = Pgpu_runtime.Runtime
module Exec = Pgpu_gpusim.Exec
module Descriptor = Pgpu_target.Descriptor
module Pipeline = Pgpu_transforms.Pipeline
open Pgpu_ir

let benches = Pgpu_rodinia.Registry.all @ Pgpu_hecbench.Registry.all

(* (block_total, thread_total) pairs; 1 is the baseline itself *)
let totals = [ (2, 1); (4, 1); (1, 2); (1, 4) ]

(** Run [m] with coarsening [specs], pinned to alternatives region
    [fixed]; returns the contents of every returned buffer. *)
let run_configured (target : Descriptor.t) m ~specs ~fixed args =
  let opts = { (Pipeline.default_options target) with Pipeline.coarsen_specs = specs } in
  let m', _ = Pipeline.compile opts m in
  let config = { (Runtime.default_config target) with Runtime.fixed_choice = fixed } in
  let results, _ = Runtime.run config m' (List.map (fun n -> Exec.UI n) args) in
  List.map Runtime.buffer_contents results

let check_bitwise ~what baseline got =
  if List.length baseline <> List.length got then
    Alcotest.failf "%s: %d result buffers, baseline has %d" what (List.length got)
      (List.length baseline);
  List.iteri
    (fun b (eb, gb) ->
      if List.length eb <> List.length gb then
        Alcotest.failf "%s: buffer %d has %d elements, baseline has %d" what b
          (List.length gb) (List.length eb);
      List.iteri
        (fun i (e, g) ->
          (* bit-identical: coarsening must not perturb a single ulp *)
          if not (Int64.equal (Int64.bits_of_float e) (Int64.bits_of_float g)) then
            Alcotest.failf "%s: buffer %d differs at %d: baseline %h, got %h" what b i e g)
        (List.combine eb gb))
    (List.combine baseline got)

let test_bench (target : Descriptor.t) (b : Bench_def.t) () =
  let args = b.Bench_def.test_args in
  let m = Frontend.compile_string b.Bench_def.source in
  Verify.check_exn m;
  let baseline = run_configured target m ~specs:[] ~fixed:0 args in
  List.iter
    (fun (bf, tf) ->
      let specs = Pipeline.specs_of_totals [ (1, 1); (bf, tf) ] in
      (* region 0 = identity, region 1 = the coarsened variant; when
         pruning rejected it, fixed_choice clamps back to identity and
         the comparison is trivially exact *)
      let got = run_configured target m ~specs ~fixed:1 args in
      check_bitwise
        ~what:(Fmt.str "%s b%dt%d on %s" b.Bench_def.name bf tf target.Descriptor.name)
        baseline got)
    totals

let cases_for (target : Descriptor.t) =
  List.map
    (fun (b : Bench_def.t) ->
      Alcotest.test_case
        (Fmt.str "%s vs coarsened on %s" b.Bench_def.name target.Descriptor.name)
        `Slow (test_bench target b))
    benches

(** Engine differential: every benchmark must run bit-identically on
    the compiled engine and on the reference interpreter ({!Interp}):
    the same output buffers, the same counters at every launch and the
    same composite time. Returns those three of one run. *)
let run_engine ?reference (target : Descriptor.t) m args =
  let m', _ = Pipeline.compile (Pipeline.default_options target) m in
  let results, st =
    Runtime.run ?reference (Runtime.default_config target) m' (List.map (fun n -> Exec.UI n) args)
  in
  ( List.map Runtime.buffer_contents results,
    List.map
      (fun (r : Runtime.launch_record) -> r.Runtime.result.Exec.counters)
      (Runtime.records st),
    Runtime.composite_seconds st )

let test_engines (target : Descriptor.t) (b : Bench_def.t) () =
  let args = b.Bench_def.test_args in
  let m = Frontend.compile_string b.Bench_def.source in
  Verify.check_exn m;
  let what = Fmt.str "%s engines on %s" b.Bench_def.name target.Descriptor.name in
  let out_i, counters_i, time_i = run_engine ~reference:Interp.runner target m args in
  let out_c, counters_c, time_c = run_engine target m args in
  check_bitwise ~what out_i out_c;
  if List.length counters_i <> List.length counters_c then
    Alcotest.failf "%s: %d launches, the interpreter made %d" what (List.length counters_c)
      (List.length counters_i);
  List.iteri
    (fun k (ci, cc) -> if ci <> cc then Alcotest.failf "%s: counters of launch %d differ" what k)
    (List.combine counters_i counters_c);
  if not (Float.equal time_i time_c) then
    Alcotest.failf "%s: composite time %h, the interpreter's %h" what time_c time_i

let engine_cases_for (target : Descriptor.t) =
  List.map
    (fun (b : Bench_def.t) ->
      Alcotest.test_case
        (Fmt.str "%s compiled vs interp on %s" b.Bench_def.name target.Descriptor.name)
        `Slow (test_engines target b))
    benches

let suite =
  [
    ( "differential",
      cases_for Descriptor.a100 @ cases_for Descriptor.rx6800
      @ engine_cases_for Descriptor.a100 @ engine_cases_for Descriptor.rx6800 );
  ]

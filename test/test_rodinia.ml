(** Correctness tests for the Rodinia benchmark suite: every benchmark
    is compiled and run at test scale against its CPU reference, in the
    baseline configuration and in coarsened configurations (the
    paper's output-comparison methodology). *)

module Bench_def = Pgpu_rodinia.Bench_def
module Registry = Pgpu_rodinia.Registry
module Frontend = Pgpu_frontend.Frontend
module Runtime = Pgpu_runtime.Runtime
module Exec = Pgpu_gpusim.Exec
module Descriptor = Pgpu_target.Descriptor
module Pipeline = Pgpu_transforms.Pipeline
open Pgpu_ir

let check_output (b : Bench_def.t) expected actual =
  Kernels.check_floats ~tol:b.Bench_def.tolerance b.Bench_def.name (Array.to_list expected) actual

let run_bench ?(target = Descriptor.a100) ?(specs = []) ?(tune = false) ?(fixed = 0)
    ?(optimize = true) (b : Bench_def.t) args =
  let m = Frontend.compile_string b.Bench_def.source in
  Verify.check_exn m;
  let opts =
    { (Pipeline.default_options target) with Pipeline.optimize; coarsen_specs = specs }
  in
  let m', _ = Pipeline.compile opts m in
  let config = { (Runtime.default_config target) with Runtime.tune; fixed_choice = fixed } in
  Runtime.run config m' (List.map (fun n -> Exec.UI n) args)

let test_baseline (b : Bench_def.t) () =
  let args = b.Bench_def.test_args in
  let results, _ = run_bench b args in
  check_output b (b.Bench_def.reference args) (Runtime.buffer_contents (List.hd results))

let test_unoptimized (b : Bench_def.t) () =
  let args = b.Bench_def.test_args in
  let results, _ = run_bench ~optimize:false b args in
  check_output b (b.Bench_def.reference args) (Runtime.buffer_contents (List.hd results))

let test_coarsened (b : Bench_def.t) () =
  let args = b.Bench_def.test_args in
  let expected = b.Bench_def.reference args in
  let specs = Pipeline.specs_of_totals [ (1, 1); (2, 1); (1, 2); (2, 2); (3, 1) ] in
  (* run with TDO so every launch site picks some surviving variant *)
  let results, _ = run_bench ~specs ~tune:true b args in
  check_output b expected (Runtime.buffer_contents (List.hd results))

let test_amd (b : Bench_def.t) () =
  let args = b.Bench_def.test_args in
  let results, _ = run_bench ~target:Descriptor.rx6800 b args in
  check_output b (b.Bench_def.reference args) (Runtime.buffer_contents (List.hd results))

let suite =
  [
    ( "rodinia",
      List.concat_map
        (fun (b : Bench_def.t) ->
          [
            Alcotest.test_case (b.Bench_def.name ^ " baseline") `Quick (test_baseline b);
            Alcotest.test_case (b.Bench_def.name ^ " unoptimized") `Quick (test_unoptimized b);
            Alcotest.test_case (b.Bench_def.name ^ " coarsened+TDO") `Slow (test_coarsened b);
            Alcotest.test_case (b.Bench_def.name ^ " on AMD") `Quick (test_amd b);
          ])
        Registry.all );
  ]

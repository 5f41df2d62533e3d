(** CPU backend correctness: barrier fission + domain-parallel
    execution against the gpusim A100 baseline.

    Three nets:
    - every registered benchmark runs on the CPU target uncoarsened and
      at coarsening totals {2, 4}, and every output buffer must be
      bit-identical to the uncoarsened A100 execution — fission,
      scalar expansion and the domain scheduler may not perturb a
      single ulp;
    - qcheck properties over randomly generated barrier-bearing
      kernels: the fissioned module still verifies, contains no
      barrier inside any thread-level parallel, and executes (across 2
      domains) bit-identically to the lockstep A100 simulation;
    - a warm persistent-cache TDO run on the CPU target replays the
      tuned choices from the cache directory without re-trialing, with
      the cold run's outputs and composite time: the cpu rows of
      [Test_cache]'s replay table. *)

module P = Pgpu_core.Polygeist_gpu
module Bench_def = Pgpu_rodinia.Bench_def
module Frontend = Pgpu_frontend.Frontend
module Runtime = Pgpu_runtime.Runtime
module Exec = Pgpu_gpusim.Exec
module Descriptor = Pgpu_target.Descriptor
module Pipeline = Pgpu_transforms.Pipeline
module Fission = Pgpu_transforms.Fission
open Pgpu_ir

let benches = Pgpu_rodinia.Registry.all @ Pgpu_hecbench.Registry.all

let run_configured (target : Descriptor.t) m ~specs ~fixed args =
  let opts = { (Pipeline.default_options target) with Pipeline.coarsen_specs = specs } in
  let m', _ = Pipeline.compile opts m in
  let config =
    { (Runtime.default_config target) with Runtime.fixed_choice = fixed; jobs = 2 }
  in
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
          if not (Int64.equal (Int64.bits_of_float e) (Int64.bits_of_float g)) then
            Alcotest.failf "%s: buffer %d differs at %d: baseline %h, got %h" what b i e g)
        (List.combine eb gb))
    (List.combine baseline got)

(* ------------------------------------------------------------------ *)
(* Benchmarks: CPU vs the A100 baseline at coarsening totals {1,2,4}   *)
(* ------------------------------------------------------------------ *)

(* (block_total, thread_total); (1,1) exercises the uncoarsened path *)
let totals = [ (1, 1); (2, 1); (1, 2); (4, 1); (1, 4) ]

let test_bench (b : Bench_def.t) () =
  let args = b.Bench_def.test_args in
  let m = Frontend.compile_string b.Bench_def.source in
  let baseline = run_configured Descriptor.a100 m ~specs:[] ~fixed:0 args in
  List.iter
    (fun (bf, tf) ->
      let specs, fixed =
        if (bf, tf) = (1, 1) then ([], 0) else (Pipeline.specs_of_totals [ (1, 1); (bf, tf) ], 1)
      in
      let got = run_configured Descriptor.cpu m ~specs ~fixed args in
      check_bitwise ~what:(Fmt.str "%s b%dt%d on cpu" b.Bench_def.name bf tf) baseline got)
    totals

let bench_cases =
  List.map
    (fun (b : Bench_def.t) ->
      Alcotest.test_case (Fmt.str "%s on cpu vs a100" b.Bench_def.name) `Slow (test_bench b))
    benches

(* ------------------------------------------------------------------ *)
(* Properties over random barrier-bearing kernels                      *)
(* ------------------------------------------------------------------ *)

(** Kernels from this generator synchronize through straight-line
    [To_shared] steps only, so fission must always succeed on them. *)
let arb_barrier_kdesc =
  let open Test_random_kernels in
  QCheck.make
    ~print:(Fmt.str "%a" pp_kdesc)
    QCheck.Gen.(
      let* d = gen_kdesc in
      let* i = gen_idx in
      (* guarantee at least one barrier *)
      return { d with steps = (To_shared i :: d.steps) })

let no_thread_barriers (m : Instr.modul) =
  let ok = ref true in
  List.iter
    (fun (f : Instr.func) ->
      Instr.iter_deep
        (fun i ->
          match i with
          | Instr.Parallel { level = Instr.Threads; body; _ } ->
              if Instr.contains_barrier body then ok := false
          | _ -> ())
        f.Instr.body)
    m.Instr.funcs;
  !ok

let prop_fission_wellformed =
  QCheck.Test.make ~name:"fission: lowered module verifies, no thread barriers left"
    ~count:40 arb_barrier_kdesc (fun d ->
      let m = Test_random_kernels.build_module d in
      Verify.check_exn m;
      let lowered, outcomes = P.cpu_lower_modul m in
      List.iter
        (fun (name, o) ->
          match o with
          | Ok (s : Fission.stats) ->
              if s.Fission.epochs < 2 then
                QCheck.Test.fail_reportf "%s: barrier-bearing kernel produced %d epoch(s)"
                  name s.Fission.epochs
          | Error msg -> QCheck.Test.fail_reportf "%s: fission refused: %s" name msg)
        outcomes;
      Verify.check_exn lowered;
      no_thread_barriers lowered)

let prop_fission_preserves_semantics =
  QCheck.Test.make ~name:"fission: cpu execution matches a100 bitwise" ~count:40 ~long_factor:10
    arb_barrier_kdesc (fun d ->
      let m = Test_random_kernels.build_module d in
      let run target =
        let config = { (Runtime.default_config target) with Runtime.jobs = 2 } in
        let results, _ = Runtime.run config m [ Exec.UI d.Test_random_kernels.nblocks ] in
        List.map Runtime.buffer_contents results
      in
      let a = run Descriptor.a100 and c = run Descriptor.cpu in
      check_bitwise ~what:"random kernel on cpu" a c;
      true)

let suite =
  [
    ( "cpu",
      bench_cases
      @ [
          QCheck_alcotest.to_alcotest prop_fission_wellformed;
          QCheck_alcotest.to_alcotest prop_fission_preserves_semantics;
          Alcotest.test_case "warm TDO cache replay on cpu" `Quick Test_cache.test_warm_tdo_cpu;
        ] );
  ]

(** Tests for the retargeting paths: the hipify source-to-source
    baseline (renames + reported manual fixes) and the IR-level route,
    including the AMD shared-memory demotion behaviour the paper
    analyses for nw (Section VII-D2). *)

module Hipify = Pgpu_retarget.Hipify
module Retarget = Pgpu_retarget.Retarget
module Frontend = Pgpu_frontend.Frontend
module Runtime = Pgpu_runtime.Runtime
module Exec = Pgpu_gpusim.Exec
module Counters = Pgpu_gpusim.Counters
module Descriptor = Pgpu_target.Descriptor
module Registry = Pgpu_rodinia.Registry
module Bench_def = Pgpu_rodinia.Bench_def

let ( !: ) = Alcotest.test_case

let contains s sub =
  let ns = String.length s and nb = String.length sub in
  let rec go k = k + nb <= ns && (String.sub s k nb = sub || go (k + 1)) in
  go 0

let test_hipify_renames () =
  let src = "cudaMalloc((void**)&d, n); cudaMemcpy(d, h, n, cudaMemcpyHostToDevice); cudaFree(d);" in
  let out, issues = Hipify.hipify src in
  Alcotest.(check bool) "hipMalloc" true (contains out "hipMalloc");
  Alcotest.(check bool) "hipMemcpy" true (contains out "hipMemcpy");
  Alcotest.(check bool) "hipMemcpyHostToDevice" true (contains out "hipMemcpyHostToDevice");
  Alcotest.(check bool) "hipFree" true (contains out "hipFree");
  Alcotest.(check bool) "no cuda API left" false (contains out "cudaMalloc");
  Alcotest.(check int) "no issues for plain code" 0 (List.length issues)

let test_hipify_does_not_mangle_identifiers () =
  let out, _ = Hipify.hipify "int cudaMallocCount = 0; mycudaFree(x);" in
  Alcotest.(check bool) "longer identifiers untouched" true (contains out "cudaMallocCount");
  Alcotest.(check bool) "prefixed identifiers untouched" true (contains out "mycudaFree")

let test_hipify_reports_manual_fixes () =
  let src =
    "#include <cuda_runtime.h>\n#include <helper_cuda.h>\n#ifdef USE_CUDA\nint x;\n#endif\n"
  in
  let out, issues = Hipify.hipify src in
  Alcotest.(check bool) "header swapped" true (contains out "hip/hip_runtime.h");
  let has p = List.exists p issues in
  Alcotest.(check bool) "include issue" true
    (has (function Hipify.Manual_include _ -> true | _ -> false));
  Alcotest.(check bool) "external header issue" true
    (has (function Hipify.External_header _ -> true | _ -> false));
  Alcotest.(check bool) "ifdef issue" true
    (has (function Hipify.Untranslatable_ifdef _ -> true | _ -> false))

let test_hipified_source_still_compiles () =
  (* every benchmark's hipified source must parse and produce the same
     outputs as the CUDA original *)
  List.iter
    (fun name ->
      let b = Registry.find name in
      let hip, _ = Hipify.hipify b.Bench_def.source in
      let m = Frontend.compile_string hip in
      Pgpu_ir.Verify.check_exn m;
      let config = Runtime.default_config Descriptor.rx6800 in
      let results, _ =
        Runtime.run config m (List.map (fun n -> Exec.UI n) b.Bench_def.test_args)
      in
      Kernels.check_floats ~tol:b.Bench_def.tolerance (name ^ " (hipified)")
        (Array.to_list (b.Bench_def.reference b.Bench_def.test_args))
        (Runtime.buffer_contents (List.hd results)))
    [ "nn"; "pathfinder"; "hotspot" ]

let test_survey_counts () =
  let b = Registry.find "lud" in
  let m = Frontend.compile_string b.Bench_def.source in
  let _, _, survey = Retarget.compile_for ~target:Descriptor.mi210 m in
  Alcotest.(check int) "four launch sites" 4 survey.Retarget.launches;
  Alcotest.(check bool) "barriers surveyed" true (survey.Retarget.barriers > 0);
  Alcotest.(check bool) "shared allocations surveyed" true (survey.Retarget.shared_allocs > 0);
  Alcotest.(check int) "one device allocation" 1 survey.Retarget.device_allocs

(** nw allocates 136 B of shared memory per thread: on AMD the backend
    demotes it to global memory (no shared traffic, no shared
    occupancy pressure); on NVIDIA it stays in shared memory. *)
let test_nw_amd_shared_demotion () =
  let b = Registry.find "nw" in
  let m = Frontend.compile_string b.Bench_def.source in
  let run target =
    let config = Runtime.default_config target in
    let _, st = Runtime.run config m (List.map (fun n -> Exec.UI n) b.Bench_def.test_args) in
    let recs = Runtime.records st in
    List.fold_left
      (fun acc (r : Runtime.launch_record) ->
        acc +. r.Runtime.result.Exec.counters.Counters.shared_load_req)
      0. recs
  in
  let nvidia_shared = run Descriptor.a100 in
  let amd_shared = run Descriptor.rx6800 in
  Alcotest.(check bool) "NVIDIA uses shared memory" true (nvidia_shared > 0.);
  Alcotest.(check (float 0.)) "AMD demoted shared memory to global" 0. amd_shared

let test_lud_amd_keeps_shared () =
  (* lud is far below the demotion threshold: AMD keeps its shared
     memory *)
  let b = Registry.find "lud" in
  let m = Frontend.compile_string b.Bench_def.source in
  let config = Runtime.default_config Descriptor.rx6800 in
  let _, st = Runtime.run config m [ Exec.UI 4 ] in
  let shared =
    List.fold_left
      (fun acc (r : Runtime.launch_record) ->
        acc +. r.Runtime.result.Exec.counters.Counters.shared_load_req)
      0. (Runtime.records st)
  in
  Alcotest.(check bool) "lud keeps shared memory on AMD" true (shared > 0.)

let prop_hipify_idempotent =
  QCheck.Test.make ~name:"hipify is idempotent on benchmark sources" ~count:8
    (QCheck.make (QCheck.Gen.oneofl (Registry.all @ Pgpu_hecbench.Registry.all)))
    (fun (b : Bench_def.t) ->
      let once, _ = Hipify.hipify b.Bench_def.source in
      let twice, issues = Hipify.hipify once in
      String.equal once twice && issues = [])

let suite =
  [
    ( "retarget",
      [
        !:"hipify renames the API" `Quick test_hipify_renames;
        !:"hipify preserves longer identifiers" `Quick test_hipify_does_not_mangle_identifiers;
        !:"hipify reports manual fixes" `Quick test_hipify_reports_manual_fixes;
        !:"hipified sources compile and run" `Quick test_hipified_source_still_compiles;
        !:"IR survey counts constructs" `Quick test_survey_counts;
        !:"nw: AMD demotes heavy shared memory" `Quick test_nw_amd_shared_demotion;
        !:"lud: AMD keeps light shared memory" `Quick test_lud_amd_keeps_shared;
        QCheck_alcotest.to_alcotest prop_hipify_idempotent;
      ] );
  ]

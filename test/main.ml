let () =
  Alcotest.run "polygeist-gpu"
    (Test_support.suite @ Test_ir.suite @ Test_target.suite @ Test_exec.suite
    @ Test_transforms.suite @ Test_frontend.suite @ Test_timing.suite
    @ Test_occupancy_props.suite @ Test_backend_golden.suite @ Test_cross_target.suite
    @ Test_retarget.suite @ Test_rodinia.suite @ Test_hecbench.suite
    @ Test_random_kernels.suite @ Test_trace.suite @ Test_trace_golden.suite
    @ Test_cache.suite @ Test_analysis.suite @ Test_differential.suite @ Test_cpu.suite
    @ Test_pool.suite @ Test_tdo.suite @ Test_obs.suite @ Test_composite.suite
    @ Test_host.suite @ Test_verdicts.suite @ Test_verify.suite)

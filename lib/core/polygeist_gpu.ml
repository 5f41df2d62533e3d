(** Polygeist-GPU: the public facade.

    Ties the whole reproduction together: mini-CUDA frontend,
    host/device-combined IR, granularity selection (thread and block
    coarsening with alternatives), backend statistics, and execution on
    the simulated GPU targets with timing-driven optimization.

    {[
      let compiled =
        Polygeist_gpu.compile ~target:Descriptor.a100
          ~specs:(Polygeist_gpu.specs_of_totals [ (1, 1); (4, 2) ])
          ~source:my_cuda_source ()
      in
      let run = Polygeist_gpu.run ~tune:true compiled ~args:[ 1024 ] in
      Fmt.pr "composite: %.6f s@." run.composite_seconds
    ]} *)

module Descriptor = Pgpu_target.Descriptor
module Occupancy = Pgpu_target.Occupancy
module Backend = Pgpu_target.Backend
module Coarsen = Pgpu_transforms.Coarsen
module Interleave = Pgpu_transforms.Interleave
module Pipeline = Pgpu_transforms.Pipeline
module Alternatives = Pgpu_transforms.Alternatives
module Frontend = Pgpu_frontend.Frontend
module Runtime = Pgpu_runtime.Runtime
module Exec = Pgpu_gpusim.Exec
module Counters = Pgpu_gpusim.Counters
module Timing = Pgpu_gpusim.Timing
module Hipify = Pgpu_retarget.Hipify
module Retarget = Pgpu_retarget.Retarget
module Fission = Pgpu_transforms.Fission
module Cpu_timing = Pgpu_gpusim.Cpu_timing
module Rodinia = Pgpu_rodinia.Registry
module Hecbench = Pgpu_hecbench.Registry
module Bench_def = Pgpu_rodinia.Bench_def
module Trace = Pgpu_trace
module Tracer = Pgpu_trace.Tracer
module Cache = Pgpu_cache.Cache
module Profile = Pgpu_obs.Profile
module Analysis = Pgpu_analysis
module Check = Pgpu_analysis.Check
module Report = Pgpu_analysis.Report
module Racecheck = Pgpu_gpusim.Racecheck
module Bottleneck = Pgpu_gpusim.Bottleneck
module Obs_report = Pgpu_obs.Report

module Instr = Pgpu_ir.Instr

type compiled = {
  target : Descriptor.t;
  modul : Pgpu_ir.Instr.modul;
  report : Pipeline.report;
}

(** Barrier-fission every kernel wrapper of a module, as the CPU
    backend will at launch time. Returns the lowered module and the
    per-kernel outcome: [Ok stats] when fission succeeded (the wrapper
    body was replaced), [Error reason] when it was refused (the
    wrapper is kept as-is and runs unfissioned, each block in lockstep
    on its core).
    Static checking a CPU run against the lowered module keeps
    barrier diagnostics scoped to the code that actually executes. *)
let cpu_lower_modul (m : Pgpu_ir.Instr.modul) :
    Pgpu_ir.Instr.modul * (string * (Fission.stats, string) result) list =
  let outcomes = ref [] in
  let rec walk ~const_of_ext (b : Instr.block) : Instr.block =
    let walk = walk ~const_of_ext in
    List.map
      (fun i ->
        match i with
        | Instr.Gpu_wrapper ({ name; body; _ } as w) -> (
            match Fission.lower_region ~const_of_ext body with
            | Ok l ->
                outcomes := (name, Ok l.Fission.stats) :: !outcomes;
                Instr.Gpu_wrapper { w with body = l.Fission.region }
            | Error msg ->
                outcomes := (name, Error msg) :: !outcomes;
                i)
        | Instr.If ({ then_; else_; _ } as c) ->
            Instr.If { c with then_ = walk then_; else_ = walk else_ }
        | Instr.For ({ body; _ } as f) -> Instr.For { f with body = walk body }
        | Instr.While ({ body; _ } as w) -> Instr.While { w with body = walk body }
        | _ -> i)
      b
  in
  let funcs =
    List.map
      (fun f ->
        (* thread extents are typically host constants of the enclosing
           function, so resolve them at function scope *)
        let const_of_ext = Fission.const_tbl f.Instr.body in
        { f with Instr.body = walk ~const_of_ext f.Instr.body })
      m.Instr.funcs
  in
  ({ Instr.funcs }, List.rev !outcomes)

(** Coarsening specs from (block_total, thread_total) pairs, balanced
    per kernel over its usable dimensions. *)
let specs_of_totals = Pipeline.specs_of_totals

(** Compile mini-CUDA source for a target.
    @param optimize scalar optimizations (CSE, LICM, ...); on by default
    @param specs coarsening configurations to multi-version with
    @param tracer pass/pruning telemetry sink (default: disabled)
    @param cache accepted and ignored: compilation consults no cache.
    Kept only for the host benchmark until it next changes.
    @param jobs domains for candidate expansion (default: 1) *)
let compile ?(optimize = true) ?(specs = []) ?(tracer = Tracer.disabled)
    ?(cache = Cache.disabled) ?(jobs = 1) ~(target : Descriptor.t) ~source () : compiled =
  let m = Frontend.compile_string source in
  let opts =
    {
      (Pipeline.default_options target) with
      Pipeline.optimize;
      coarsen_specs = specs;
      tracer;
      cache;
      jobs;
    }
  in
  let modul, report = Pipeline.compile opts m in
  { target; modul; report }

type run_result = {
  outputs : float list list;  (** contents of each returned buffer *)
  composite_seconds : float;  (** the paper's composite measurement *)
  records : Runtime.launch_record list;  (** per-launch kernel measurements *)
}

(** Run the compiled program's [main] on the simulator.
    @param tune enable timing-driven selection of alternatives
    @param fixed_choice pin the alternatives region when not tuning
    @param functional execute every block (exact outputs); disable for
    timing-only sweeps on large grids
    @param jobs host domains for the CPU backend's block execution *)
let run ?(tune = false) ?(fixed_choice = 0) ?(functional = true) ?(sample_blocks = 24)
    ?(jobs = 1) ?(tracer = Tracer.disabled) ?(cache = Cache.disabled) ?racecheck
    (c : compiled) ~(args : int list) : run_result =
  let config =
    {
      (Runtime.default_config c.target) with
      Runtime.tune;
      fixed_choice;
      functional;
      sample_blocks;
      jobs;
      tracer;
      cache;
      racecheck;
    }
  in
  let results, st = Runtime.run config c.modul (List.map (fun n -> Exec.UI n) args) in
  {
    outputs = List.map Runtime.buffer_contents results;
    composite_seconds = Runtime.composite_seconds st;
    records = Runtime.records st;
  }

(** Total simulated seconds spent in launches of kernel [name]. *)
let kernel_seconds (r : run_result) name =
  let seconds acc (k : Profile.kernel_profile) =
    if String.equal k.Profile.kernel name then k.Profile.seconds else acc
  in
  List.fold_left seconds 0. (Profile.of_records r.records)

(** Names of the kernels launched during a run, in first-launch order. *)
let kernel_names (r : run_result) =
  List.map (fun (k : Profile.kernel_profile) -> k.Profile.kernel) (Profile.of_records r.records)

(** How a bundled benchmark runs: its arguments, whether every block
    executes, and the blocks sampled per launch when not. At the
    default size every block executes. With [perf], the
    evaluation-scale problem size is used and grids are sampled
    (timing-only) unless the benchmark's host control flow depends on
    computed data, on 12 blocks per launch: the grids are uniform
    enough that 12 representative blocks extrapolate. *)
let bench_exec ~perf (b : Bench_def.t) =
  ( (if perf then b.Bench_def.perf_args else b.Bench_def.args),
    (not perf) || b.Bench_def.data_dependent_host,
    if perf then 12 else 24 )

(** Compile and run a Rodinia benchmark as [bench_exec] says, returning
    the result and checking outputs against the CPU reference when
    [verify]. *)
let run_rodinia ?(verify = false) ?(optimize = true) ?(specs = []) ?(tune = specs <> [])
    ?(perf = false) ?(tracer = Tracer.disabled) ?(cache = Cache.disabled) ?(jobs = 1)
    ~(target : Descriptor.t) ?args (b : Bench_def.t) : run_result =
  let default_args, functional, sample_blocks = bench_exec ~perf b in
  let args = Option.value args ~default:default_args in
  let c = compile ~optimize ~specs ~tracer ~jobs ~target ~source:b.Bench_def.source () in
  let r = run ~tune ~functional ~sample_blocks ~jobs ~tracer ~cache c ~args in
  if verify then begin
    let expected = b.Bench_def.reference args in
    let got = List.hd r.outputs in
    List.iteri
      (fun i a ->
        let e = expected.(i) in
        if Float.abs (e -. a) > b.Bench_def.tolerance *. (1. +. Float.abs e) then
          Pgpu_support.Util.failf "%s: output mismatch at %d: expected %g, got %g"
            b.Bench_def.name i e a)
      got
  end;
  r

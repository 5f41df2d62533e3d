(** pgpu — the Polygeist-GPU reproduction command-line driver.

    Compile mini-CUDA programs, inspect the parallel IR and the
    multi-versioning decisions, run programs on the simulated GPUs
    (with or without timing-driven optimization), translate to AMD,
    and run the bundled Rodinia benchmarks. *)

module P = Pgpu_core.Polygeist_gpu
module Descriptor = Pgpu_target.Descriptor
open Cmdliner

let is_pgpu_src src =
  let name = Logs.Src.name src in
  String.length name >= 5 && String.sub name 0 5 = "pgpu."

(** [-v] raises the pgpu.* sources (pipeline, runtime, simulator) to
    Debug; [-vv] raises everything; [--debug SRC] raises one source. *)
let setup_logs verbosity debug_srcs =
  Logs.set_reporter (Logs_fmt.reporter ());
  (match verbosity with
  | 0 -> Logs.set_level (Some Logs.Info)
  | 1 ->
      Logs.set_level (Some Logs.Info);
      List.iter
        (fun src -> if is_pgpu_src src then Logs.Src.set_level src (Some Logs.Debug))
        (Logs.Src.list ())
  | _ -> Logs.set_level (Some Logs.Debug));
  List.iter
    (fun name ->
      match List.find_opt (fun s -> Logs.Src.name s = name) (Logs.Src.list ()) with
      | Some src -> Logs.Src.set_level src (Some Logs.Debug)
      | None -> Logs.warn (fun m -> m "unknown log source %S (see pgpu list)" name))
    debug_srcs

let setup_logs_t =
  Term.(
    const setup_logs
    $ (const List.length
      $ Arg.(
          value & flag_all
          & info [ "v"; "verbose" ]
              ~doc:
                "Verbose logging. Once: debug output from the pgpu.* subsystems (pipeline, \
                 runtime, simulator). Twice: debug output from everything."))
    $ Arg.(
        value
        & opt_all string []
        & info [ "debug" ] ~docv:"SRC"
            ~doc:"Enable debug logging for one log source (e.g. pgpu.runtime); repeatable."))

(* --- common arguments --- *)

let target_arg =
  let choices =
    List.concat_map
      (fun (t : Descriptor.t) -> [ (t.Descriptor.arch, t); (t.Descriptor.name, t) ])
      Descriptor.all
  in
  Arg.(
    value
    & opt (enum choices) Descriptor.a100
    & info [ "t"; "target" ] ~docv:"TARGET"
        ~doc:
          "Target: sm_80 (A100), sm_86 (A4000), gfx1030 (RX6800), gfx90a (MI210), or a CPU \
           (cpu, epyc7763). CPU targets run kernels through barrier fission and \
           domain-parallel loop-nest execution (see $(b,pgpu targets)).")

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"mini-CUDA source file.")

(* a bundled benchmark by name; an unknown name is a usage error *)
let bench_conv =
  Arg.enum
    (List.map (fun (b : P.Bench_def.t) -> (b.P.Bench_def.name, b)) (P.Rodinia.all @ P.Hecbench.all))

let no_opt_arg =
  Arg.(value & flag & info [ "no-opt" ] ~doc:"Disable scalar optimizations (CSE, LICM, ...).")

(* coarsening totals of at least 1 each *)
let factor_pair =
  let pair = Arg.(pair ~sep:',' int int) in
  let parse s =
    match Arg.conv_parser pair s with
    | Ok (b, t) when b < 1 || t < 1 -> Error (`Msg (Fmt.str "%S: factors must be at least 1" s))
    | r -> r
  in
  Arg.conv ~docv:"B,T" (parse, Arg.conv_printer pair)

let coarsen_arg =
  Arg.(
    value
    & opt_all factor_pair []
    & info [ "c"; "coarsen" ] ~docv:"B,T"
        ~doc:
          "Coarsening configuration (block_total,thread_total); repeatable. Multiple \
           configurations become alternatives resolved by --tune or --choice.")

let tune_arg =
  Arg.(value & flag & info [ "tune" ] ~doc:"Timing-driven selection of alternatives (TDO).")

let choice_arg =
  Arg.(
    value & opt int 0
    & info [ "choice" ] ~docv:"N" ~doc:"Fixed alternatives region when not tuning.")

let args_arg =
  Arg.(
    value & opt (list int) []
    & info [ "a"; "args" ] ~docv:"INTS" ~doc:"Integer arguments passed to main.")

let specs_of coarsen = if coarsen = [] then [] else P.specs_of_totals coarsen

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event JSON file (loadable in Perfetto / chrome://tracing) \
           with compiler pass spans, alternatives pruning events, kernel launches and TDO \
           trials.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:"Write a flat JSON file of trace-derived metrics (span totals, counters).")

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Persist the TDO autotuning choices in $(docv). Entries are keyed by structural \
           kernel hash, target and launch, so the directory can be shared across programs \
           and invocations; warm runs skip TDO trial execution.")

let cache_stats_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-stats" ] ~docv:"FILE"
        ~doc:"Write cache hit/miss/store statistics as JSON to $(docv).")

(* a worker count of at least 1 *)
let jobs_conv =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n < 1 -> Error (`Msg (Fmt.str "%S: the worker count must be at least 1" s))
    | r -> r
  in
  Arg.conv ~docv:"N" (parse, Arg.conv_printer Arg.int)

let jobs_arg =
  Arg.(
    value & opt jobs_conv 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains from the persistent pool, at least 1 (default 1: sequential). \
           Parallelises candidate expansion at compile time and, at run time, the TDO \
           trial batch (one search, inline at 1) and sharded grid simulation on every \
           target. Outputs, counters, traces and TDO choices are bit-identical at any \
           value. Trials never race-check.")

(** Run [f], reporting a failure of the simulated program — a host
    error such as a negative allocation or a host copy out of range,
    or a device error such as a kernel's out-of-bounds access — as
    such with exit 123, not as an internal error. *)
let runtime_errors f =
  try f () with
  | P.Runtime.Host_error m ->
      Fmt.epr "pgpu: host error: %s@." m;
      Cmd.Exit.some_error
  | P.Exec.Device_error m ->
      Fmt.epr "pgpu: device error: %s@." m;
      Cmd.Exit.some_error

(** A command's exit codes, [doc] saying when it exits 123. *)
let exits doc =
  Cmd.Exit.info Cmd.Exit.some_error ~doc
  :: List.filter (fun i -> Cmd.Exit.info_code i <> Cmd.Exit.some_error) Cmd.Exit.defaults

let source_exits = exits "on a source the frontend rejects."

let run_exits =
  exits "on a source the frontend rejects, or a host or device error while the program runs."

(** Malformed input, reported as such with exit 123, not as an
    internal error. For a [Term.ret] term. *)
let source_error file msg =
  Fmt.epr "pgpu: %s: source error: %s@." file msg;
  `Ok Cmd.Exit.some_error

(** [k] of the program [compile] makes of [file]'s source, or a
    [source_error] when the frontend rejects it. *)
let with_source file compile k =
  match compile () with c -> k c | exception P.Frontend.Error m -> source_error file m

(** Run [k] when [args] match the parameters of [m]'s [main]; a
    mismatch is a usage error (exit 124), and a [file] without [main]
    a [source_error], both reported before anything runs. For a
    [Term.ret] term. *)
let with_main_args ~file (m : Pgpu_ir.Instr.modul) args k =
  match
    List.find_opt
      (fun (f : Pgpu_ir.Instr.func) -> String.equal f.Pgpu_ir.Instr.fname "main")
      m.Pgpu_ir.Instr.funcs
  with
  | None -> source_error file "no function main"
  | Some main ->
      let n = List.length main.Pgpu_ir.Instr.params in
      if List.length args = n then `Ok (k ())
      else
        `Error
          (true, Fmt.str "main expects %d argument(s), got %d (see --args)" n (List.length args))

let write_cache_stats cache path =
  Option.iter
    (fun path ->
      P.Trace.Json.to_file path (P.Cache.stats_json cache);
      Logs.info (fun m -> m "cache stats written to %s" path))
    path

(** Run [f] with a tracer (live only when some output was requested),
    then write the requested trace/metrics files. *)
let with_tracer trace metrics f =
  let tracer =
    if trace = None && metrics = None then P.Tracer.disabled else P.Tracer.create ()
  in
  let code = f tracer in
  Option.iter
    (fun path ->
      P.Trace.Chrome.write_file path tracer;
      Logs.info (fun m -> m "trace written to %s" path))
    trace;
  Option.iter
    (fun path ->
      P.Trace.Metrics.write_file path tracer;
      Logs.info (fun m -> m "metrics written to %s" path))
    metrics;
  code

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* --- compile --- *)

let compile_cmd =
  let dump_ir = Arg.(value & flag & info [ "dump-ir" ] ~doc:"Print the final IR module.") in
  let run () file target no_opt coarsen dump trace metrics jobs =
    with_tracer trace metrics @@ fun tracer ->
    with_source file (fun () ->
        P.compile ~optimize:(not no_opt) ~specs:(specs_of coarsen) ~tracer ~jobs ~target
          ~source:(read_file file) ())
    @@ fun c ->
    List.iter
      (fun (k : P.Pipeline.kernel_report) ->
        Fmt.pr "kernel %s:@." k.P.Pipeline.kernel;
        List.iter
          (fun (cand : P.Alternatives.candidate) ->
            Fmt.pr "  %-28s %a" cand.P.Alternatives.desc P.Alternatives.pp_decision
              cand.P.Alternatives.decision;
            (match cand.P.Alternatives.stats with
            | Some s -> Fmt.pr "  [%a]" P.Backend.pp_stats s
            | None -> ());
            Fmt.pr "@.")
          k.P.Pipeline.candidates)
      c.P.report.P.Pipeline.kernels;
    if dump then Fmt.pr "%a@." Pgpu_ir.Instr.pp_modul c.P.modul;
    `Ok 0
  in
  Cmd.v
    (Cmd.info "compile" ~exits:source_exits
       ~doc:"Compile a mini-CUDA file and report multi-versioning decisions.")
    Term.(
      ret
        (const run $ setup_logs_t $ file_arg $ target_arg $ no_opt_arg $ coarsen_arg $ dump_ir
       $ trace_arg $ metrics_arg $ jobs_arg))

(* --- run --- *)

let print_run_summary (r : P.run_result) =
  List.iteri
    (fun i out ->
      let n = List.length out in
      let show = List.filteri (fun k _ -> k < 8) out in
      Fmt.pr "output %d: %d elements [@[%a%s@]]@." i n
        Fmt.(list ~sep:(any "; ") (fmt "%g"))
        show
        (if n > 8 then "; ..." else ""))
    r.P.outputs;
  Fmt.pr "composite time: %.6f s over %d kernel launches@." r.P.composite_seconds
    (List.length r.P.records);
  List.iter
    (fun k -> Fmt.pr "  kernel %-20s %.6f s@." k (P.kernel_seconds r k))
    (P.kernel_names r)

let run_cmd =
  let run () file target no_opt coarsen tune choice args trace metrics cache_dir cache_stats
      jobs =
    with_tracer trace metrics @@ fun tracer ->
    let cache = P.Cache.create ?dir:cache_dir () in
    with_source file (fun () ->
        P.compile ~optimize:(not no_opt) ~specs:(specs_of coarsen) ~tracer ~jobs ~target
          ~source:(read_file file) ())
    @@ fun c ->
    with_main_args ~file c.P.modul args @@ fun () ->
    runtime_errors @@ fun () ->
    let r = P.run ~tune ~fixed_choice:choice ~jobs ~tracer ~cache c ~args in
    write_cache_stats cache cache_stats;
    print_run_summary r;
    0
  in
  Cmd.v
    (Cmd.info "run" ~exits:run_exits
       ~doc:"Compile and execute a mini-CUDA file on a simulated GPU or CPU.")
    Term.(
      ret
        (const run $ setup_logs_t $ file_arg $ target_arg $ no_opt_arg $ coarsen_arg $ tune_arg
       $ choice_arg $ args_arg $ trace_arg $ metrics_arg $ cache_dir_arg $ cache_stats_arg
       $ jobs_arg))

(* --- bench --- *)

let bench_cmd =
  let name_arg =
    Arg.(
      required
      & pos 0 (some bench_conv) None
      & info [] ~docv:"BENCH" ~doc:"Bundled benchmark name (see $(b,pgpu list)).")
  in
  let verify_arg =
    Arg.(value & flag & info [ "verify" ] ~doc:"Check outputs against the CPU reference.")
  in
  let perf_arg =
    Arg.(value & flag & info [ "perf" ] ~doc:"Evaluation-scale problem size, sampled grids.")
  in
  let run () (b : P.Bench_def.t) target no_opt coarsen tune verify perf args trace metrics
      cache_dir cache_stats jobs =
    with_tracer trace metrics @@ fun tracer ->
    let name = b.P.Bench_def.name in
    let cache = P.Cache.create ?dir:cache_dir () in
    (* the default arguments fit main; a given --args list must too *)
    let fits =
      if args = [] then fun k -> `Ok (k ())
      else with_main_args ~file:name (P.Frontend.compile_string b.P.Bench_def.source) args
    in
    fits @@ fun () ->
    runtime_errors @@ fun () ->
    let args = if args = [] then None else Some args in
    let r =
      P.run_rodinia ~verify ~optimize:(not no_opt) ~specs:(specs_of coarsen) ~tune ~perf ~tracer
        ~cache ~jobs ~target ?args b
    in
    write_cache_stats cache cache_stats;
    print_run_summary r;
    if verify then Fmt.pr "outputs verified against the CPU reference.@.";
    0
  in
  Cmd.v
    (Cmd.info "bench"
       ~exits:(exits "on a host or device error while the program runs.")
       ~doc:"Run a bundled Rodinia benchmark.")
    Term.(
      ret
        (const run $ setup_logs_t $ name_arg $ target_arg $ no_opt_arg $ coarsen_arg $ tune_arg
       $ verify_arg $ perf_arg $ args_arg $ trace_arg $ metrics_arg $ cache_dir_arg
       $ cache_stats_arg $ jobs_arg))

(* --- profile --- *)

let profile_cmd =
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON instead of text.")
  in
  let run () file target no_opt coarsen tune choice args trace metrics as_json =
    with_tracer trace metrics @@ fun tracer ->
    with_source file (fun () ->
        P.compile ~optimize:(not no_opt) ~specs:(specs_of coarsen) ~tracer ~target
          ~source:(read_file file) ())
    @@ fun c ->
    with_main_args ~file c.P.modul args @@ fun () ->
    runtime_errors @@ fun () ->
    let r = P.run ~tune ~fixed_choice:choice ~tracer c ~args in
    let report = P.Profile.of_run ~composite_seconds:r.P.composite_seconds r.P.records in
    if as_json then
      Fmt.pr "%s@." (P.Trace.Json.to_string_pretty (P.Profile.json_of_report report))
    else Fmt.pr "%a" P.Profile.pp_report report;
    0
  in
  Cmd.v
    (Cmd.info "profile" ~exits:run_exits
       ~doc:
         "Compile, run and print an Nsight-Compute-style per-kernel report (the Table II \
          metric set: duration, occupancy, LSU/FMA utilization, cache and shared-memory \
          traffic).")
    Term.(
      ret
        (const run $ setup_logs_t $ file_arg $ target_arg $ no_opt_arg $ coarsen_arg $ tune_arg
       $ choice_arg $ args_arg $ trace_arg $ metrics_arg $ json_arg))

(* --- check --- *)

let check_cmd =
  let file_arg =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"mini-CUDA source file (or use $(b,--bench)).")
  in
  let bench_arg =
    Arg.(
      value
      & opt (some bench_conv) None
      & info [ "bench" ] ~docv:"NAME"
          ~doc:"Check a bundled benchmark instead of a source file (see $(b,pgpu list)).")
  in
  (* the program's name and source, and its benchmark definition for
     --bench *)
  let source_t =
    let pick file bench =
      match (bench, file) with
      | Some (b : P.Bench_def.t), _ -> `Ok (b.P.Bench_def.name, b.P.Bench_def.source, Some b)
      | None, Some f -> `Ok (f, read_file f, None)
      | None, None -> `Error (true, "need a FILE or --bench NAME")
    in
    Term.(ret (const pick $ file_arg $ bench_arg))
  in
  let dynamic_arg =
    Arg.(
      value & flag
      & info [ "dynamic" ]
          ~doc:
            "Also execute the program on the simulator with the dynamic race detector \
             attached: every shared-memory address touched by a lane is tracked per barrier \
             epoch, and cross-lane conflicts with no intervening barrier are reported with \
             the conflicting ops and addresses.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Also write the report as JSON to $(docv).")
  in
  let run () (name, source, bench_def) target no_opt coarsen dynamic args json =
    with_source name (fun () ->
        P.compile ~optimize:(not no_opt) ~specs:(specs_of coarsen) ~target ~source ())
    @@ fun c ->
    (* static diagnostics over everything the compile shipped (the
       baseline and every kept alternative). CPU targets analyze the
       barrier-fissioned form of each kernel — the code that actually
       executes — so barrier diagnostics eliminated by fission are not
       reported; kernels fission refuses keep their original bodies
       (and diagnostics) and are flagged, since they run unfissioned. *)
    let static_diags =
      if target.Descriptor.kind = Descriptor.Cpu then begin
        let lowered, outcomes = P.cpu_lower_modul c.P.modul in
        let refused =
          List.filter_map
            (fun (name, outcome) ->
              match outcome with
              | Ok (_ : P.Fission.stats) -> None
              | Error msg ->
                  Some
                    {
                      P.Report.severity = P.Report.Warning;
                      kind = "cpu-fission";
                      kernel = name;
                      message =
                        "barrier fission refused (" ^ msg
                        ^ "): the kernel runs unfissioned on the compiled engine, each \
                           block in lockstep on its core";
                    })
            outcomes
        in
        P.Check.check_modul lowered @ refused
      end
      else P.Check.check_modul c.P.modul
    in
    (* candidates the race gate pruned during expansion never reach the
       module; surface them as warnings so the pruning is visible *)
    let pruned =
      List.concat_map
        (fun (kr : P.Pipeline.kernel_report) ->
          List.filter_map
            (fun (cand : P.Alternatives.candidate) ->
              match cand.P.Alternatives.decision with
              | P.Alternatives.Rejected_racy m ->
                  Some
                    {
                      P.Report.severity = P.Report.Warning;
                      kind = "rejected-candidate";
                      kernel = kr.P.Pipeline.kernel ^ ":" ^ cand.P.Alternatives.desc;
                      message = "candidate pruned by the race checker: " ^ m;
                    }
              | _ -> None)
            kr.P.Pipeline.candidates)
        c.P.report.P.Pipeline.kernels
    in
    (* [k] of the dynamic run's diagnostics; its [main] and [--args]
       are checked as [run] checks them *)
    let with_dynamic_diags k =
      if not dynamic then `Ok (k [])
      else
        let args =
          match (args, bench_def) with
          | [], Some b -> b.P.Bench_def.args
          | args, _ -> args
        in
        with_main_args ~file:name c.P.modul args @@ fun () ->
        let rc = P.Racecheck.create () in
        let failed kind m =
          [
            {
              P.Report.severity = P.Report.Error;
              kind;
              kernel = "main";
              message = "execution failed: " ^ m;
            };
          ]
        in
        let failure =
          match P.run ~racecheck:rc c ~args with
          | (_ : P.run_result) -> []
          | exception P.Exec.Device_error m -> failed "device-error" m
          | exception P.Runtime.Host_error m -> failed "host-error" m
        in
        k (P.Check.diagnostics_of_racecheck rc @ failure)
    in
    with_dynamic_diags @@ fun dynamic_diags ->
    let diags = P.Report.sort (static_diags @ pruned @ dynamic_diags) in
    Fmt.pr "%s@." (P.Report.to_string diags);
    Option.iter
      (fun path ->
        P.Trace.Json.to_file path (P.Report.to_json diags);
        Logs.info (fun m -> m "report written to %s" path))
      json;
    if P.Report.has_errors diags then 1 else 0
  in
  Cmd.v
    (Cmd.info "check"
       ~exits:(exits "on a source the frontend rejects, or, with $(b,--dynamic), one without main.")
       ~doc:
         "Static shared-memory race and barrier-safety analysis of every kernel (and every \
          coarsened alternative), with an optional simulator-backed dynamic race detector.")
    Term.(
      ret
        (const run $ setup_logs_t $ source_t $ target_arg $ no_opt_arg $ coarsen_arg
       $ dynamic_arg $ args_arg $ json_arg))

(* --- hipify --- *)

let hipify_cmd =
  let run () file =
    let src = read_file file in
    let out, issues = P.Hipify.hipify src in
    List.iter (fun i -> Fmt.epr "note: %a@." P.Hipify.pp_issue i) issues;
    Fmt.pr "%s@." out;
    0
  in
  Cmd.v
    (Cmd.info "hipify"
       ~doc:"Source-to-source CUDA-to-HIP translation (the baseline of Section VII-D).")
    Term.(const run $ setup_logs_t $ file_arg)

(* --- targets --- *)

let targets_cmd =
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the target table as JSON.")
  in
  let json_of_target (t : Descriptor.t) =
    let module Json = Pgpu_trace.Json in
    Json.Obj
      [
        ("name", Json.Str t.Descriptor.name);
        ("arch", Json.Str t.Descriptor.arch);
        ("vendor", Json.Str (Fmt.str "%a" Descriptor.pp_vendor t.Descriptor.vendor));
        ("kind", Json.Str (match t.Descriptor.kind with Descriptor.Gpu -> "gpu" | Descriptor.Cpu -> "cpu"));
        ("sm_count", Json.Int t.Descriptor.sm_count);
        ("warp_size", Json.Int t.Descriptor.warp_size);
        ("simd_width", Json.Int t.Descriptor.simd_width);
        ("clock_ghz", Json.Float t.Descriptor.clock_ghz);
        ("issue_per_cycle", Json.Int t.Descriptor.issue_per_cycle);
        ("fp32_lanes_per_sm", Json.Int t.Descriptor.fp32_lanes_per_sm);
        ("fp64_lanes_per_sm", Json.Int t.Descriptor.fp64_lanes_per_sm);
        ("fp32_tflops", Json.Float (Descriptor.fp32_tflops t));
        ("fp64_tflops", Json.Float (Descriptor.fp64_tflops t));
        ("max_threads_per_block", Json.Int t.Descriptor.max_threads_per_block);
        ("max_threads_per_sm", Json.Int t.Descriptor.max_threads_per_sm);
        ("regs_per_sm", Json.Int t.Descriptor.regs_per_sm);
        ("shmem_per_sm", Json.Int t.Descriptor.shmem_per_sm);
        ("l1_bytes_per_sm", Json.Int t.Descriptor.l1_bytes_per_sm);
        ("l2_bytes", Json.Int t.Descriptor.l2_bytes);
        ("l3_bytes", Json.Int t.Descriptor.l3_bytes);
        ("l3_bandwidth_gbs", Json.Float t.Descriptor.l3_bandwidth_gbs);
        ("l2_bandwidth_gbs", Json.Float t.Descriptor.l2_bandwidth_gbs);
        ("mem_bandwidth_gbs", Json.Float t.Descriptor.mem_bandwidth_gbs);
      ]
  in
  let run () as_json =
    if as_json then
      Fmt.pr "%s@."
        (P.Trace.Json.to_string_pretty
           (P.Trace.Json.Obj
              [ ("targets", P.Trace.Json.List (List.map json_of_target Descriptor.all)) ]))
    else begin
      List.iter (fun t -> Fmt.pr "%a@." Descriptor.pp t) Descriptor.all;
      Fmt.pr "@.Table I (GPU targets):@.";
      let header, rows = Descriptor.table1_rows () in
      let pp_row r = Fmt.pr "  %a@." Fmt.(list ~sep:(any " | ") (fmt "%-10s")) r in
      pp_row header;
      List.iter pp_row rows
    end;
    0
  in
  Cmd.v
    (Cmd.info "targets"
       ~doc:
         "List the simulated execution targets — GPUs and CPUs — with their \
          Table-I-style machine parameters.")
    Term.(const run $ setup_logs_t $ json_arg)

(* --- report --- *)

let report_cmd =
  let runs_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:
            "A list of runs with their profiles, as $(b,bench/main.exe gate --metrics-dir DIR) \
             writes DIR/gate.json and bench/baselines/quick.json pins it.")
  in
  let summary_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "summary" ] ~docv:"FILE"
          ~doc:"Embed a bench harness summary.json (from $(b,bench --metrics-dir)).")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON instead of text.")
  in
  let html_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "html" ] ~docv:"FILE"
          ~doc:"Also write a self-contained HTML dashboard (per-target speedup tables, \
                bottleneck badges) to $(docv).")
  in
  let run () file summary as_json html =
    let ( let* ) = Result.bind in
    (* an input error names its file *)
    let json path =
      match P.Trace.Json.of_string (read_file path) with
      | Ok j -> Ok j
      | Error m | (exception Sys_error m) -> Error (path, m)
    in
    let report =
      let* summary =
        match summary with None -> Ok None | Some path -> Result.map Option.some (json path)
      in
      let* runs = json file in
      Result.map_error (fun m -> (file, m)) (P.Obs_report.build ?summary runs)
    in
    match report with
    | Error (path, m) ->
        Fmt.epr "pgpu: %s: %s@." path m;
        Cmd.Exit.some_error
    | Ok report ->
        if as_json then Fmt.pr "%s@." (P.Trace.Json.to_string_pretty (P.Obs_report.to_json report))
        else Fmt.pr "%a" P.Obs_report.pp report;
        Option.iter
          (fun path ->
            Pgpu_support.Util.write_file path (P.Obs_report.to_html report);
            Fmt.epr "HTML report written to %s@." path)
          html;
        0
  in
  Cmd.v
    (Cmd.info "report"
       ~exits:
         (exits "on a FILE that is not a list of runs, or a $(b,--summary) file that is not JSON.")
       ~doc:
         "Render the quick suite's profiles: per-target speedup tables and per-kernel \
          bottleneck attribution — as text, JSON or a self-contained HTML dashboard.")
    Term.(const run $ setup_logs_t $ runs_arg $ summary_arg $ json_arg $ html_arg)

(* --- list --- *)

let list_cmd =
  let run () =
    Fmt.pr "targets:@.";
    List.iter (fun t -> Fmt.pr "  %a@." Descriptor.pp t) Descriptor.all;
    Fmt.pr "benchmarks (Rodinia):@.";
    List.iter
      (fun (b : P.Bench_def.t) ->
        Fmt.pr "  %-16s %s@." b.P.Bench_def.name b.P.Bench_def.description)
      P.Rodinia.all;
    Fmt.pr "benchmarks (HeCBench subset):@.";
    List.iter
      (fun (b : P.Bench_def.t) ->
        Fmt.pr "  %-16s %s@." b.P.Bench_def.name b.P.Bench_def.description)
      P.Hecbench.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List available targets and benchmarks.") Term.(const run $ setup_logs_t)

let main =
  Cmd.group
    (Cmd.info "pgpu" ~version:"1.0.0"
       ~doc:
         "Retargeting and respecializing GPU workloads for performance portability \
          (CGO 2024 reproduction on simulated GPUs).")
    [
      compile_cmd;
      run_cmd;
      bench_cmd;
      check_cmd;
      profile_cmd;
      report_cmd;
      hipify_cmd;
      targets_cmd;
      list_cmd;
    ]

let () = exit (Cmd.eval' main)

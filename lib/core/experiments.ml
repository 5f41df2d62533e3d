(** Reproduction of every table and figure of the paper's evaluation
    (Section VII). Each experiment is a declared list of runs and a
    renderer over their profiles. A run splits what is compiled from
    how it runs, as CUDAnative's [split_kwargs] splits the keywords of
    a launch; one table per process compiles and runs each distinct
    run once, so figures that share runs share their results, and one
    encoder writes every experiment's runs in the schema that
    [bench/baselines/quick.json] pins. The bench harness
    ([bench/main.exe]) drives them. *)

open Polygeist_gpu
module Stats = Pgpu_support.Stats
module Json = Pgpu_trace.Json

let fpr = Fmt.pr

(* ------------------------------------------------------------------ *)
(* Shared configuration                                                *)
(* ------------------------------------------------------------------ *)

(** Total coarsening factors swept by the paper's main experiment. *)
let totals = [ 1; 2; 4; 8; 16; 32 ]

let thread_only_specs = specs_of_totals (List.map (fun t -> (1, t)) totals)
let block_only_specs = specs_of_totals (List.map (fun b -> (b, 1)) totals)

let combined_specs =
  specs_of_totals (List.concat_map (fun b -> List.map (fun t -> (b, t)) totals) totals)

(** The configuration set used for the composite-timing experiments
    (the paper's [--pgo-configs 11]-style moderate sweep). *)
let composite_specs =
  specs_of_totals
    [ (1, 1); (2, 1); (4, 1); (8, 1); (16, 1); (3, 1); (1, 2); (1, 4); (2, 2); (4, 2); (8, 2) ]

(** Targets the observatory measures: one NVIDIA GPU, one AMD GPU and
    the barrier-fission CPU backend. *)
let obs_targets = [ Descriptor.a100; Descriptor.rx6800; Descriptor.cpu ]

(** A small TDO sweep: enough alternatives to exercise tuning without
    dominating gate wall-clock. *)
let obs_specs = specs_of_totals [ (1, 1); (2, 1); (1, 2) ]

(** The quick-mode benchmark subset shared by the bench harness
    ([--quick]) and the pinned quick suite
    ([bench/baselines/quick.json]). *)
let quick_benches () =
  let quick = [ "lud"; "gaussian"; "nw"; "hotspot"; "nn" ] in
  List.filter (fun (b : Bench_def.t) -> List.mem b.Bench_def.name quick) Rodinia.all

(* ------------------------------------------------------------------ *)
(* Runs and the table that computes each once                          *)
(* ------------------------------------------------------------------ *)

(** What is compiled. *)
type compile_key = {
  source : string;  (** hipified for the AMD baseline route *)
  target : Descriptor.t;
  optimize : bool;
  specs : Coarsen.spec list;
}

(** How the compiled program runs. The worker count is not part of
    it: results are bit-identical at every [--jobs]. *)
type run_key = { args : int list; tune : bool; functional : bool; sample_blocks : int }

type run = {
  bench : string;
  config : string;  (** the experiment's label for the run; not part of its key *)
  compile : compile_key;
  exec : run_key;
}

(** [b] on [target] as [Polygeist_gpu.run_rodinia] runs it
    ([bench_exec]): at its default size, or with [perf] at evaluation
    scale. *)
let bench_run ?(optimize = true) ?source ?(specs = []) ?(tune = specs <> []) ?(perf = false)
    ~config target (b : Bench_def.t) =
  let args, functional, sample_blocks = bench_exec ~perf b in
  {
    bench = b.Bench_def.name;
    config;
    compile = { source = Option.value source ~default:b.Bench_def.source; target; optimize; specs };
    exec = { args; tune; functional; sample_blocks };
  }

(** What the table keeps of a run: its profile, with a digest of its
    output bits when every block ran; or, for a fixed configuration
    the compiler rejected, each kernel it was rejected on. Never the
    outputs or the launch records. *)
type outcome =
  | Profiled of Profile.report * Digest.t option
  | Pruned of (string * Alternatives.decision) list

(* the kernels on which the compiler rejected [r]'s configuration,
   when [r] fixes one (a single spec, untuned): for shared memory,
   spills, occupancy or a race. A coarsening that does not apply to a
   kernel leaves that kernel as it is, and the run goes ahead. *)
let rejections (r : run) (c : compiled) =
  if r.exec.tune || List.length r.compile.specs <> 1 then []
  else
    List.sort_uniq compare
      (List.concat_map
         (fun (k : Pipeline.kernel_report) ->
           List.filter_map
             (fun (cand : Alternatives.candidate) ->
               match cand.Alternatives.decision with
               | Alternatives.Kept | Alternatives.Rejected_illegal _ -> None
               | d -> Some (k.Pipeline.kernel, d))
             k.Pipeline.candidates)
         c.report.Pipeline.kernels)

let perform ~jobs (r : run) =
  let k = r.compile and x = r.exec in
  let c = compile ~optimize:k.optimize ~specs:k.specs ~jobs ~target:k.target ~source:k.source () in
  match rejections r c with
  | _ :: _ as rejected -> Pruned rejected
  | [] ->
      let { outputs; composite_seconds; records } =
        run ~tune:x.tune ~functional:x.functional ~sample_blocks:x.sample_blocks ~jobs c
          ~args:x.args
      in
      let bits = List.map (List.map Int64.bits_of_float) outputs in
      Profiled
        ( Profile.of_run ~composite_seconds records,
          if x.functional then Some (Digest.string (Marshal.to_string bits [ Marshal.No_sharing ]))
          else None )

(** The runs of one process by key, each computed on [jobs] worker
    domains when an experiment first needs it. *)
type table = { jobs : int; entries : (compile_key * run_key, outcome Lazy.t) Hashtbl.t }

let table ~jobs () = { jobs; entries = Hashtbl.create 64 }

(** [r]'s entry, added unevaluated when its key is new: runs with
    equal keys share one entry, whatever their labels. *)
let entry t (r : run) =
  let key = (r.compile, r.exec) in
  match Hashtbl.find_opt t.entries key with
  | Some e -> e
  | None ->
      let e = lazy (perform ~jobs:t.jobs r) in
      Hashtbl.add t.entries key e;
      e

(** An experiment: its runs, and the tables it prints from their
    outcomes, given in declared order. *)
type experiment = {
  name : string;  (** the harness sub-command; [--metrics-dir DIR] writes DIR/<name>.json *)
  runs : run list;
  render : (run * outcome) list -> unit;
}

(** [e]'s runs with their outcomes, each computed unless [t] holds it. *)
let measure t e = List.map (fun r -> (r, Lazy.force (entry t r))) e.runs

(** Every experiment's file: each run as [{bench, target, config,
    profile}], the profile being the report [pgpu profile --json]
    prints, so [pgpu report] renders any of them. A run whose
    configuration the compiler rejected holds its rejections as
    [pruned] in place of a profile. Host wall-clock is left out, so a
    file is the same bytes on every machine and at every [--jobs]. *)
let json_of_runs ms : Json.t =
  Json.List
    (List.map
       (fun ((r : run), o) ->
         Json.Obj
           [
             ("bench", Json.Str r.bench);
             ("target", Json.Str r.compile.target.Descriptor.name);
             ("config", Json.Str r.config);
             (match o with
             | Profiled (p, _) -> ("profile", Profile.json_of_report p)
             | Pruned ds ->
                 let rejected (k, d) = Json.Str (Fmt.str "%s: %a" k Alternatives.pp_decision d) in
                 ("pruned", Json.List (List.map rejected ds)));
           ])
       ms)

(* the outcome of the run of [bench] on [target] labelled [config] *)
let find ms ~bench (target : Descriptor.t) config =
  let key (r : run) = (r.bench, r.compile.target.Descriptor.name, r.config) in
  snd (List.find (fun (r, _) -> key r = (bench, target.Descriptor.name, config)) ms)

let profile = function
  | Profiled (p, _) -> p
  | Pruned _ -> invalid_arg "Experiments.profile: the compiler rejected the run's configuration"

let kernel o name =
  let is (k : Profile.kernel_profile) = String.equal k.Profile.kernel name in
  List.find_opt is (profile o).Profile.kernels

(* simulated seconds spent in launches of kernel [name]; 0 when it
   was not launched *)
let kernel_seconds o name =
  match kernel o name with Some k -> k.Profile.seconds | None -> 0.

(* the composite seconds of [b]'s run labelled [config] on [target] *)
let composite_of ms (b : Bench_def.t) target config =
  (profile (find ms ~bench:b.Bench_def.name target config)).Profile.composite_seconds

(* the geomean of [f] over [data] as a gain in percent *)
let gain f data = (Stats.geomean (List.map f data) -. 1.) *. 100.

(* ------------------------------------------------------------------ *)
(* Table I                                                             *)
(* ------------------------------------------------------------------ *)

let print_table header rows =
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left (fun acc row -> max acc (String.length (List.nth row i)))
          (String.length h) rows)
      header
  in
  let print_row cells =
    List.iter2 (fun w c -> fpr "%-*s  " w c) widths cells;
    fpr "@."
  in
  print_row header;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows

let table1 () =
  fpr "== Table I: GPUs used for evaluation and their specifications ==@.";
  let header, rows = Descriptor.table1_rows () in
  print_table header rows;
  fpr "@."

(* ------------------------------------------------------------------ *)
(* Kernel-level strategy comparison (Fig. 13 and Section VII-B)        *)
(* ------------------------------------------------------------------ *)

(** Minimum kernel runtime considered (the paper discards runtimes
    below 0.1 ms). *)
let min_kernel_seconds = 1e-4

(** Experiment 1 runs over Rodinia and the HeCBench subset, as in the
    paper. *)
let fig13_benches () = Rodinia.all @ Hecbench.all

let strategies =
  [
    ("thread-only", thread_only_specs); ("block-only", block_only_specs); ("combined", combined_specs);
  ]

(** Each kernel of [benches] on the A100 at evaluation scale, untuned
    and tuned over each strategy's factors: a kernel's speedup under a
    strategy is its untuned seconds over its seconds under the
    strategy's best configuration. *)
let fig13 benches =
  let target = Descriptor.a100 in
  let runs (b : Bench_def.t) =
    bench_run ~perf:true ~config:"untuned" target b
    :: List.map (fun (config, specs) -> bench_run ~perf:true ~specs ~config target b) strategies
  in
  let render ms =
    let data =
      List.concat_map
        (fun (b : Bench_def.t) ->
          let get = find ms ~bench:b.Bench_def.name target in
          List.filter_map
            (fun (k : Profile.kernel_profile) ->
              let t0 = k.Profile.seconds in
              if t0 < min_kernel_seconds then None
              else
                Some
                  ( b.Bench_def.name,
                    k.Profile.kernel,
                    List.map
                      (fun (config, _) -> t0 /. kernel_seconds (get config) k.Profile.kernel)
                      strategies ))
            (profile (get "untuned")).Profile.kernels)
        benches
    in
    fpr "== Fig. 13 / Section VII-B: thread vs block vs combined coarsening (kernel level) ==@.";
    print_table
      [ "benchmark"; "kernel"; "thread-only"; "block-only"; "combined" ]
      (List.map (fun (b, k, s) -> b :: k :: List.map (Fmt.str "%.3f") s) data);
    let gm i = gain (fun (_, _, s) -> List.nth s i) data in
    fpr "@.geomean speedups: thread-only %.1f%%  block-only %.1f%%  combined %.1f%%@." (gm 0) (gm 1)
      (gm 2);
    let improved = List.filter (fun (_, _, s) -> List.exists (fun x -> x > 1.01) s) data in
    fpr "kernels with >1%% speedup in some strategy: %d of %d@." (List.length improved)
      (List.length data);
    let wins = List.filter (fun (_, _, s) -> List.nth s 2 >= List.nth s 0 -. 1e-9) improved in
    fpr "combined >= thread-only on %d of %d improved kernels@.@." (List.length wins)
      (List.length improved)
  in
  { name = "fig13"; runs = List.concat_map runs benches; render }

(* ------------------------------------------------------------------ *)
(* The lud analyses: Fig. 14, Table II and Fig. 15                     *)
(* ------------------------------------------------------------------ *)

(** Problem size for the lud kernel analyses: a 2048x2048 matrix, as
    in the paper, so the grids are large enough for coarsening to
    matter. Runs are sampled (timing-only); lud's host control flow
    does not depend on device data, so this is safe. *)
let lud_analysis_args = [ 128 ]

(* lud on the A100 under one configuration at [lud_analysis_args],
   timing-only on 8 sampled blocks per launch *)
let lud_run ~config spec =
  {
    (bench_run ~specs:[ spec ] ~tune:false ~config Descriptor.a100 (Rodinia.find "lud")) with
    exec = { args = lud_analysis_args; tune = false; functional = false; sample_blocks = 8 };
  }

let pair (x, y) = Fmt.str "(%d, %d)" x y
let totals_spec b t = Coarsen.spec ~block:(Coarsen.Total b) ~thread:(Coarsen.Total t) ()

(* lud_internal under [spec r c] for each factor pair of [rows] x
   [cols], as speedups over lud's uncoarsened configuration ("base");
   [row] names the row factor *)
let sweep ~name ~title ~row ~rows ~cols spec =
  let cells = List.concat_map (fun r -> List.map (fun c -> (r, c)) cols) rows in
  let render ms =
    let get = find ms ~bench:"lud" Descriptor.a100 in
    let base = kernel_seconds (get "base") "lud_internal" in
    let speedup p =
      match get (pair p) with
      | Profiled _ as o -> Ok (base /. kernel_seconds o "lud_internal")
      | Pruned ds -> Error (List.assoc_opt "lud_internal" ds)
    in
    let text p =
      match speedup p with
      | Ok s -> Fmt.str "%.2f" s
      | Error (Some (Alternatives.Rejected_shmem _)) -> "shmem!"
      | Error (Some (Alternatives.Rejected_spill _)) -> "spill!"
      | Error _ -> "pruned"
    in
    fpr "== %s ==@." title;
    print_table
      ("" :: List.map (Fmt.str "thr %d") cols)
      (List.map (fun r -> Fmt.str "%s %2d" row r :: List.map (fun c -> text (r, c)) cols) rows);
    let best =
      List.fold_left
        (fun acc p ->
          match speedup p with
          | Ok s when s > (match acc with Some (_, b) -> b | None -> 0.) -> Some (p, s)
          | _ -> acc)
        None cells
    in
    Option.iter
      (fun ((r, c), s) -> fpr "@.peak: %.2fx at (%s, thread) = (%d, %d)@.@." s row r c)
      best
  in
  let cell (r, c) = lud_run ~config:(pair (r, c)) (spec r c) in
  { name; runs = lud_run ~config:"base" (Coarsen.spec ()) :: List.map cell cells; render }

(** Fig. 14: lud's main kernel per (block, thread) total factor. *)
let fig14 () =
  sweep ~name:"fig14"
    ~title:"Fig. 14: lud main kernel, relative performance per (block, thread) total factor"
    ~row:"block" ~rows:totals ~cols:totals totals_spec

(** Table II: what a profiler run of lud's main kernel reports at
    (1,1), (4,1) and (1,4): summed seconds and counters, and the
    utilizations of the dominant launch. *)
let table2 () =
  let render ms =
    let ks =
      List.map (fun ((r : run), o) -> (r.config, Option.get (kernel o "lud_internal"))) ms
    in
    fpr "== Table II: profiling data for lud (main kernel) ==@.";
    let row label f = label :: List.map (fun (_, k) -> f k) ks in
    let n (k : Profile.kernel_profile) = k.Profile.counters in
    print_table
      ("(block, thread) factors" :: List.map fst ks)
      [
        row "Runtime" (fun k -> Fmt.str "%.4f s" k.Profile.seconds);
        row "LSU utilization" (fun k -> Fmt.str "%.0f%%" (k.Profile.lsu_utilization *. 100.));
        row "FMA utilization" (fun k -> Fmt.str "%.0f%%" (k.Profile.fma_utilization *. 100.));
        row "L2->L1 Read" (fun k -> Fmt.str "%.1f MB" (Counters.l2_to_l1_read_bytes (n k) /. 1e6));
        row "L1->L2 Write" (fun k ->
            Fmt.str "%.1f MB" (Counters.l1_to_l2_write_bytes (n k) /. 1e6));
        row "L1->SM Read Req." (fun k -> Fmt.str "%.2f M" ((n k).Counters.global_load_req /. 1e6));
        row "SM->L1 Write Req." (fun k ->
            Fmt.str "%.2f M" ((n k).Counters.global_store_req /. 1e6));
        row "ShMem->SM Read Req." (fun k ->
            Fmt.str "%.2f M" ((n k).Counters.shared_load_req /. 1e6));
        row "SM->ShMem Write Req." (fun k ->
            Fmt.str "%.2f M" ((n k).Counters.shared_store_req /. 1e6));
      ];
    fpr "@."
  in
  let run (b, t) = lud_run ~config:(pair (b, t)) (totals_spec b t) in
  { name = "table2"; runs = List.map run [ (1, 1); (4, 1); (1, 4) ]; render }

(** Fig. 15: lud's main kernel with blocks coarsened in x only. *)
let fig15 () =
  sweep ~name:"fig15" ~title:"Fig. 15: lud main kernel, block coarsening in x only vs thread factor"
    ~row:"block.x" ~rows:[ 1; 2; 3; 4; 5; 6; 7; 8; 9 ] ~cols:[ 1; 2; 4; 8 ] (fun bx tf ->
      Coarsen.spec
        ~block:(Coarsen.Explicit { Coarsen.x = bx; y = 1; z = 1 })
        ~thread:(Coarsen.Total tf) ())

(* ------------------------------------------------------------------ *)
(* Fig. 16 and Fig. 17: composite runtimes against the baseline        *)
(* ------------------------------------------------------------------ *)

(** The GPUs of Fig. 16. *)
let fig16_gpus = [ Descriptor.a4000; Descriptor.a100; Descriptor.rx6800; Descriptor.mi210 ]

(* the baseline compiler of [target]'s vendor *)
let baseline (target : Descriptor.t) =
  match target.Descriptor.vendor with
  | Descriptor.Nvidia | Descriptor.Generic -> "clang"
  | Descriptor.Amd -> "hipify+clang"

(* The three runs of [b] on [target] that Fig. 16 compares, all at
   evaluation scale: the baseline compiler, without the scalar passes
   of the parallel representation; Polygeist-GPU (P-G); and P-G opt,
   tuned over [composite_specs]. *)
let baseline_run (target : Descriptor.t) (b : Bench_def.t) =
  let source =
    match target.Descriptor.vendor with
    | Descriptor.Nvidia | Descriptor.Generic -> b.Bench_def.source
    | Descriptor.Amd ->
        (* the baseline route goes through hipify; the IR route
           compiles the CUDA source unchanged. Both parse to the
           same module here, which mirrors the paper's setup where
           the two pipelines share front- and backend. *)
        fst (Hipify.hipify b.Bench_def.source)
  in
  bench_run ~perf:true ~optimize:false ~source ~config:(baseline target) target b

let pg_run target b = bench_run ~perf:true ~config:"P-G" target b
let pg_opt_run target b = bench_run ~perf:true ~specs:composite_specs ~config:"P-G opt" target b

let fig16 benches =
  let render ms =
    fpr "== Fig. 16: composite runtimes, Polygeist-GPU vs the baseline compiler ==@.";
    List.iter
      (fun target ->
        let base = baseline target in
        fpr "-- %a (baseline: %s) --@." Descriptor.pp target base;
        let get b config = composite_of ms b target config in
        let data = List.map (fun b -> (b, get b base, get b "P-G", get b "P-G opt")) benches in
        print_table
          [ "benchmark"; base ^ " (s)"; "P-G (s)"; "P-G opt (s)"; "P-G x"; "P-G opt x" ]
          (List.map
             (fun ((b : Bench_def.t), clang, pg, opt) ->
               (b.Bench_def.name :: List.map (Fmt.str "%.5f") [ clang; pg; opt ])
               @ List.map (Fmt.str "%.2f") [ clang /. pg; clang /. opt ])
             data);
        fpr "geomean speedup: P-G %.1f%%  P-G opt %.1f%%@.@."
          (gain (fun (_, clang, pg, _) -> clang /. pg) data)
          (gain (fun (_, clang, _, opt) -> clang /. opt) data))
      fig16_gpus
  in
  let runs target b = [ baseline_run target b; pg_run target b; pg_opt_run target b ] in
  let runs = List.concat_map (fun t -> List.concat_map (runs t) benches) fig16_gpus in
  { name = "fig16"; runs; render }

(** Fig. 17: NVIDIA vs AMD with comparable specifications, from three
    of Fig. 16's runs per benchmark. *)
let fig17 benches =
  let nv = Descriptor.a4000 and amd = Descriptor.rx6800 in
  let render ms =
    fpr "== Fig. 17: A4000 (clang), A4000 (P-G) and RX6800 (P-G), relative to A4000 clang ==@.";
    let data =
      List.map
        (fun b ->
          let get = composite_of ms b in
          (b, get nv (baseline nv), get nv "P-G opt", get amd "P-G opt"))
        benches
    in
    print_table
      [ "benchmark"; "A4000 clang"; "A4000 P-G"; "RX6800 P-G" ]
      (List.map
         (fun ((b : Bench_def.t), clang, nv_opt, amd_opt) ->
           let ratios = [ clang /. nv_opt; clang /. amd_opt ] in
           b.Bench_def.name :: "1.00" :: List.map (Fmt.str "%.2f") ratios)
         data);
    fpr "geomean: RX6800 (P-G) vs A4000 (clang): %.1f%%; vs A4000 (P-G): %.1f%%@.@."
      (gain (fun (_, clang, _, amd_opt) -> clang /. amd_opt) data)
      (gain (fun (_, _, nv_opt, amd_opt) -> nv_opt /. amd_opt) data)
  in
  let runs b = [ baseline_run nv b; pg_opt_run nv b; pg_opt_run amd b ] in
  { name = "fig17"; runs = List.concat_map runs benches; render }

(* ------------------------------------------------------------------ *)
(* CPU retargeting: barrier-fission backend vs the GPU simulator       *)
(* ------------------------------------------------------------------ *)

(** Modest TDO sweep for the CPU columns: coarsening factors double as
    unroll/interleave factors on the CPU, so thread-total coarsening is
    the interesting axis. *)
let cpu_specs = specs_of_totals [ (1, 1); (1, 2); (1, 4); (2, 1); (2, 2) ]

let cpu_compare benches =
  let a100 = Descriptor.a100 and cpu = Descriptor.cpu and epyc = Descriptor.epyc7763 in
  let runs b =
    [
      bench_run ~perf:true ~config:"untuned" a100 b;
      bench_run ~perf:true ~config:"untuned" cpu b;
      bench_run ~perf:true ~specs:cpu_specs ~config:"tdo" cpu b;
      bench_run ~perf:true ~config:"untuned" epyc b;
      (* exactness: full functional runs at the default (test-scale)
         arguments, compared bitwise against the A100 execution *)
      bench_run ~config:"functional" a100 b;
      bench_run ~config:"functional" cpu b;
    ]
  in
  let render ms =
    fpr "== Retargeting to CPU: barrier-fission backend vs the A100 simulator ==@.";
    let rows =
      List.map
        (fun (b : Bench_def.t) ->
          let get = find ms ~bench:b.Bench_def.name in
          let seconds = composite_of ms b in
          let gpu = seconds a100 "untuned" and cpu_s = seconds cpu "untuned" in
          let tuned = seconds cpu "tdo" and epyc_s = seconds epyc "untuned" in
          let identical =
            match (get a100 "functional", get cpu "functional") with
            | Profiled (_, Some g), Profiled (_, Some c) -> Digest.equal g c
            | _ -> false
          in
          ( (cpu_s /. gpu, cpu_s /. tuned, identical),
            (b.Bench_def.name :: List.map (Fmt.str "%.5f") [ gpu; cpu_s; tuned; epyc_s ])
            @ [ Fmt.str "%.2f" (cpu_s /. tuned); (if identical then "yes" else "NO") ] ))
        benches
    in
    print_table
      [
        "benchmark"; "a100 (s)"; "cpu (s)"; "cpu tuned (s)"; "epyc7763 (s)"; "tune x"; "bit-identical";
      ]
      (List.map snd rows);
    let stats = List.map fst rows in
    fpr "geomean: cpu/a100 slowdown %.1fx, TDO gain on cpu %.1f%%; %d/%d bit-identical@.@."
      (Stats.geomean (List.map (fun (s, _, _) -> s) stats))
      (gain (fun (_, g, _) -> g) stats)
      (List.length (List.filter (fun (_, _, i) -> i) stats))
      (List.length stats)
  in
  { name = "cpu"; runs = List.concat_map runs benches; render }

(* ------------------------------------------------------------------ *)
(* Ablations: design choices called out in DESIGN.md                   *)
(* ------------------------------------------------------------------ *)

let ablation () =
  let lud = Rodinia.find "lud" and a100 = Descriptor.a100 in
  let fixed config spec = bench_run ~specs:[ spec ] ~tune:false ~config a100 lud in
  let thread4 m = Coarsen.spec ~thread:(Coarsen.Total 4) ~thread_mapping:m () in
  let block n = Coarsen.spec ~block:(Coarsen.Total n) () in
  let render ms =
    let t = composite_of ms lud a100 in
    fpr "lud composite baseline: %.5f s@." (t "untuned");
    fpr "thread x4, cyclic mapping (coalescing-friendly): %.5f s@." (t "thread x4 cyclic");
    fpr "thread x4, blocked mapping (naive):              %.5f s@." (t "thread x4 blocked");
    fpr "block x7 (non-divisor; epilogue kernels): %.5f s@." (t "block x7");
    fpr "TDO over %d configs: %.5f s; fixed block x16: %.5f s@.@." (List.length composite_specs)
      (t "tdo") (t "block x16")
  in
  {
    name = "ablation";
    runs =
      [
        bench_run ~config:"untuned" a100 lud;
        (* cyclic vs blocked thread-coarsening index mapping *)
        fixed "thread x4 cyclic" (thread4 Interleave.Cyclic);
        fixed "thread x4 blocked" (thread4 Interleave.Blocked);
        (* epilogue kernels: prime block factors are only possible with them *)
        fixed "block x7" (block 7);
        (* TDO vs a fixed aggressive configuration *)
        bench_run ~specs:composite_specs ~config:"tdo" a100 lud;
        fixed "block x16" (block 16);
      ];
    render;
  }

(* ------------------------------------------------------------------ *)
(* Performance observatory suite (regression gate)                     *)
(* ------------------------------------------------------------------ *)

(** The observatory suite: [benches] x [obs_targets] x {untuned, tdo
    over [obs_specs]}, one functional (test-scale) run each.
    [gate --quick] writes it as [bench/baselines/quick.json] pins it. *)
let gate benches =
  let configs = [ ("untuned", []); ("tdo", obs_specs) ] in
  let render ms =
    fpr "measuring %d bench(es) x %d target(s) x %d config(s)@." (List.length benches)
      (List.length obs_targets) (List.length configs);
    fpr "%d run(s) collected@." (List.length ms)
  in
  let runs b target = List.map (fun (config, specs) -> bench_run ~specs ~config target b) configs in
  let runs = List.concat_map (fun b -> List.concat_map (runs b) obs_targets) benches in
  { name = "gate"; runs; render }

(* ------------------------------------------------------------------ *)
(* Hipify ease-of-use comparison (Section VII-D1)                      *)
(* ------------------------------------------------------------------ *)

let hipify_ease benches =
  fpr "== Section VII-D1: translation effort, hipify+clang vs Polygeist-GPU ==@.";
  let rows =
    List.map
      (fun (b : Bench_def.t) ->
        (* a typical Rodinia-style prologue: the benchmarks in the
           original suite include CUDA headers *)
        let src = "#include <cuda_runtime.h>\n" ^ b.Bench_def.source in
        let _, issues = Hipify.hipify src in
        [
          b.Bench_def.name;
          string_of_int (List.length issues);
          (match issues with [] -> "none" | i :: _ -> Fmt.str "%a" Hipify.pp_issue i);
          "0 (IR-level translation)";
        ])
      benches
  in
  print_table [ "benchmark"; "hipify manual steps"; "first issue"; "Polygeist-GPU steps" ] rows;
  fpr "@."

(* ------------------------------------------------------------------ *)
(* Domain-parallel benchmark: worker-pool harness vs sequential        *)
(* ------------------------------------------------------------------ *)

type par_entry = {
  par_bench : string;
  par_target : string;
  seq_seconds : float;  (** host wall-clock of the [--jobs 1] runs *)
  par_seconds : float;  (** host wall-clock of the [--jobs n] runs *)
  par_speedup : float;  (** seq / par *)
  par_jobs : int;  (** worker domains of the parallel runs *)
  par_identical : bool;
      (** outputs bitwise equal, composite time bitwise equal, and the
          same TDO alternative chosen at every launch site *)
}

(** Wall-clock the harness sequentially vs on [jobs] worker domains:
    [repeats] full tuned runs each over the same compiled module, so
    both parallel TDO trial execution and sharded grid simulation are
    exercised. The simulator's sharding is order-independent by
    construction (per-SM L2 slices, per-block allocators, SM assigned
    by block position), so the two sides must agree bit-for-bit — any
    divergence is a determinism bug, not noise. *)
let par_bench_data ?(benches = quick_benches ()) ?(target = Descriptor.a100) ?(repeats = 3)
    ?(jobs = Pgpu_support.Util.default_jobs ()) () : par_entry list =
  let specs = specs_of_totals [ (1, 1); (2, 1); (1, 2) ] in
  List.map
    (fun (b : Bench_def.t) ->
      let c = compile ~specs ~target ~source:b.Bench_def.source () in
      let args = b.Bench_def.args in
      let time jobs =
        let t0 = Unix.gettimeofday () in
        let r = ref (run ~tune:true ~jobs c ~args) in
        for _ = 2 to max 1 repeats do
          r := run ~tune:true ~jobs c ~args
        done;
        (Unix.gettimeofday () -. t0, !r)
      in
      let ts, rs = time 1 in
      let tp, rp = time jobs in
      let bits (r : run_result) = List.map (List.map Int64.bits_of_float) r.outputs in
      let choices (r : run_result) =
        List.rev_map
          (fun (l : Runtime.launch_record) -> (l.Runtime.kernel, l.Runtime.alternative))
          r.records
      in
      {
        par_bench = b.Bench_def.name;
        par_target = target.Descriptor.name;
        seq_seconds = ts;
        par_seconds = tp;
        par_speedup = ts /. Float.max tp 1e-9;
        par_jobs = jobs;
        par_identical =
          bits rs = bits rp
          && Float.equal rs.composite_seconds rp.composite_seconds
          && choices rs = choices rp;
      })
    benches

(** Print the parallelism comparison and return the per-bench data
    plus the geomean speedup. Raises [Failure] when any bench diverges
    between the sequential and parallel runs — bit-identity is the
    contract, so divergence fails the harness outright. The speedup
    itself is reported, not asserted; CI gates on the JSON. *)
let par_bench ?benches ?target ?repeats ?jobs () : par_entry list * float =
  fpr "== Domain parallelism: sharded grids + parallel TDO vs sequential ==@.";
  let data = par_bench_data ?benches ?target ?repeats ?jobs () in
  let rows =
    List.map
      (fun e ->
        [
          e.par_bench;
          Fmt.str "%.2f" (e.seq_seconds *. 1e3);
          Fmt.str "%.2f" (e.par_seconds *. 1e3);
          Fmt.str "%.2f" e.par_speedup;
          (if e.par_identical then "yes" else "NO");
        ])
      data
  in
  let njobs = match data with e :: _ -> e.par_jobs | [] -> 1 in
  print_table
    [ "benchmark"; "jobs=1 (ms)"; Fmt.str "jobs=%d (ms)" njobs; "speedup"; "bit-identical" ]
    rows;
  let geo = Stats.geomean (List.map (fun e -> e.par_speedup) data) in
  fpr "geomean speedup: %.2fx (%d worker domains)@.@." geo njobs;
  let diverged = List.filter (fun e -> not e.par_identical) data in
  if diverged <> [] then
    Pgpu_support.Util.failf "parallel/sequential divergence on: %s"
      (String.concat ", " (List.map (fun e -> e.par_bench) diverged));
  (data, geo)

let json_of_par_bench ((data : par_entry list), geomean) : Json.t =
  Json.Obj
    [
      ("geomean_speedup", Json.Float geomean);
      ("jobs", Json.Int (match data with e :: _ -> e.par_jobs | [] -> 1));
      ("pool_size", Json.Int (Pgpu_support.Pool.size (Pgpu_support.Pool.get ())));
      ( "benchmarks",
        Json.List
          (List.map
             (fun e ->
               Json.Obj
                 [
                   ("benchmark", Json.Str e.par_bench);
                   ("target", Json.Str e.par_target);
                   ("seq_seconds", Json.Float e.seq_seconds);
                   ("par_seconds", Json.Float e.par_seconds);
                   ("speedup", Json.Float e.par_speedup);
                   ("bit_identical", Json.Bool e.par_identical);
                 ])
             data) );
    ]

(** Reproduction of every table and figure of the paper's evaluation
    (Section VII). Each experiment returns structured data and renders
    the same rows/series the paper reports; the bench harness
    ([bench/main.exe]) drives them. *)

open Polygeist_gpu
module Stats = Pgpu_support.Stats

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

let run_bench ?(optimize = true) ?(specs = []) ~target (b : Bench_def.t) =
  run_rodinia ~optimize ~specs ~tune:(specs <> []) ~perf:true ~target b

(* ------------------------------------------------------------------ *)
(* Table I                                                             *)
(* ------------------------------------------------------------------ *)

let print_row widths cells =
  List.iteri
    (fun i c ->
      let w = List.nth widths i in
      fpr "%-*s  " w c)
    cells;
  fpr "@."

let print_table header rows =
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left (fun acc row -> max acc (String.length (List.nth row i)))
          (String.length h) rows)
      header
  in
  print_row widths header;
  print_row widths (List.map (fun w -> String.make w '-') widths);
  List.iter (print_row widths) rows

let table1 () =
  fpr "== Table I: GPUs used for evaluation and their specifications ==@.";
  let header, rows = Descriptor.table1_rows () in
  print_table header rows;
  fpr "@."

(* ------------------------------------------------------------------ *)
(* Kernel-level strategy comparison (Fig. 13 and Section VII-B)        *)
(* ------------------------------------------------------------------ *)

type kernel_speedups = {
  bench : string;
  kernel : string;
  thread_only : float;  (** best-of-strategy speedup over baseline *)
  block_only : float;
  combined : float;
}

(** Minimum kernel runtime considered (the paper discards runtimes
    below 0.1 ms). *)
let min_kernel_seconds = 1e-4

(** Experiment 1 runs over Rodinia and the HeCBench subset, as in the
    paper. *)
let fig13_benches () = Rodinia.all @ Hecbench.all

let fig13_data ?(target = Descriptor.a100) ?(benches = fig13_benches ()) () :
    kernel_speedups list =
  List.concat_map
    (fun (b : Bench_def.t) ->
      let base = run_bench ~target b in
      let strategies =
        [ thread_only_specs; block_only_specs; combined_specs ]
        |> List.map (fun specs -> run_bench ~specs ~target b)
      in
      let kernels = kernel_names base in
      List.filter_map
        (fun k ->
          let t0 = kernel_seconds base k in
          if t0 < min_kernel_seconds then None
          else
            match List.map (fun r -> t0 /. kernel_seconds r k) strategies with
            | [ thread_only; block_only; combined ] ->
                Some { bench = b.Bench_def.name; kernel = k; thread_only; block_only; combined }
            | _ -> None)
        kernels)
    benches

let fig13 ?target ?benches () =
  let data = fig13_data ?target ?benches () in
  fpr "== Fig. 13 / Section VII-B: thread vs block vs combined coarsening (kernel level) ==@.";
  let rows =
    List.map
      (fun e ->
        [
          e.bench;
          e.kernel;
          Fmt.str "%.3f" e.thread_only;
          Fmt.str "%.3f" e.block_only;
          Fmt.str "%.3f" e.combined;
        ])
      data
  in
  print_table [ "benchmark"; "kernel"; "thread-only"; "block-only"; "combined" ] rows;
  let gm f = Stats.geomean (List.map f data) in
  fpr "@.geomean speedups: thread-only %.1f%%  block-only %.1f%%  combined %.1f%%@."
    ((gm (fun e -> e.thread_only) -. 1.) *. 100.)
    ((gm (fun e -> e.block_only) -. 1.) *. 100.)
    ((gm (fun e -> e.combined) -. 1.) *. 100.);
  let improved = List.filter (fun e -> max e.thread_only (max e.block_only e.combined) > 1.01) data in
  fpr "kernels with >1%% speedup in some strategy: %d of %d@." (List.length improved)
    (List.length data);
  let wins =
    List.length (List.filter (fun e -> e.combined >= e.thread_only -. 1e-9) improved)
  in
  fpr "combined >= thread-only on %d of %d improved kernels@.@." wins (List.length improved);
  data

(* ------------------------------------------------------------------ *)
(* Fig. 14: lud coarsening-factor heat map                             *)
(* ------------------------------------------------------------------ *)



(** Problem size for the lud kernel analyses: a 2048x2048 matrix, as
    in the paper, so the grids are large enough for coarsening to
    matter. Runs are sampled (timing-only); lud's host control flow
    does not depend on device data, so this is safe. *)
let lud_analysis_args = [ 128 ]

(** Run lud with one (block_total, thread_total) configuration and
    return the time of the main kernel (lud_internal); [None] when the
    configuration is infeasible on the target (e.g. exceeds the
    shared-memory limit). *)
let lud_config_time ?(target = Descriptor.a100) ?(args = lud_analysis_args)
    ?(kernel = "lud_internal") spec_ =
  let b = Rodinia.find "lud" in
  let c = compile ~specs:[ spec_ ] ~target ~source:b.Bench_def.source () in
  (* was the requested configuration pruned for the main kernel? *)
  let decision =
    List.find_map
      (fun (k : Pipeline.kernel_report) ->
        if String.equal k.Pipeline.kernel kernel then
          List.find_map
            (fun (cand : Alternatives.candidate) -> Some cand.Alternatives.decision)
            k.Pipeline.candidates
        else None)
      c.report.Pipeline.kernels
  in
  match decision with
  | Some Alternatives.Kept | None ->
      let r = run ~functional:false ~sample_blocks:8 c ~args in
      Ok (kernel_seconds r kernel)
  | Some d -> Error d

type sweep_outcome = Speedup of float | Pruned of Alternatives.decision
type sweep_cell = { block_f : int; thread_f : int; speedup : sweep_outcome }

let fig14_data ?(target = Descriptor.a100) ?(args = lud_analysis_args) () : sweep_cell list =
  let base =
    match lud_config_time ~target ~args (Coarsen.spec ()) with
    | Ok t -> t
    | Error _ -> invalid_arg "baseline lud infeasible"
  in
  List.concat_map
    (fun bf ->
      List.map
        (fun tf ->
          let s = Coarsen.spec ~block:(Coarsen.Total bf) ~thread:(Coarsen.Total tf) () in
          let speedup =
            match lud_config_time ~target ~args s with
            | Ok t -> Speedup (base /. t)
            | Error d -> Pruned d
          in
          { block_f = bf; thread_f = tf; speedup })
        totals)
    totals

let fig14 ?target ?args () =
  let data = fig14_data ?target ?args () in
  fpr "== Fig. 14: lud main kernel, relative performance per (block, thread) total factor ==@.";
  let cell bf tf =
    match List.find_opt (fun c -> c.block_f = bf && c.thread_f = tf) data with
    | Some { speedup = Speedup s; _ } -> Fmt.str "%.2f" s
    | Some { speedup = Pruned (Alternatives.Rejected_shmem _); _ } -> "shmem!"
    | Some { speedup = Pruned (Alternatives.Rejected_spill _); _ } -> "spill!"
    | Some { speedup = Pruned _; _ } -> "pruned"
    | None -> "-"
  in
  let rows =
    List.map (fun bf -> Fmt.str "block %2d" bf :: List.map (fun tf -> cell bf tf) totals) totals
  in
  print_table ("" :: List.map (fun t -> Fmt.str "thr %d" t) totals) rows;
  let best =
    List.fold_left
      (fun acc c ->
        match c.speedup with
        | Speedup s when s > (match acc with Some (_, _, b) -> b | None -> 0.) ->
            Some (c.block_f, c.thread_f, s)
        | _ -> acc)
      None data
  in
  (match best with
  | Some (bf, tf, s) -> fpr "@.peak: %.2fx at (block, thread) = (%d, %d)@.@." s bf tf
  | None -> ());
  data

(* ------------------------------------------------------------------ *)
(* Table II: lud profiling counters                                    *)
(* ------------------------------------------------------------------ *)

type profile = {
  config : string;
  runtime : float;
  lsu_util : float;
  fma_util : float;
  l2_l1_read_mb : float;
  l1_l2_write_mb : float;
  l1_sm_read_req_m : float;
  sm_l1_write_req_m : float;
  shmem_read_req_m : float;
  shmem_write_req_m : float;
}

let table2_data ?(target = Descriptor.a100) ?(args = lud_analysis_args) () : profile list =
  let b = Rodinia.find "lud" in
  List.map
    (fun (bf, tf) ->
      let spec_ = Coarsen.spec ~block:(Coarsen.Total bf) ~thread:(Coarsen.Total tf) () in
      let c = compile ~specs:[ spec_ ] ~target ~source:b.Bench_def.source () in
      let r = run ~functional:false ~sample_blocks:8 c ~args in
      (* what a profiler run of the kernel reports: summed seconds and
         counters, utilizations of the dominant launch *)
      let k = Option.get (kernel_profile r "lud_internal") in
      let n = k.Profile.counters in
      {
        config = Fmt.str "(%d, %d)" bf tf;
        runtime = k.Profile.seconds;
        lsu_util = k.Profile.lsu_utilization;
        fma_util = k.Profile.fma_utilization;
        l2_l1_read_mb = Counters.l2_to_l1_read_bytes n /. 1e6;
        l1_l2_write_mb = Counters.l1_to_l2_write_bytes n /. 1e6;
        l1_sm_read_req_m = n.Counters.global_load_req /. 1e6;
        sm_l1_write_req_m = n.Counters.global_store_req /. 1e6;
        shmem_read_req_m = n.Counters.shared_load_req /. 1e6;
        shmem_write_req_m = n.Counters.shared_store_req /. 1e6;
      })
    [ (1, 1); (4, 1); (1, 4) ]

let table2 ?target ?args () =
  let data = table2_data ?target ?args () in
  fpr "== Table II: profiling data for lud (main kernel) ==@.";
  let row label f = label :: List.map f data in
  let rows =
    [
      row "Runtime" (fun p -> Fmt.str "%.4f s" p.runtime);
      row "LSU utilization" (fun p -> Fmt.str "%.0f%%" (p.lsu_util *. 100.));
      row "FMA utilization" (fun p -> Fmt.str "%.0f%%" (p.fma_util *. 100.));
      row "L2->L1 Read" (fun p -> Fmt.str "%.1f MB" p.l2_l1_read_mb);
      row "L1->L2 Write" (fun p -> Fmt.str "%.1f MB" p.l1_l2_write_mb);
      row "L1->SM Read Req." (fun p -> Fmt.str "%.2f M" p.l1_sm_read_req_m);
      row "SM->L1 Write Req." (fun p -> Fmt.str "%.2f M" p.sm_l1_write_req_m);
      row "ShMem->SM Read Req." (fun p -> Fmt.str "%.2f M" p.shmem_read_req_m);
      row "SM->ShMem Write Req." (fun p -> Fmt.str "%.2f M" p.shmem_write_req_m);
    ]
  in
  print_table ("(block, thread) factors" :: List.map (fun p -> p.config) data) rows;
  fpr "@.";
  data

(* ------------------------------------------------------------------ *)
(* Fig. 15: per-dimension block coarsening for lud                     *)
(* ------------------------------------------------------------------ *)

let fig15_data ?(target = Descriptor.a100) ?(args = lud_analysis_args) () =
  let base =
    match lud_config_time ~target ~args (Coarsen.spec ()) with
    | Ok t -> t
    | Error _ -> invalid_arg "baseline lud infeasible"
  in
  List.concat_map
    (fun bx ->
      List.map
        (fun tf ->
          let s =
            Coarsen.spec
              ~block:(Coarsen.Explicit { Coarsen.x = bx; y = 1; z = 1 })
              ~thread:(Coarsen.Total tf) ()
          in
          let speedup =
            match lud_config_time ~target ~args s with
            | Ok t -> Speedup (base /. t)
            | Error d -> Pruned d
          in
          { block_f = bx; thread_f = tf; speedup })
        [ 1; 2; 4; 8 ])
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ]

let fig15 ?target ?args () =
  let data = fig15_data ?target ?args () in
  fpr "== Fig. 15: lud main kernel, block coarsening in x only vs thread factor ==@.";
  let threads = [ 1; 2; 4; 8 ] in
  let rows =
    List.map
      (fun bx ->
        Fmt.str "block.x %2d" bx
        :: List.map
             (fun tf ->
               match List.find_opt (fun c -> c.block_f = bx && c.thread_f = tf) data with
               | Some { speedup = Speedup s; _ } -> Fmt.str "%.2f" s
               | Some { speedup = Pruned _; _ } -> "pruned"
               | None -> "-")
             threads)
      [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
  in
  print_table ("" :: List.map (fun t -> Fmt.str "thr %d" t) threads) rows;
  let best =
    List.fold_left
      (fun acc c ->
        match c.speedup with
        | Speedup s when s > (match acc with Some (_, _, b) -> b | None -> 0.) ->
            Some (c.block_f, c.thread_f, s)
        | _ -> acc)
      None data
  in
  (match best with
  | Some (bx, tf, s) -> fpr "@.peak: %.2fx at (block.x, thread) = (%d, %d)@.@." s bx tf
  | None -> ());
  data

(* ------------------------------------------------------------------ *)
(* Fig. 16: composite comparison against the mainstream compiler       *)
(* ------------------------------------------------------------------ *)

type composite_entry = {
  bench_name : string;
  clang : float;  (** baseline compiler (hipify+clang on AMD targets) *)
  pg : float;  (** Polygeist-GPU without parallel optimizations *)
  pg_opt : float;  (** Polygeist-GPU with coarsening + TDO *)
}

let fig16_target ?(benches = Rodinia.all) (target : Descriptor.t) : composite_entry list =
  List.map
    (fun (b : Bench_def.t) ->
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
      let clang =
        (run ~tune:false
           ~functional:b.Bench_def.data_dependent_host
           (compile ~optimize:false ~target ~source ())
           ~args:b.Bench_def.perf_args)
          .composite_seconds
      in
      let pg = (run_bench ~target b).composite_seconds in
      let pg_opt = (run_bench ~specs:composite_specs ~target b).composite_seconds in
      { bench_name = b.Bench_def.name; clang; pg; pg_opt })
    benches

let fig16_print_target target (data : composite_entry list) =
  let vendor_baseline =
    match target.Descriptor.vendor with
    | Descriptor.Nvidia | Descriptor.Generic -> "clang"
    | Descriptor.Amd -> "hipify+clang"
  in
  fpr "-- %a (baseline: %s) --@." Descriptor.pp target vendor_baseline;
  let rows =
    List.map
      (fun e ->
        [
          e.bench_name;
          Fmt.str "%.5f" e.clang;
          Fmt.str "%.5f" e.pg;
          Fmt.str "%.5f" e.pg_opt;
          Fmt.str "%.2f" (e.clang /. e.pg);
          Fmt.str "%.2f" (e.clang /. e.pg_opt);
        ])
      data
  in
  print_table
    [ "benchmark"; vendor_baseline ^ " (s)"; "P-G (s)"; "P-G opt (s)"; "P-G x"; "P-G opt x" ]
    rows;
  let gm f = Stats.geomean (List.map f data) in
  fpr "geomean speedup: P-G %.1f%%  P-G opt %.1f%%@.@."
    ((gm (fun e -> e.clang /. e.pg) -. 1.) *. 100.)
    ((gm (fun e -> e.clang /. e.pg_opt) -. 1.) *. 100.)

let fig16 ?(targets = [ Descriptor.a4000; Descriptor.a100; Descriptor.rx6800; Descriptor.mi210 ])
    ?benches () =
  fpr "== Fig. 16: composite runtimes, Polygeist-GPU vs the baseline compiler ==@.";
  List.map
    (fun t ->
      let data = fig16_target ?benches t in
      fig16_print_target t data;
      (t, data))
    targets

(* ------------------------------------------------------------------ *)
(* Fig. 17: NVIDIA vs AMD with comparable specifications               *)
(* ------------------------------------------------------------------ *)

let fig17 ?(benches = Rodinia.all) () =
  fpr "== Fig. 17: A4000 (clang), A4000 (P-G) and RX6800 (P-G), relative to A4000 clang ==@.";
  let nv = fig16_target ~benches Descriptor.a4000 in
  let amd = fig16_target ~benches Descriptor.rx6800 in
  let rows =
    List.map2
      (fun (n : composite_entry) (a : composite_entry) ->
        [
          n.bench_name;
          "1.00";
          Fmt.str "%.2f" (n.clang /. n.pg_opt);
          Fmt.str "%.2f" (n.clang /. a.pg_opt);
        ])
      nv amd
  in
  print_table [ "benchmark"; "A4000 clang"; "A4000 P-G"; "RX6800 P-G" ] rows;
  let gm f = Stats.geomean (List.map2 f nv amd) in
  fpr "geomean: RX6800 (P-G) vs A4000 (clang): %.1f%%; vs A4000 (P-G): %.1f%%@.@."
    ((gm (fun n a -> n.clang /. a.pg_opt) -. 1.) *. 100.)
    ((gm (fun n a -> n.pg_opt /. a.pg_opt) -. 1.) *. 100.);
  (nv, amd)

(* ------------------------------------------------------------------ *)
(* CPU retargeting: barrier-fission backend vs the GPU simulator       *)
(* ------------------------------------------------------------------ *)

type cpu_entry = {
  cpu_bench : string;
  gpu_seconds : float;  (** A100 composite, untuned *)
  cpu_seconds : float;  (** desktop CPU composite, untuned *)
  cpu_tuned_seconds : float;  (** desktop CPU composite after TDO over coarsenings *)
  epyc_seconds : float;  (** 64-core EPYC composite, untuned *)
  bit_identical : bool;  (** functional outputs match the A100 run bitwise *)
}

(** Modest TDO sweep for the CPU columns: coarsening factors double as
    unroll/interleave factors on the CPU, so thread-total coarsening is
    the interesting axis. *)
let cpu_specs = specs_of_totals [ (1, 1); (1, 2); (1, 4); (2, 1); (2, 2) ]

let cpu_compare_data ?(benches = Rodinia.all @ Hecbench.all) ?(jobs = 2) () : cpu_entry list =
  List.map
    (fun (b : Bench_def.t) ->
      let gpu = run_bench ~target:Descriptor.a100 b in
      let cpu = run_rodinia ~perf:true ~jobs ~target:Descriptor.cpu b in
      let cpu_tuned =
        run_rodinia ~perf:true ~jobs ~specs:cpu_specs ~tune:true ~target:Descriptor.cpu b
      in
      let epyc = run_rodinia ~perf:true ~jobs ~target:Descriptor.epyc7763 b in
      (* exactness: full functional runs at the default (test-scale)
         arguments, compared bitwise against the A100 execution *)
      let bits (r : run_result) =
        List.map (List.map Int64.bits_of_float) r.outputs
      in
      let f_gpu = run_rodinia ~perf:false ~target:Descriptor.a100 b in
      let f_cpu = run_rodinia ~perf:false ~jobs ~target:Descriptor.cpu b in
      {
        cpu_bench = b.Bench_def.name;
        gpu_seconds = gpu.composite_seconds;
        cpu_seconds = cpu.composite_seconds;
        cpu_tuned_seconds = cpu_tuned.composite_seconds;
        epyc_seconds = epyc.composite_seconds;
        bit_identical = bits f_gpu = bits f_cpu;
      })
    benches

let cpu_compare ?benches ?jobs () =
  fpr "== Retargeting to CPU: barrier-fission backend vs the A100 simulator ==@.";
  let data = cpu_compare_data ?benches ?jobs () in
  let rows =
    List.map
      (fun e ->
        [
          e.cpu_bench;
          Fmt.str "%.5f" e.gpu_seconds;
          Fmt.str "%.5f" e.cpu_seconds;
          Fmt.str "%.5f" e.cpu_tuned_seconds;
          Fmt.str "%.5f" e.epyc_seconds;
          Fmt.str "%.2f" (e.cpu_seconds /. e.cpu_tuned_seconds);
          (if e.bit_identical then "yes" else "NO");
        ])
      data
  in
  print_table
    [ "benchmark"; "a100 (s)"; "cpu (s)"; "cpu tuned (s)"; "epyc7763 (s)"; "tune x"; "bit-identical" ]
    rows;
  let slowdown = Stats.geomean (List.map (fun e -> e.cpu_seconds /. e.gpu_seconds) data) in
  let tune_gain =
    Stats.geomean (List.map (fun e -> e.cpu_seconds /. e.cpu_tuned_seconds) data)
  in
  fpr "geomean: cpu/a100 slowdown %.1fx, TDO gain on cpu %.1f%%; %d/%d bit-identical@.@."
    slowdown
    ((tune_gain -. 1.) *. 100.)
    (List.length (List.filter (fun e -> e.bit_identical) data))
    (List.length data);
  data

(* ------------------------------------------------------------------ *)
(* Hipify ease-of-use comparison (Section VII-D1)                      *)
(* ------------------------------------------------------------------ *)

(** A typical Rodinia-style prologue (the benchmarks in the original
    suite include CUDA headers and guard code with CUDA macros). *)
let cuda_prologue =
  "#include <cuda_runtime.h>\n"

let hipify_ease ?(benches = Rodinia.all) () =
  fpr "== Section VII-D1: translation effort, hipify+clang vs Polygeist-GPU ==@.";
  let rows =
    List.map
      (fun (b : Bench_def.t) ->
        let src = cuda_prologue ^ b.Bench_def.source in
        let _, issues = Hipify.hipify src in
        [
          b.Bench_def.name;
          string_of_int (List.length issues);
          (match issues with
          | [] -> "none"
          | i :: _ -> Fmt.str "%a" Hipify.pp_issue i);
          "0 (IR-level translation)";
        ])
      benches
  in
  print_table [ "benchmark"; "hipify manual steps"; "first issue"; "Polygeist-GPU steps" ] rows;
  fpr "@."

(* ------------------------------------------------------------------ *)
(* JSON forms of the experiment data (bench harness --metrics-dir)     *)
(* ------------------------------------------------------------------ *)

module Json = Pgpu_trace.Json

let json_of_outcome = function
  | Speedup s -> Json.Float s
  | Pruned d -> Json.Str (Fmt.str "pruned: %a" Alternatives.pp_decision d)

let json_of_fig13 (data : kernel_speedups list) : Json.t =
  Json.List
    (List.map
       (fun e ->
         Json.Obj
           [
             ("bench", Json.Str e.bench);
             ("kernel", Json.Str e.kernel);
             ("thread_only", Json.Float e.thread_only);
             ("block_only", Json.Float e.block_only);
             ("combined", Json.Float e.combined);
           ])
       data)

let json_of_sweep (data : sweep_cell list) : Json.t =
  Json.List
    (List.map
       (fun c ->
         Json.Obj
           [
             ("block_f", Json.Int c.block_f);
             ("thread_f", Json.Int c.thread_f);
             ("speedup", json_of_outcome c.speedup);
           ])
       data)

let json_of_table2 (data : profile list) : Json.t =
  Json.List
    (List.map
       (fun p ->
         Json.Obj
           [
             ("config", Json.Str p.config);
             ("runtime_s", Json.Float p.runtime);
             ("lsu_utilization", Json.Float p.lsu_util);
             ("fma_utilization", Json.Float p.fma_util);
             ("l2_l1_read_mb", Json.Float p.l2_l1_read_mb);
             ("l1_l2_write_mb", Json.Float p.l1_l2_write_mb);
             ("l1_sm_read_req_m", Json.Float p.l1_sm_read_req_m);
             ("sm_l1_write_req_m", Json.Float p.sm_l1_write_req_m);
             ("shmem_read_req_m", Json.Float p.shmem_read_req_m);
             ("shmem_write_req_m", Json.Float p.shmem_write_req_m);
           ])
       data)

let json_of_composite (data : composite_entry list) : Json.t =
  Json.List
    (List.map
       (fun e ->
         Json.Obj
           [
             ("bench", Json.Str e.bench_name);
             ("clang_s", Json.Float e.clang);
             ("pg_s", Json.Float e.pg);
             ("pg_opt_s", Json.Float e.pg_opt);
           ])
       data)

let json_of_fig16 (data : (Descriptor.t * composite_entry list) list) : Json.t =
  Json.List
    (List.map
       (fun ((t : Descriptor.t), entries) ->
         Json.Obj
           [ ("target", Json.Str t.Descriptor.name); ("benchmarks", json_of_composite entries) ])
       data)

let json_of_cpu_compare (data : cpu_entry list) : Json.t =
  Json.List
    (List.map
       (fun e ->
         Json.Obj
           [
             ("benchmark", Json.Str e.cpu_bench);
             ("a100_seconds", Json.Float e.gpu_seconds);
             ("cpu_seconds", Json.Float e.cpu_seconds);
             ("cpu_tuned_seconds", Json.Float e.cpu_tuned_seconds);
             ("epyc7763_seconds", Json.Float e.epyc_seconds);
             ("bit_identical", Json.Bool e.bit_identical);
           ])
       data)

(* ------------------------------------------------------------------ *)
(* Performance observatory suite (regression gate)                     *)
(* ------------------------------------------------------------------ *)

(** The quick-mode benchmark subset shared by the bench harness
    ([--quick]) and the pinned quick suite
    ([bench/baselines/quick.json]). *)
let quick_names = [ "lud"; "gaussian"; "nw"; "hotspot"; "nn" ]

let quick_benches () =
  List.filter (fun (b : Bench_def.t) -> List.mem b.Bench_def.name quick_names) Rodinia.all

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

(** Targets the observatory measures: one NVIDIA GPU, one AMD GPU and
    the barrier-fission CPU backend. *)
let obs_targets = [ Descriptor.a100; Descriptor.rx6800; Descriptor.cpu ]

(** A small TDO sweep: enough alternatives to exercise tuning without
    dominating gate wall-clock. *)
let obs_specs = specs_of_totals [ (1, 1); (2, 1); (1, 2) ]

(** Configurations the observatory records per bench x target:
    name, coarsening specs, tune. *)
let obs_configs = [ ("untuned", [], false); ("tdo", obs_specs, true) ]

(** One run of the observatory suite: a bench on a target under one
    of [obs_configs]. *)
type obs_run = {
  obs_bench : string;
  obs_target : Descriptor.t;
  obs_config : string;
  obs_profile : Profile.report;
}

(** Run the observatory suite: benches x targets x configs, one
    functional (test-scale) run each. The simulator is deterministic,
    so one run of each is exact. *)
let obs_suite ?(benches = Rodinia.all) ?(jobs = 1) () : obs_run list =
  List.concat_map
    (fun (b : Bench_def.t) ->
      List.concat_map
        (fun (target : Descriptor.t) ->
          List.map
            (fun (config, specs, tune) ->
              let r = run_rodinia ~specs ~tune ~jobs ~target b in
              {
                obs_bench = b.Bench_def.name;
                obs_target = target;
                obs_config = config;
                obs_profile = Profile.of_run ~composite_seconds:r.composite_seconds r.records;
              })
            obs_configs)
        obs_targets)
    benches

(** The suite's simulated results, as [gate --metrics-dir] writes them
    and [bench/baselines/quick.json] pins them: every run's
    [pgpu profile --json] report, the input of [pgpu report]. Host
    wall-clock is left out, so the file is the same bytes on every
    machine and at every [--jobs]. *)
let json_of_obs_suite (runs : obs_run list) : Json.t =
  Json.List
    (List.map
       (fun r ->
         Json.Obj
           [
             ("bench", Json.Str r.obs_bench);
             ("target", Json.Str r.obs_target.Descriptor.name);
             ("config", Json.Str r.obs_config);
             ("profile", Profile.json_of_report r.obs_profile);
           ])
       runs)

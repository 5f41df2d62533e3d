(** Benchmark harness: regenerates every table and figure of the
    paper's evaluation on the simulated GPUs, plus the host-side
    parallel-run check and the observatory suite whose profiles
    [bench/baselines/quick.json] pins.

    Usage: [main.exe [table1|fig13|fig14|fig15|table2|fig16|fig17|
    hipify|cpu|vii-b|parbench|ablation|gate|all ...]]; no arguments =
    all but [gate]. *)

module E = Pgpu_core.Experiments
module P = Pgpu_core.Polygeist_gpu
module Descriptor = Pgpu_target.Descriptor
module Json = Pgpu_trace.Json

let quick = Array.exists (String.equal "--quick") Sys.argv

(** Flags taking a value, parsed by hand so they compose with the
    positional experiment names. *)
let flag_value name =
  let rec find = function
    | f :: v :: _ when String.equal f name -> Some v
    | _ :: rest -> find rest
    | [] -> None
  in
  find (Array.to_list Sys.argv)

(** [--metrics-dir DIR]: write each experiment's data as
    DIR/<experiment>.json next to the printed tables, plus an
    aggregating DIR/summary.json at exit; DIR and its missing parents
    are created. *)
let metrics_dir = flag_value "--metrics-dir"

(** [--jobs N]: worker domains for compilation, grid sharding and TDO
    trials (default: the available cores, capped at 4; results are
    bit-identical at any value). *)
let jobs =
  match flag_value "--jobs" with
  | None -> Pgpu_support.Util.default_jobs ()
  | Some j -> (
      match int_of_string_opt j with
      | Some n when n >= 1 -> n
      | _ ->
          Fmt.epr "--jobs takes an integer of at least 1, got %S@." j;
          exit 1)

let harness_t0 = Unix.gettimeofday ()

(* every experiment's JSON, accumulated for summary.json *)
let summaries : (string * Json.t) list ref = ref []

let write_metrics name json =
  match metrics_dir with
  | None -> ()
  | Some dir ->
      let path = Filename.concat dir (name ^ ".json") in
      Pgpu_trace.Json.to_file path json;
      summaries := !summaries @ [ (name, json) ];
      Fmt.pr "[%s metrics written to %s]@." name path

let write_summary () =
  match metrics_dir with
  | None -> ()
  | Some dir ->
      let path = Filename.concat dir "summary.json" in
      Pgpu_trace.Json.to_file path
        (Json.Obj
           [
             ("generated_by", Json.Str "bench/main.exe");
             ( "env",
               Json.Str (Fmt.str "ocaml-%s/%s/%dbit" Sys.ocaml_version Sys.os_type Sys.word_size) );
             ("quick", Json.Bool quick);
             ("jobs", Json.Int jobs);
             ("pool_size", Json.Int (Pgpu_support.Pool.size (Pgpu_support.Pool.get ())));
             ("wall_seconds", Json.Float (Unix.gettimeofday () -. harness_t0));
             ("experiments", Json.Obj !summaries);
           ]);
      Fmt.pr "[summary written to %s]@." path

(** In quick mode the composite experiments use a subset of benchmarks
    (handy while iterating). *)
let benches () = if quick then E.quick_benches () else P.Rodinia.all

let heading name = Fmt.pr "@.################ %s ################@.@." name

let fig13 () =
  heading "Experiment 1 (Fig. 13, Section VII-B)";
  write_metrics "fig13" (E.json_of_fig13 (E.fig13 ~benches:(benches ()) ()))

let fig14 () =
  heading "Fig. 14";
  write_metrics "fig14" (E.json_of_sweep (E.fig14 ()))

let fig15 () =
  heading "Fig. 15";
  write_metrics "fig15" (E.json_of_sweep (E.fig15 ()))

let table2 () =
  heading "Table II";
  write_metrics "table2" (E.json_of_table2 (E.table2 ()))

let fig16 () =
  heading "Experiments 2 and 3 (Fig. 16)";
  write_metrics "fig16" (E.json_of_fig16 (E.fig16 ~benches:(benches ()) ()))

let fig17 () =
  heading "Fig. 17";
  let nv, amd = E.fig17 ~benches:(benches ()) () in
  write_metrics "fig17"
    (Pgpu_trace.Json.Obj
       [ ("a4000", E.json_of_composite nv); ("rx6800", E.json_of_composite amd) ])

let hipify () =
  heading "Section VII-D1 (ease of use)";
  E.hipify_ease ~benches:(benches ()) ()

let table1 () =
  heading "Table I";
  E.table1 ()

let cpu () =
  heading "CPU retargeting (barrier-fission backend)";
  let benches = if quick then benches () else P.Rodinia.all @ P.Hecbench.all in
  write_metrics "cpu" (E.json_of_cpu_compare (E.cpu_compare ~benches ~jobs ()))

let parbench () =
  heading "Domain parallelism: worker-pool harness (--jobs N) vs sequential";
  (* always the quick subset: the experiment compares host wall-clock,
     not simulated time, so it should stay cheap enough for CI; raises
     on any parallel/sequential divergence (bit-identity is the smoke
     assertion — the speedup threshold is gated in CI) *)
  write_metrics "parbench"
    (E.json_of_par_bench (E.par_bench ~benches:(E.quick_benches ()) ~jobs ()))

(* ------------------------------------------------------------------ *)
(* Ablations: design choices called out in DESIGN.md                   *)
(* ------------------------------------------------------------------ *)

let ablation () =
  heading "Ablations";
  let lud = P.Rodinia.find "lud" in
  let time ?(specs = []) ?(tune = specs <> []) () =
    (P.run_rodinia ~specs ~tune ~target:Descriptor.a100 lud).P.composite_seconds
  in
  let base = time () in
  Fmt.pr "lud composite baseline: %.5f s@." base;
  (* cyclic vs blocked thread-coarsening index mapping *)
  let spec_map m =
    Pgpu_transforms.Coarsen.spec ~thread:(Pgpu_transforms.Coarsen.Total 4) ~thread_mapping:m ()
  in
  let cyc = time ~specs:[ spec_map Pgpu_transforms.Interleave.Cyclic ] ~tune:false () in
  let blk = time ~specs:[ spec_map Pgpu_transforms.Interleave.Blocked ] ~tune:false () in
  Fmt.pr "thread x4, cyclic mapping (coalescing-friendly): %.5f s@." cyc;
  Fmt.pr "thread x4, blocked mapping (naive):              %.5f s@." blk;
  (* epilogue kernels: prime block factors are only possible with them *)
  let prime =
    time
      ~specs:[ Pgpu_transforms.Coarsen.spec ~block:(Pgpu_transforms.Coarsen.Total 7) () ]
      ~tune:false ()
  in
  Fmt.pr "block x7 (non-divisor; epilogue kernels): %.5f s@." prime;
  (* TDO vs a fixed aggressive configuration *)
  let tdo = time ~specs:E.composite_specs () in
  let fixed =
    time
      ~specs:[ Pgpu_transforms.Coarsen.spec ~block:(Pgpu_transforms.Coarsen.Total 16) () ]
      ~tune:false ()
  in
  Fmt.pr "TDO over %d configs: %.5f s; fixed block x16: %.5f s@.@."
    (List.length E.composite_specs)
    tdo fixed

(* ------------------------------------------------------------------ *)
(* Regression gate: the observatory suite's profiles                   *)
(* ------------------------------------------------------------------ *)

(* [gate --quick --metrics-dir DIR] writes DIR/gate.json, which must be
   the bytes of bench/baselines/quick.json *)
let gate () =
  heading "Regression gate (performance observatory)";
  let benches = benches () in
  Fmt.pr "measuring %d bench(es) x %d target(s) x %d config(s)@." (List.length benches)
    (List.length E.obs_targets) (List.length E.obs_configs);
  let runs = E.obs_suite ~benches ~jobs () in
  Fmt.pr "%d run(s) collected@." (List.length runs);
  write_metrics "gate" (E.json_of_obs_suite runs)

let all () =
  table1 ();
  fig13 ();
  fig14 ();
  table2 ();
  fig15 ();
  fig16 ();
  fig17 ();
  hipify ();
  cpu ();
  parbench ();
  ablation ()

let () =
  Fmt.pr "Polygeist-GPU reproduction: evaluation harness (simulated GPUs)@.";
  Fmt.pr "Times are simulator estimates; shapes, not absolute values, are the target.@.";
  let cmds =
    [
      ("table1", table1);
      ("fig13", fig13);
      ("vii-b", fig13);
      ("fig14", fig14);
      ("fig15", fig15);
      ("table2", table2);
      ("fig16", fig16);
      ("fig17", fig17);
      ("hipify", hipify);
      ("cpu", cpu);
      ("parbench", parbench);
      ("ablation", ablation);
      ("gate", gate);
      ("all", all);
    ]
  in
  let args =
    let rec clean = function
      | "--metrics-dir" :: _ :: rest | "--jobs" :: _ :: rest -> clean rest
      | "--quick" :: rest -> clean rest
      | a :: rest -> a :: clean rest
      | [] -> []
    in
    Array.to_list Sys.argv |> List.tl |> clean
  in
  (match args with
  | [] -> all ()
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name cmds with
          | Some f -> f ()
          | None ->
              Fmt.epr "unknown experiment %S; available: %a@." name
                Fmt.(list ~sep:comma string)
                (List.map fst cmds);
              exit 1)
        names);
  write_summary ()

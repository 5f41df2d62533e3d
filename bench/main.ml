(** Benchmark harness: regenerates every table and figure of the
    paper's evaluation on the simulated GPUs, plus the host-side
    parallel-run check and the observatory suite whose profiles
    [bench/baselines/quick.json] pins. Experiments that share a run
    share its result: each distinct run is computed once per process.

    Usage: [main.exe [table1|fig13|fig14|fig15|table2|fig16|fig17|
    hipify|cpu|vii-b|parbench|ablation|gate|all ...]]; no arguments =
    all but [gate]. *)

module E = Pgpu_core.Experiments
module P = Pgpu_core.Polygeist_gpu
module Json = Pgpu_trace.Json
module Util = Pgpu_support.Util

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

(** [--metrics-dir DIR]: write each experiment's runs as
    DIR/<experiment>.json next to the printed tables; DIR and its
    missing parents are created. *)
let metrics_dir = flag_value "--metrics-dir"

(** [--jobs N]: worker domains for compilation, grid sharding and TDO
    trials (default: the available cores, capped at 4; results are
    bit-identical at any value). *)
let jobs =
  match flag_value "--jobs" with
  | None -> Util.default_jobs ()
  | Some j -> (
      match int_of_string_opt j with
      | Some n when n >= 1 -> n
      | _ ->
          Fmt.epr "--jobs takes an integer of at least 1, got %S@." j;
          exit 1)

let write_metrics name json =
  match metrics_dir with
  | None -> ()
  | Some dir ->
      let path = Filename.concat dir (name ^ ".json") in
      Json.to_file path json;
      Fmt.pr "[%s metrics written to %s]@." name path

(** In quick mode the composite experiments use a subset of benchmarks
    (handy while iterating). *)
let benches full = if quick then E.quick_benches () else full

let heading name = Fmt.pr "@.################ %s ################@.@." name

(* every run of this process, each distinct one computed once *)
let table = E.table ~jobs ()

(* measure [e]'s runs under [title], print its tables and write its
   file *)
let experiment title (e : E.experiment) () =
  heading title;
  let ms = E.measure table e in
  e.E.render ms;
  write_metrics e.E.name (E.json_of_runs ms)

let fig13 =
  experiment "Experiment 1 (Fig. 13, Section VII-B)" (E.fig13 (benches (E.fig13_benches ())))

let cmds =
  [
    ( "table1",
      fun () ->
        heading "Table I";
        E.table1 () );
    ("fig13", fig13);
    ("vii-b", fig13);
    ("fig14", experiment "Fig. 14" (E.fig14 ()));
    ("fig15", experiment "Fig. 15" (E.fig15 ()));
    ("table2", experiment "Table II" (E.table2 ()));
    ("fig16", experiment "Experiments 2 and 3 (Fig. 16)" (E.fig16 (benches P.Rodinia.all)));
    ("fig17", experiment "Fig. 17" (E.fig17 (benches P.Rodinia.all)));
    ( "hipify",
      fun () ->
        heading "Section VII-D1 (ease of use)";
        E.hipify_ease (benches P.Rodinia.all) );
    ( "cpu",
      experiment "CPU retargeting (barrier-fission backend)"
        (E.cpu_compare (benches (P.Rodinia.all @ P.Hecbench.all))) );
    ( "parbench",
      fun () ->
        heading "Domain parallelism: worker-pool harness (--jobs N) vs sequential";
        (* always the quick subset, cheap enough for CI; raises on any
           parallel/sequential divergence *)
        write_metrics "parbench"
          (E.json_of_par_bench (E.par_bench ~benches:(E.quick_benches ()) ~jobs ())) );
    ("ablation", experiment "Ablations" (E.ablation ()));
    ( "gate",
      experiment "Regression gate (performance observatory)" (E.gate (benches P.Rodinia.all)) );
  ]

let all =
  [ "table1"; "fig13"; "fig14"; "table2"; "fig15"; "fig16"; "fig17"; "hipify"; "cpu"; "parbench"; "ablation" ]

let main () =
  (* an unwritable --metrics-dir fails before anything runs *)
  Option.iter Util.mkdir_p metrics_dir;
  Fmt.pr "Polygeist-GPU reproduction: evaluation harness (simulated GPUs)@.";
  Fmt.pr "Times are simulator estimates; shapes, not absolute values, are the target.@.";
  let args =
    let rec clean = function
      | "--metrics-dir" :: _ :: rest | "--jobs" :: _ :: rest -> clean rest
      | "--quick" :: rest -> clean rest
      | a :: rest -> a :: clean rest
      | [] -> []
    in
    Array.to_list Sys.argv |> List.tl |> clean
  in
  List.iter
    (fun name ->
      match List.assoc_opt name cmds with
      | Some f -> f ()
      | None ->
          Fmt.epr "unknown experiment %S; available: %a@." name
            Fmt.(list ~sep:comma string)
            (List.map fst cmds @ [ "all" ]);
          exit 1)
    (List.concat_map
       (function "all" -> all | name -> [ name ])
       (if args = [] then [ "all" ] else args))

let () =
  try main () with Util.Write_error m -> Fmt.epr "cannot write %s@." m; exit 1

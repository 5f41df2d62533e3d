(** Tests for the performance observatory ([Pgpu_obs]): the history
    store round-trips entries through JSONL (tolerating malformed
    lines), the baseline comparator is an identity on a run against
    itself and symmetric under swapping baseline and current (qcheck),
    the bottleneck classifier is total and invariant under uniform
    scaling of counters and cycle terms (qcheck), the committed quick
    baseline gates the quick suite with no key moved while a kernel
    moved by one ulp or 1 % either way is flagged, Table II matches
    its committed file byte for byte, and the report builder pins a
    golden JSON rendering plus a bottleneck label for every
    quick-suite kernel in the HTML dashboard. *)

module History = Pgpu_obs.History
module Baseline = Pgpu_obs.Baseline
module Obs_report = Pgpu_obs.Report
module Bottleneck = Pgpu_gpusim.Bottleneck
module Counters = Pgpu_gpusim.Counters
module Timing = Pgpu_gpusim.Timing
module Occupancy = Pgpu_target.Occupancy
module Descriptor = Pgpu_target.Descriptor
module Json = Pgpu_trace.Json
module E = Pgpu_core.Experiments

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.equal (String.sub hay i ln) needle || go (i + 1)) in
  ln = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Synthetic entries                                                   *)
(* ------------------------------------------------------------------ *)

let mk ?(rev = "test") ?(env = "test") ?(alternative = Some 0) ?(label = Bottleneck.Memory_bound)
    ?(limiter = "dram") ?(headroom = 0.5) ?(occupancy = 1.0) ~bench ~kernel ~target ~config seconds
    : History.entry =
  {
    History.bench;
    kernel;
    target;
    config;
    rev;
    env;
    launches = 2;
    alternative;
    seconds;
    composite_seconds = seconds *. 2.;
    host_seconds = seconds *. 4.;
    jobs = 1;
    cycles = seconds *. 1e9;
    occupancy;
    bottleneck = { Bottleneck.label; limiter; headroom };
    warp_insts = 1024.;
    dram_bytes = 65536.;
    divergent_branches = 0.;
  }

(* A fresh directory path under the system temp dir; [History.append]
   creates it. *)
let fresh_dir () =
  let f = Filename.temp_file "pgpu-obs-" "" in
  Sys.remove f;
  f

(* ------------------------------------------------------------------ *)
(* History store                                                       *)
(* ------------------------------------------------------------------ *)

let test_history_roundtrip () =
  let dir = fresh_dir () in
  let e1 = mk ~bench:"bfs" ~kernel:"k0" ~target:"a100" ~config:"untuned" 1.5e-3 in
  let e2 =
    mk ~bench:"bfs" ~kernel:"k0" ~target:"a100" ~config:"tdo" ~alternative:(Some 3)
      ~label:Bottleneck.Latency_bound ~limiter:"latency" ~headroom:0.839 ~occupancy:0.25 1.0e-3
  in
  let e3 =
    { e1 with History.kernel = "k1"; alternative = None; seconds = 0.1; divergent_branches = 12.5 }
  in
  History.append ~dir [ e1; e2 ];
  History.append ~dir [ e3 ];
  match History.load ~dir with
  | Error m -> Alcotest.failf "load: %s" m
  | Ok got ->
      Alcotest.(check int) "count" 3 (List.length got);
      List.iteri
        (fun i (want, have) ->
          Alcotest.(check bool) (Fmt.str "entry %d round-trips" i) true (want = have))
        (List.combine [ e1; e2; e3 ] got)

let test_history_skips_malformed () =
  let dir = fresh_dir () in
  let e1 = mk ~bench:"nw" ~kernel:"k" ~target:"cpu" ~config:"untuned" 2e-4 in
  History.append ~dir [ e1 ];
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 (History.file ~dir) in
  output_string oc "this is not json\n{\"v\":0}\n\n";
  close_out oc;
  History.append ~dir [ e1 ];
  match History.load ~dir with
  | Error m -> Alcotest.failf "load: %s" m
  | Ok got -> Alcotest.(check int) "malformed lines skipped" 2 (List.length got)

(* ------------------------------------------------------------------ *)
(* Comparator properties                                               *)
(* ------------------------------------------------------------------ *)

let gen_key =
  QCheck.Gen.(
    quad
      (oneofl [ "b1"; "b2" ])
      (oneofl [ "k1"; "k2"; "k3" ])
      (oneofl [ "a100"; "cpu" ])
      (oneofl [ "untuned"; "tdo" ]))

(* Discrete microsecond grid: coarse enough that two runs often give a
   key equal seconds, so unchanged verdicts occur next to moves. *)
let gen_seconds = QCheck.Gen.(map (fun n -> float_of_int (1 + n) *. 1e-6) (int_bound 999))

let entry_of ((b, k, t, c), s) = mk ~bench:b ~kernel:k ~target:t ~config:c s

let print_run entries =
  String.concat "; "
    (List.map
       (fun (e : History.entry) ->
         Fmt.str "%s/%s@%s[%s]=%g" e.History.bench e.History.kernel e.History.target
           e.History.config e.History.seconds)
       entries)

let arb_entries =
  QCheck.make ~print:print_run
    QCheck.Gen.(
      map (List.map entry_of) (list_size (int_range 0 12) (pair gen_key gen_seconds)))

let prop_comparator_identity =
  QCheck.Test.make ~name:"a run against its own snapshot is never a regression" ~count:200
    arb_entries (fun entries ->
      let base = Baseline.snapshot entries in
      let r = Baseline.compare_runs base entries in
      Baseline.regressions r = []
      && Baseline.improvements r = []
      && r.Baseline.missing = [] && r.Baseline.added = []
      && List.length r.Baseline.comparisons = List.length base.Baseline.entries
      && List.for_all (fun c -> c.Baseline.verdict = Baseline.Unchanged) r.Baseline.comparisons)

let arb_two_runs =
  QCheck.make
    ~print:(fun (a, b) -> print_run a ^ " || " ^ print_run b)
    QCheck.Gen.(
      map
        (fun l ->
          ( List.map (fun (k, sa, _) -> entry_of (k, sa)) l,
            List.map (fun (k, _, sb) -> entry_of (k, sb)) l ))
        (list_size (int_range 1 10) (triple gen_key gen_seconds gen_seconds)))

let prop_comparator_symmetry =
  QCheck.Test.make ~name:"swapping baseline and current swaps the verdicts" ~count:200
    arb_two_runs (fun (run_a, run_b) ->
      let keys cs = List.map (fun (c : Baseline.comparison) -> c.Baseline.key) cs in
      let ab = Baseline.compare_runs (Baseline.snapshot run_a) run_b in
      let ba = Baseline.compare_runs (Baseline.snapshot run_b) run_a in
      keys (Baseline.regressions ab) = keys (Baseline.improvements ba)
      && keys (Baseline.improvements ab) = keys (Baseline.regressions ba))

(* ------------------------------------------------------------------ *)
(* Classifier properties                                               *)
(* ------------------------------------------------------------------ *)

let term_names = [ "issue"; "fp32"; "fp64"; "int"; "sfu"; "lsu"; "l1"; "shared"; "l2"; "dram"; "l3"; "latency" ]

let mk_breakdown terms ~occ ~l3_frac : Timing.breakdown =
  match terms with
  | [ issue; fp32; fp64; int_; sfu; lsu; l1; shared; l2; dram; latency ] ->
      {
        Timing.cycles = List.fold_left Float.max 0. terms;
        issue_cycles = issue;
        fp32_cycles = fp32;
        fp64_cycles = fp64;
        int_cycles = int_;
        sfu_cycles = sfu;
        lsu_cycles = lsu;
        l1_cycles = l1;
        shared_cycles = shared;
        l2_cycles = l2;
        dram_cycles = dram;
        l3_cycles = dram *. l3_frac;
        latency_cycles = latency;
        occupancy = { Occupancy.blocks_per_sm = 1; active_warps = 32; occupancy = occ; limiter = "threads" };
        utilization = 1.0;
        lsu_utilization = 0.5;
        fma_utilization = 0.5;
        seconds = 1e-3;
      }
  | _ -> assert false

let mk_counters ~warp_insts ~divergent =
  let c = Counters.create () in
  c.Counters.warp_insts <- warp_insts;
  c.Counters.divergent_branches <- divergent;
  c

type classify_case = {
  terms : float list;  (** the 11 roofline terms, cycles *)
  occ : float;
  l3_frac : float;
  warp_insts : float;
  divergent : float;
  kind : Descriptor.kind;
}

let arb_classify_case =
  let gen =
    QCheck.Gen.(
      let* terms = list_repeat 11 (map float_of_int (int_bound 1000)) in
      let* occ = oneofl [ 0.1; 0.4; 0.5; 0.8; 1.0 ] in
      let* l3_frac = oneofl [ 0.; 0.3; 0.7; 1.0 ] in
      let* wi = map (fun n -> float_of_int (1 + n)) (int_bound 1000) in
      let* db = map (fun n -> Float.min wi (float_of_int n)) (int_bound 1000) in
      let* kind = oneofl [ Descriptor.Gpu; Descriptor.Cpu ] in
      return { terms; occ; l3_frac; warp_insts = wi; divergent = db; kind })
  in
  QCheck.make
    ~print:(fun c ->
      Fmt.str "terms=[%a] occ=%g l3=%g wi=%g div=%g"
        Fmt.(list ~sep:semi float)
        c.terms c.occ c.l3_frac c.warp_insts c.divergent)
    gen

let classify_case ?(scale = 1.) c =
  let terms = List.map (fun v -> v *. scale) c.terms in
  let b = mk_breakdown terms ~occ:c.occ ~l3_frac:c.l3_frac in
  let counters = mk_counters ~warp_insts:(c.warp_insts *. scale) ~divergent:(c.divergent *. scale) in
  Bottleneck.classify ~kind:c.kind counters b

let prop_classifier_total =
  QCheck.Test.make ~name:"classifier is total with headroom in [0,1]" ~count:300
    arb_classify_case (fun c ->
      let t = classify_case c in
      t.Bottleneck.headroom >= 0.
      && t.Bottleneck.headroom <= 1.
      && List.mem t.Bottleneck.limiter term_names
      && Bottleneck.label_of_name (Bottleneck.label_name t.Bottleneck.label) = Some t.Bottleneck.label)

let prop_classifier_scale_invariant =
  (* power-of-two scales keep every division exact, so the verdict must
     be bit-identical, not merely close *)
  QCheck.Test.make ~name:"classifier is invariant under uniform scaling" ~count:300
    QCheck.(pair arb_classify_case (make (Gen.oneofl [ 0.25; 0.5; 2.; 64. ]) ~print:string_of_float))
    (fun (c, k) -> classify_case c = classify_case ~scale:k c)

let test_classifier_all_zero () =
  let t = Bottleneck.classify (Counters.create ()) (mk_breakdown (List.init 11 (fun _ -> 0.)) ~occ:1.0 ~l3_frac:0.) in
  Alcotest.(check (float 0.)) "zero headroom" 0. t.Bottleneck.headroom;
  Alcotest.(check string) "label" "compute-bound" (Bottleneck.label_name t.Bottleneck.label)

(* ------------------------------------------------------------------ *)
(* Quick-suite gate against the committed baseline                     *)
(* ------------------------------------------------------------------ *)

let quick_entries = lazy (E.obs_suite ~benches:(E.quick_benches ()) ~rev:"test" ~env:"test" ())

let baseline_path () =
  List.find Sys.file_exists [ "../bench/baselines/quick.json"; "bench/baselines/quick.json" ]

let load_baseline () =
  match Baseline.load (baseline_path ()) with
  | Ok b -> b
  | Error m -> Alcotest.failf "committed baseline unreadable: %s" m

let test_gate_clean () =
  let entries = Lazy.force quick_entries in
  let base = load_baseline () in
  let r = Baseline.compare_runs base entries in
  let show ks = List.map (Fmt.str "%a" Baseline.pp_key) ks in
  Alcotest.(check (list string)) "no baseline key is missing" [] (show r.Baseline.missing);
  Alcotest.(check (list string)) "no key beyond the baseline" [] (show r.Baseline.added);
  Alcotest.(check int) "every baseline key compared" (List.length base.Baseline.entries)
    (List.length r.Baseline.comparisons);
  Alcotest.(check int) "no regressions" 0 (List.length (Baseline.regressions r));
  Alcotest.(check int) "no improvements" 0 (List.length (Baseline.improvements r));
  Alcotest.(check bool) "all unchanged" true
    (List.for_all (fun c -> c.Baseline.verdict = Baseline.Unchanged) r.Baseline.comparisons)

let with_seconds_scaled victim k entries =
  List.map
    (fun (e : History.entry) ->
      if Baseline.compare_key (Baseline.key_of_entry e) victim = 0 then
        { e with History.seconds = e.History.seconds *. k }
      else e)
    entries

let test_gate_flags_artificial_slowdown () =
  let entries = Lazy.force quick_entries in
  let base = load_baseline () in
  let victim_entry = List.hd entries in
  Alcotest.(check bool) "victim is measurable" true (victim_entry.History.seconds > 1e-9);
  let victim = Baseline.key_of_entry victim_entry in
  let keys cs = List.map (fun (c : Baseline.comparison) -> Fmt.str "%a" Baseline.pp_key c.Baseline.key) cs in
  let slowed = Baseline.compare_runs base (with_seconds_scaled victim 2. entries) in
  Alcotest.(check (list string)) "slowed kernel regresses"
    [ Fmt.str "%a" Baseline.pp_key victim ]
    (keys (Baseline.regressions slowed));
  Alcotest.(check int) "slowdown is not an improvement" 0 (List.length (Baseline.improvements slowed));
  let sped = Baseline.compare_runs base (with_seconds_scaled victim 0.5 entries) in
  Alcotest.(check (list string)) "sped-up kernel improves"
    [ Fmt.str "%a" Baseline.pp_key victim ]
    (keys (Baseline.improvements sped));
  Alcotest.(check int) "speed-up is not a regression" 0 (List.length (Baseline.regressions sped))

(* the comparator is exact: one ulp or 1 % either way moves exactly the
   scaled key; a 2 % noise band called all three unchanged *)
let test_gate_exact () =
  let entries = Lazy.force quick_entries in
  let base = load_baseline () in
  let victim = Baseline.key_of_entry (List.hd entries) in
  List.iter
    (fun (k, verdict) ->
      let r = Baseline.compare_runs base (with_seconds_scaled victim k entries) in
      let moved =
        List.map
          (fun (c : Baseline.comparison) ->
            Fmt.str "%a %s" Baseline.pp_key c.Baseline.key (Baseline.verdict_name c.Baseline.verdict))
          (Baseline.moved r)
      in
      Alcotest.(check (list string))
        (Fmt.str "seconds x %h" k)
        [ Fmt.str "%a %s" Baseline.pp_key victim (Baseline.verdict_name verdict) ]
        moved)
    [ (1.01, Baseline.Regressed); (Float.succ 1., Baseline.Regressed); (0.99, Baseline.Improved) ]

(* ------------------------------------------------------------------ *)
(* Table II against its committed file                                 *)
(* ------------------------------------------------------------------ *)

let test_table2_pinned () =
  let path =
    List.find Sys.file_exists [ "../bench/baselines/table2.json"; "bench/baselines/table2.json" ]
  in
  Alcotest.(check string) "Table II as bench/main.exe table2 --metrics-dir writes it"
    (In_channel.with_open_bin path In_channel.input_all)
    (Json.to_string_pretty (E.json_of_table2 (E.table2_data ())))

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let test_report_quick_suite () =
  let entries = Lazy.force quick_entries in
  let r = Obs_report.build entries in
  Alcotest.(check int) "one section per target" 3 (List.length r.Obs_report.sections);
  List.iter
    (fun (s : Obs_report.target_section) ->
      Alcotest.(check string)
        (s.Obs_report.target ^ " speedups are vs untuned")
        "untuned" s.Obs_report.reference;
      Alcotest.(check bool) (s.Obs_report.target ^ " has rows") true (s.Obs_report.rows <> []);
      let counted = List.fold_left (fun a (_, n) -> a + n) 0 s.Obs_report.bottlenecks in
      Alcotest.(check int)
        (s.Obs_report.target ^ " has a bottleneck label for every kernel")
        (List.length s.Obs_report.rows) counted;
      List.iter
        (fun (row : Obs_report.kernel_row) ->
          Alcotest.(check int)
            (row.Obs_report.kernel ^ " has a cell per config")
            2
            (List.length row.Obs_report.cells);
          List.iter
            (fun (cell : Obs_report.config_cell) ->
              Alcotest.(check bool)
                (row.Obs_report.kernel ^ " speedup is positive")
                true
                (cell.Obs_report.speedup > 0.))
            row.Obs_report.cells)
        s.Obs_report.rows)
    r.Obs_report.sections;
  let html = Obs_report.to_html r in
  Alcotest.(check bool) "html document" true (contains html "<html");
  List.iter
    (fun (s : Obs_report.target_section) ->
      Alcotest.(check bool) ("html names target " ^ s.Obs_report.target) true
        (contains html s.Obs_report.target);
      List.iter
        (fun (row : Obs_report.kernel_row) ->
          Alcotest.(check bool)
            ("html names kernel " ^ row.Obs_report.kernel)
            true
            (contains html row.Obs_report.kernel);
          Alcotest.(check bool)
            ("html labels kernel " ^ row.Obs_report.kernel)
            true
            (contains html (Bottleneck.label_name row.Obs_report.bottleneck.Bottleneck.label)))
        s.Obs_report.rows)
    r.Obs_report.sections

let golden_entries =
  [
    mk ~bench:"bfs" ~kernel:"bfs_kernel" ~target:"a100" ~config:"untuned" ~label:Bottleneck.Memory_bound
      ~limiter:"dram" ~headroom:0.5 0.002;
    mk ~bench:"bfs" ~kernel:"bfs_kernel" ~target:"a100" ~config:"tdo" ~alternative:(Some 2)
      ~label:Bottleneck.Memory_bound ~limiter:"dram" ~headroom:0.25 0.001;
    mk ~bench:"bfs" ~kernel:"bfs_kernel" ~target:"cpu" ~config:"untuned" ~label:Bottleneck.Compute_bound
      ~limiter:"fp32" ~headroom:0.125 0.004;
  ]

let golden_expected = {golden|{
  "entries": 3,
  "revs": [
    "test"
  ],
  "envs": [
    "test"
  ],
  "targets": [
    {
      "target": "a100",
      "reference": "untuned",
      "configs": [
        "untuned",
        "tdo"
      ],
      "kernels": [
        {
          "bench": "bfs",
          "kernel": "bfs_kernel",
          "configs": {
            "untuned": {
              "seconds": 0.002,
              "speedup": 1.0
            },
            "tdo": {
              "seconds": 0.001,
              "speedup": 2.0
            }
          },
          "best_config": "tdo",
          "bottleneck": "memory-bound",
          "bottleneck_limiter": "dram",
          "bottleneck_headroom": 0.25,
          "occupancy": 1.0,
          "alternative": 2,
          "host_seconds": 0.004,
          "host_throughput": 256000.0
        }
      ],
      "bottlenecks": {
        "memory-bound": 1
      }
    },
    {
      "target": "cpu",
      "reference": "untuned",
      "configs": [
        "untuned"
      ],
      "kernels": [
        {
          "bench": "bfs",
          "kernel": "bfs_kernel",
          "configs": {
            "untuned": {
              "seconds": 0.004,
              "speedup": 1.0
            }
          },
          "best_config": "untuned",
          "bottleneck": "compute-bound",
          "bottleneck_limiter": "fp32",
          "bottleneck_headroom": 0.125,
          "occupancy": 1.0,
          "alternative": 0,
          "host_seconds": 0.016,
          "host_throughput": 64000.0
        }
      ],
      "bottlenecks": {
        "compute-bound": 1
      }
    }
  ],
  "baseline": {
    "name": "golden",
    "rev": "test",
    "comparisons": [
      {
        "bench": "bfs",
        "kernel": "bfs_kernel",
        "target": "a100",
        "config": "tdo",
        "baseline_seconds": 0.001,
        "current_seconds": 0.001,
        "ratio": 1.0,
        "verdict": "unchanged"
      },
      {
        "bench": "bfs",
        "kernel": "bfs_kernel",
        "target": "a100",
        "config": "untuned",
        "baseline_seconds": 0.002,
        "current_seconds": 0.002,
        "ratio": 1.0,
        "verdict": "unchanged"
      },
      {
        "bench": "bfs",
        "kernel": "bfs_kernel",
        "target": "cpu",
        "config": "untuned",
        "baseline_seconds": 0.004,
        "current_seconds": 0.004,
        "ratio": 1.0,
        "verdict": "unchanged"
      }
    ],
    "missing": [],
    "added": [],
    "regressions": 0,
    "improvements": 0
  },
  "summary": null
}
|golden}

let test_report_golden_json () =
  let base = Baseline.snapshot ~name:"golden" golden_entries in
  let r = Obs_report.build ~baseline:base golden_entries in
  let actual = Json.to_string_pretty (Obs_report.to_json r) in
  if not (String.equal actual golden_expected) then begin
    let oc = open_out "/tmp/obs_golden_actual.json" in
    output_string oc actual;
    close_out oc;
    Alcotest.(check string) "golden report json" golden_expected actual
  end

let suite =
  [
    ( "obs",
      [
        Alcotest.test_case "history jsonl round-trip" `Quick test_history_roundtrip;
        Alcotest.test_case "history skips malformed lines" `Quick test_history_skips_malformed;
        QCheck_alcotest.to_alcotest prop_comparator_identity;
        QCheck_alcotest.to_alcotest prop_comparator_symmetry;
        QCheck_alcotest.to_alcotest prop_classifier_total;
        QCheck_alcotest.to_alcotest prop_classifier_scale_invariant;
        Alcotest.test_case "classifier on all-zero counters" `Quick test_classifier_all_zero;
        Alcotest.test_case "report golden json" `Quick test_report_golden_json;
        Alcotest.test_case "quick gate: clean tree matches committed baseline" `Slow test_gate_clean;
        Alcotest.test_case "quick gate: artificial slowdown is flagged" `Slow
          test_gate_flags_artificial_slowdown;
        Alcotest.test_case "quick gate: a move of one ulp or 1 % is flagged" `Slow test_gate_exact;
        Alcotest.test_case "Table II matches bench/baselines/table2.json" `Slow test_table2_pinned;
        Alcotest.test_case "report covers every quick-suite kernel" `Slow test_report_quick_suite;
      ] );
  ]

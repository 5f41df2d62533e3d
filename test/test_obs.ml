(** Tests for the performance observatory ([Pgpu_obs]) and the
    evaluation's run lists: the bottleneck classifier is total and
    invariant under uniform scaling of counters and cycle terms
    (qcheck), the quick suite's runs and Table II's match their files
    under [bench/baselines] byte for byte, a one-ulp move fails that
    check at its line, the figures that share runs declare equal keys
    (checked without running any), the report over the pinned quick
    suite labels every kernel in the HTML dashboard and prints each
    bottleneck list on one line, and the report builder rejects
    malformed runs by index and field and pins a golden JSON
    rendering. *)

module Profile = Pgpu_obs.Profile
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
(* Pinned files: bench/baselines against what the code computes now    *)
(* ------------------------------------------------------------------ *)

(* the committed bench/baselines/[file] *)
let baseline file =
  let path =
    List.find Sys.file_exists [ "../bench/baselines/" ^ file; "bench/baselines/" ^ file ]
  in
  In_channel.with_open_bin path In_channel.input_all

(* [None] when bench/baselines/[file] holds exactly [computed], else
   the first line where the two differ and the command that rewrites
   the file: [bench/main.exe cmd --metrics-dir DIR] writes it as
   DIR/[out]. Simulated time is deterministic, so any move, faster or
   slower, fails. *)
let pin_mismatch ~file ~cmd ~out computed =
  let committed = baseline file in
  if String.equal committed computed then None
  else
    let line = function l :: _ -> String.trim l | [] -> "<end of file>" in
    let rec first n = function
      | c :: cs, x :: xs when String.equal c x -> first (n + 1) (cs, xs)
      | cs, xs -> (n, line cs, line xs)
    in
    let n, c, x =
      first 1 (String.split_on_char '\n' committed, String.split_on_char '\n' computed)
    in
    Some
      (Fmt.str
         "bench/baselines/%s line %d differs from what the code computes:@.  committed: %s@.  \
          computed:  %s@.If the move is intended, rewrite the file: dune exec bench/main.exe \
          -- %s --metrics-dir DIR && cp DIR/%s bench/baselines/%s"
         file n c x cmd out file)

(* an experiment's runs with their outcomes, and its file's bytes *)
let measure e = E.measure (E.table ~jobs:1 ()) e
let runs_json ms = Json.to_string_pretty (E.json_of_runs ms)
let quick_suite = lazy (measure (E.gate (E.quick_benches ())))
let quick_mismatch = pin_mismatch ~file:"quick.json" ~cmd:"gate --quick" ~out:"gate.json"

let test_quick_pinned () =
  Option.iter Alcotest.fail (quick_mismatch (runs_json (Lazy.force quick_suite)))

(* one ulp more on the first kernel's seconds fails the check at the
   line that holds them *)
let test_pin_names_moved_line () =
  let runs = Lazy.force quick_suite in
  let r, p, digest =
    match List.hd runs with
    | r, E.Profiled (p, digest) -> (r, p, digest)
    | _, E.Pruned _ -> Alcotest.fail "the first quick-suite run was pruned"
  in
  let k = List.hd p.Profile.kernels in
  let k = { k with Profile.seconds = Float.succ k.Profile.seconds } in
  let moved =
    (r, E.Profiled ({ p with Profile.kernels = k :: List.tl p.Profile.kernels }, digest))
    :: List.tl runs
  in
  let computed = runs_json moved in
  let seconds = Fmt.str "\"seconds\": %s," (Json.to_string (Json.Float k.Profile.seconds)) in
  let rec line_of n = function
    | l :: ls -> if String.equal (String.trim l) seconds then n else line_of (n + 1) ls
    | [] -> Alcotest.failf "no line %s" seconds
  in
  let n = line_of 1 (String.split_on_char '\n' computed) in
  match quick_mismatch computed with
  | None -> Alcotest.fail "a one-ulp move passed the check"
  | Some msg ->
      List.iter
        (fun part -> Alcotest.(check bool) (Fmt.str "the message holds %S" part) true (contains msg part))
        [
          Fmt.str "quick.json line %d differs" n;
          seconds;
          "bench/main.exe -- gate --quick --metrics-dir DIR && cp DIR/gate.json";
        ]

let test_table2_pinned () =
  Option.iter Alcotest.fail
    (pin_mismatch ~file:"table2.json" ~cmd:"table2" ~out:"table2.json"
       (runs_json (measure (E.table2 ()))))

(* ------------------------------------------------------------------ *)
(* Shared runs: the declared lists, without running any                *)
(* ------------------------------------------------------------------ *)

let test_shared_runs () =
  let benches = Pgpu_core.Polygeist_gpu.Rodinia.all in
  let t = E.table ~jobs:1 () in
  let add runs = List.iter (fun r -> ignore (E.entry t r)) runs in
  let adds_nothing what runs =
    let n = Hashtbl.length t.E.entries in
    add runs;
    Alcotest.(check int) what n (Hashtbl.length t.E.entries)
  in
  let fig13 = E.fig13 benches and fig16 = E.fig16 benches in
  add fig16.E.runs;
  adds_nothing "fig17's runs are fig16's" (E.fig17 benches).E.runs;
  adds_nothing "fig13's untuned a100 runs are fig16's"
    (List.filter (fun (r : E.run) -> String.equal r.E.config "untuned") fig13.E.runs);
  add (E.fig14 ()).E.runs;
  adds_nothing "Table II's runs are fig14's" (E.table2 ()).E.runs;
  adds_nothing "fig15's base run is fig14's"
    (List.filter (fun (r : E.run) -> String.equal r.E.config "base") (E.fig15 ()).E.runs);
  let lud_a100 config (r : E.run) =
    String.equal r.E.bench "lud" && String.equal r.E.config config
    && String.equal r.E.compile.E.target.Descriptor.name "a100"
  in
  let untuned = List.find (lud_a100 "untuned") fig13.E.runs
  and pg = List.find (lud_a100 "P-G") fig16.E.runs in
  Alcotest.(check bool) "two labels of one key share one entry" true
    (E.entry t untuned == E.entry t pg);
  Alcotest.(check bool) "no run was computed" true
    (Hashtbl.fold (fun _ e none -> none && not (Lazy.is_val e)) t.E.entries true)

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

(* the committed quick.json and the report built from it *)
let quick_report =
  lazy
    (match Json.of_string (baseline "quick.json") with
    | Error m -> Alcotest.failf "quick.json: %s" m
    | Ok runs -> (
        match Obs_report.build runs with
        | Ok r -> (runs, r)
        | Error m -> Alcotest.failf "quick.json: %s" m))

let test_report_quick_suite () =
  let runs, r = Lazy.force quick_report in
  Alcotest.(check int) "one section per target" 3 (List.length r.Obs_report.sections);
  let kernels run =
    match Option.bind (Json.member "profile" run) (Json.member "kernels") with
    | Some (Json.List ks) -> List.length ks
    | _ -> Alcotest.fail "a pinned run without kernels"
  in
  let pinned = match runs with Json.List rs -> List.map kernels rs | _ -> [] in
  let cells =
    List.concat_map
      (fun (s : Obs_report.target_section) ->
        List.map
          (fun (row : Obs_report.kernel_row) -> List.length row.Obs_report.cells)
          s.Obs_report.rows)
      r.Obs_report.sections
  in
  Alcotest.(check int) "every pinned kernel is a cell" (List.fold_left ( + ) 0 pinned)
    (List.fold_left ( + ) 0 cells);
  (* the text prints each cell on a line of its own *)
  let text = String.split_on_char '\n' (Obs_report.to_string r) in
  let rows =
    List.concat_map (fun (s : Obs_report.target_section) -> s.Obs_report.rows) r.Obs_report.sections
  in
  List.iter
    (fun (row : Obs_report.kernel_row) ->
      let name = row.Obs_report.bench ^ "/" ^ row.Obs_report.kernel in
      let named (row : Obs_report.kernel_row) =
        String.equal (row.Obs_report.bench ^ "/" ^ row.Obs_report.kernel) name
      in
      Alcotest.(check int) (name ^ ": one text line per cell")
        (List.fold_left
           (fun a row -> a + List.length row.Obs_report.cells)
           0 (List.filter named rows))
        (List.length (List.filter (String.starts_with ~prefix:("  " ^ name ^ " ")) text)))
    rows;
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

(* [Fmt.comma] is a break hint: each bottleneck list must stay on its
   [bottlenecks:] line after the table's overlong rows *)
let test_report_bottlenecks_one_line () =
  let _, r = Lazy.force quick_report in
  let lines =
    List.filter
      (fun l -> contains l "bottlenecks:")
      (String.split_on_char '\n' (Obs_report.to_string r))
  in
  Alcotest.(check int) "one bottlenecks line per target" (List.length r.Obs_report.sections)
    (List.length lines);
  List.iter2
    (fun (s : Obs_report.target_section) line ->
      List.iter
        (fun (label, n) ->
          let item = Fmt.str "%s x%d" label n in
          Alcotest.(check bool) (Fmt.str "%s: %S holds %S" s.Obs_report.target line item) true
            (contains line item))
        s.Obs_report.bottlenecks)
    r.Obs_report.sections lines

(* one run of bfs_kernel with only the fields the report reads *)
let golden_run ~target ~config ?(alternative = 0) ~bottleneck ~limiter ~headroom seconds =
  Json.Obj
    [
      ("bench", Json.Str "bfs");
      ("target", Json.Str target);
      ("config", Json.Str config);
      ( "profile",
        Json.Obj
          [
            ( "kernels",
              Json.List
                [
                  Json.Obj
                    [
                      ("kernel", Json.Str "bfs_kernel");
                      ("seconds", Json.Float seconds);
                      ("alternative", Json.Int alternative);
                      ("occupancy", Json.Float 1.0);
                      ("bottleneck", Json.Str bottleneck);
                      ("bottleneck_limiter", Json.Str limiter);
                      ("bottleneck_headroom", Json.Float headroom);
                    ];
                ] );
          ] );
    ]

let golden_runs =
  [
    golden_run ~target:"a100" ~config:"untuned" ~bottleneck:"memory-bound" ~limiter:"dram"
      ~headroom:0.5 0.002;
    golden_run ~target:"a100" ~config:"tdo" ~alternative:2 ~bottleneck:"memory-bound"
      ~limiter:"dram" ~headroom:0.25 0.001;
    golden_run ~target:"cpu" ~config:"untuned" ~bottleneck:"compute-bound" ~limiter:"fp32"
      ~headroom:0.125 0.004;
  ]

let golden_expected = {golden|{
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
          "alternative": 2
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
          "alternative": 0
        }
      ],
      "bottlenecks": {
        "compute-bound": 1
      }
    }
  ]
}
|golden}

let test_report_golden_json () =
  let r = Result.get_ok (Obs_report.build (Json.List golden_runs)) in
  let actual = Json.to_string_pretty (Obs_report.to_json r) in
  if not (String.equal actual golden_expected) then begin
    let oc = open_out "/tmp/obs_golden_actual.json" in
    output_string oc actual;
    close_out oc;
    Alcotest.(check string) "golden report json" golden_expected actual
  end

let test_report_rejects_malformed () =
  let error json =
    match Obs_report.build json with
    | Ok _ -> Alcotest.fail "malformed runs were accepted"
    | Error m -> m
  in
  Alcotest.(check string) "not a list" "not a list of runs {bench, target, config, profile}"
    (error (Json.Obj []));
  let no_seconds =
    Result.get_ok
      (Json.of_string
         {|{"bench": "bfs", "target": "a100", "config": "tdo",
            "profile": {"kernels": [{"kernel": "bfs_kernel", "alternative": null}]}}|})
  in
  Alcotest.(check string) "a kernel without seconds"
    "run 3: kernel 0: \"seconds\" is missing or not a number"
    (error (Json.List (golden_runs @ [ no_seconds ])))

let suite =
  [
    ( "obs",
      [
        QCheck_alcotest.to_alcotest prop_classifier_total;
        QCheck_alcotest.to_alcotest prop_classifier_scale_invariant;
        Alcotest.test_case "classifier on all-zero counters" `Quick test_classifier_all_zero;
        Alcotest.test_case "report golden json" `Quick test_report_golden_json;
        Alcotest.test_case "report rejects malformed runs by index and field" `Quick
          test_report_rejects_malformed;
        Alcotest.test_case "quick suite matches bench/baselines/quick.json" `Slow test_quick_pinned;
        Alcotest.test_case "pin check names the line a one-ulp move changes" `Slow
          test_pin_names_moved_line;
        Alcotest.test_case "Table II matches bench/baselines/table2.json" `Slow test_table2_pinned;
        Alcotest.test_case "figures that share runs declare equal keys" `Quick test_shared_runs;
        Alcotest.test_case "report covers every quick-suite kernel" `Quick test_report_quick_suite;
        Alcotest.test_case "report prints each bottleneck list on one line" `Quick
          test_report_bottlenecks_one_line;
      ] );
  ]

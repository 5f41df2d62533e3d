(** Host-performance benchmark of the Polygeist-GPU stack.

    One named workload per process, on one domain ([jobs = 1], the CLI
    default), as a closed loop with one client: each item is one
    (program, target) pair handled like a fresh [pgpu] invocation, with
    a fresh [Cache.create ()], a fresh runtime state and its outputs
    checked against the program's CPU reference. Time is process CPU
    ([Sys.time], user + sys): on a shared VM the gap between wall-clock
    and CPU is steal, which does not repeat.

    {v
    main.exe --workload tune|sim|compile --seed N --seconds S --trace 0|1
             [--untraced-pass-cpu-s U] [--programs a,b,...] [--out DIR]
    v}

    The seed only shuffles the item order of each pass; [--seconds]
    sets the number of passes. The last line of stdout is one JSON
    object: [correct], [attempted], [failed] and the metrics of the
    mode (end-to-end untraced, per-layer traced). Every run writes its
    per-program rows, and a traced run its spans, under [--out]. *)

module P = Pgpu_core.Polygeist_gpu
module Experiments = Pgpu_core.Experiments
module Descriptor = Pgpu_target.Descriptor
module Backend = Pgpu_target.Backend
module Bench_def = Pgpu_rodinia.Bench_def
module Instr = Pgpu_ir.Instr
module Pipeline = Pgpu_transforms.Pipeline
module Alternatives = Pgpu_transforms.Alternatives
module Cache = Pgpu_cache.Cache
module Runtime = Pgpu_runtime.Runtime
module Counters = Pgpu_gpusim.Counters
module Tracer = Pgpu_trace.Tracer
module Json = Pgpu_trace.Json
module Stats = Pgpu_support.Stats

let fail fmt = Fmt.kstr failwith fmt

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type kind = Tune | Sim | Compile

type workload = {
  kind : kind;
  name : string;
  programs : string list;
  warmup : string;
      (** program of the untimed warm-up item run on every target during
          set-up; outside [programs] where the list leaves one *)
  nominal_pass_s : float;
      (** CPU of one pass on a 2-vCPU VM; [--seconds] divided by it,
          rounded, is the number of passes (at least one) *)
}

let benches = P.Rodinia.all @ P.Hecbench.all

let workloads =
  [
    (* TDO search: expansion, sampled trial launches, per-alternative
       fission on cpu; nw on rx6800 is the AMD shared-memory demotion site *)
    {
      kind = Tune;
      name = "tune";
      programs =
        [ "gaussian"; "lud"; "nbody"; "nw"; "pathfinder"; "matvec"; "bitonic"; "backprop";
          "myocyte"; "conv1d" ];
      warmup = "hotspot3D";
      nominal_pass_s = 13.;
    };
    (* compiled engine and Cpu_exec only: int-heavy (bfs, nw, pathfinder),
       fp/SFU-heavy (srad_v1, hotspot, lavaMD, softmax, nbody) and
       multi-launch host loops (gaussian, lud); cfd's NaN outputs stay in *)
    {
      kind = Sim;
      name = "sim";
      programs =
        [ "bfs"; "cfd"; "srad_v1"; "hotspot"; "lavaMD"; "gaussian"; "lud"; "nw"; "pathfinder";
          "softmax"; "nbody" ];
      warmup = "hotspot3D";
      nominal_pass_s = 13.;
    };
    (* expansion is ~99% of it; one process on purpose, so peak RSS shows
       the growth of the process-wide Alternatives memo tables *)
    {
      kind = Compile;
      name = "compile";
      programs = List.map (fun (b : Bench_def.t) -> b.Bench_def.name) benches;
      warmup = "srad_v1";
      nominal_pass_s = 10.;
    };
  ]

let targets = Experiments.obs_targets

let specs_of = function
  | Tune -> Experiments.obs_specs
  | Compile -> Experiments.composite_specs
  | Sim -> []

let find_bench name =
  match List.find_opt (fun (b : Bench_def.t) -> String.equal b.Bench_def.name name) benches with
  | Some b -> b
  | None -> fail "unknown program %S" name

(* ------------------------------------------------------------------ *)
(* Spans and per-layer counts (traced run only)                        *)
(* ------------------------------------------------------------------ *)

type span = {
  sid : int;
  sname : string;
  start : float;  (** process CPU seconds *)
  stop : float;
  parent : int;  (** enclosing span, -1 at top level *)
  item : string;  (** "program/target" *)
  replay : bool;
      (** extra work the untraced item does not do, run after the item;
          excluded when spans are summed against [pass_cpu_s] *)
}

let tracing = ref false
let spans : span list ref = ref []
let open_spans : int list ref = ref []
let next_sid = ref 0
let current_item = ref ""

(** Wrap one call into a layer's public function; [f ()] untraced. *)
let span ?(replay = false) name f =
  if not !tracing then f ()
  else begin
    let sid = !next_sid in
    incr next_sid;
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    open_spans := sid :: !open_spans;
    let start = Sys.time () in
    Fun.protect
      ~finally:(fun () ->
        open_spans := List.tl !open_spans;
        spans :=
          { sid; sname = name; start; stop = Sys.time (); parent; item = !current_item; replay }
          :: !spans)
      f
  end

let counts : (string, float) Hashtbl.t = Hashtbl.create 64

let add name v =
  if !tracing then
    Hashtbl.replace counts name (v +. Option.value ~default:0. (Hashtbl.find_opt counts name))

let addi name n = add name (float_of_int n)
let count name = Option.value ~default:0. (Hashtbl.find_opt counts name)

(** Summed CPU of the spans named [name]. *)
let span_cpu name =
  List.fold_left
    (fun acc s -> if String.equal s.sname name then acc +. (s.stop -. s.start) else acc)
    0. !spans

(* ------------------------------------------------------------------ *)
(* Output checks                                                       *)
(* ------------------------------------------------------------------ *)

type verdict = Verified | Unverified of string | Failed of string

(** The reference tolerance test [|e - a| <= tol (1 + |e|)] only decides
    between finite values: with a NaN on either side the comparison is
    false, so a NaN output would pass a [> tol] mismatch test vacuously.
    Where it cannot decide, the bits are compared, and an item with a
    non-finite output or reference is reported as unverified. *)
let check_outputs (b : Bench_def.t) args outputs =
  match outputs with
  | [] -> Failed "no output buffer"
  | got :: _ ->
      let expected = b.Bench_def.reference args in
      let got = Array.of_list got in
      let n = Array.length expected in
      if Array.length got <> n then Failed (Fmt.str "%d outputs, expected %d" (Array.length got) n)
      else begin
        let nonfinite = ref 0 and bad = ref None in
        Array.iteri
          (fun i e ->
            let a = got.(i) in
            let ok =
              if Float.is_finite e && Float.is_finite a then
                Float.abs (e -. a) <= b.Bench_def.tolerance *. (1. +. Float.abs e)
              else begin
                incr nonfinite;
                Int64.equal (Int64.bits_of_float e) (Int64.bits_of_float a)
              end
            in
            if (not ok) && Option.is_none !bad then
              bad := Some (Fmt.str "output %d: expected %h, got %h" i e a))
          expected;
        match !bad with
        | Some m -> Failed m
        | None when !nonfinite > 0 ->
            Unverified (Fmt.str "%d of %d values not finite, equal by bits" !nonfinite n)
        | None -> Verified
      end

(** A compile item has no execution to check: the module verifies inside
    [Pipeline.compile], and every kernel must report one candidate per
    spec with the identity configuration (the first spec) kept. *)
let check_compiled ~specs (c : P.compiled) =
  let kernels = c.P.report.Pipeline.kernels in
  let bad (k : Pipeline.kernel_report) =
    match k.Pipeline.candidates with
    | first :: _ when List.length k.Pipeline.candidates = List.length specs ->
        first.Alternatives.decision <> Alternatives.Kept
    | _ -> true
  in
  if kernels = [] then Failed "no kernel expanded"
  else
    match List.find_opt bad kernels with
    | Some k -> Failed (Fmt.str "kernel %s: identity candidate not kept" k.Pipeline.kernel)
    | None -> Verified

(* ------------------------------------------------------------------ *)
(* Machine-speed probe                                                 *)
(* ------------------------------------------------------------------ *)

(* Identical runs on a shared 2-vCPU VM vary by up to a third in
   process CPU: co-tenants slow the vCPU itself, not only steal
   wall-clock. A fixed probe run after every item samples that speed,
   and CPU times are reported rescaled to a machine on which one probe
   sample takes [probe_nominal_s]. The probe sorts a fixed array in
   place and allocates nothing, so its time depends on the machine, not
   on the heap or the collector work the code under test leaves.
   Contention slows the stack's heap-heavy code more than the
   cache-resident probe: over 60 runs of the three workloads,
   log(pass CPU) moved 1.09-1.40 times as far as log(probe time), so
   the rescaling uses that sensitivity, [probe_exponent]. *)
let probe_nominal_s = 0.011
let probe_exponent = 1.25

let probe_src = Array.init 4096 (fun i -> ((i * 7919) + 13) mod 10_007)
let probe_dst = Array.make 4096 0

(** CPU of every probe sample so far, and their number. *)
let probe_cpu = ref 0.

let probe_samples = ref 0

let probe () =
  let t0 = Sys.time () in
  for _ = 1 to 10 do
    Array.blit probe_src 0 probe_dst 0 4096;
    Array.sort Int.compare probe_dst
  done;
  probe_cpu := !probe_cpu +. (Sys.time () -. t0);
  incr probe_samples

(** The probe's reading since [(cpu0, n0)]: the factor that rescales a
    CPU time measured meanwhile to nominal speed, and the mean sample. *)
let speed_since (cpu0, n0) =
  let mean = (!probe_cpu -. cpu0) /. float_of_int (max 1 (!probe_samples - n0)) in
  ((probe_nominal_s /. mean) ** probe_exponent, mean)

let probe_mark () = (!probe_cpu, !probe_samples)

(* ------------------------------------------------------------------ *)
(* Items                                                               *)
(* ------------------------------------------------------------------ *)

type row = {
  program : string;
  target : string;
  cpu_s : float;  (** item CPU as measured *)
  composite : float option;  (** simulated composite seconds *)
  chosen : string list;  (** kernel:alternative pairs, in first-launch order *)
  kept : int;  (** kept candidates over all kernels *)
  verdict : verdict;
  winst : float;  (** warp instructions of committed launches *)
}

let op_count (m : Instr.modul) =
  let n = ref 0 in
  List.iter (fun f -> Instr.iter_deep (fun _ -> incr n) f.Instr.body) m.Instr.funcs;
  !n

let iter_wrappers f (m : Instr.modul) =
  List.iter
    (fun fn ->
      Instr.iter_deep (function Instr.Gpu_wrapper { wid; body; _ } -> f wid body | _ -> ()) fn.Instr.body)
    m.Instr.funcs

(** Every kernel region of a module: each alternative of a
    multi-versioned wrapper, or the plain wrapper body. *)
let kernel_regions m =
  let acc = ref [] in
  iter_wrappers
    (fun _ body ->
      match body with
      | [ Instr.Alternatives { regions; _ } ] -> acc := List.rev_append regions !acc
      | _ -> acc := body :: !acc)
    m;
  List.rev !acc

let chosen_of (c : P.compiled) (r : P.run_result) =
  let descs = ref [] in
  iter_wrappers
    (fun wid body ->
      match body with
      | [ Instr.Alternatives { descs = ds; _ } ] -> descs := (wid, ds) :: !descs
      | _ -> ())
    c.P.modul;
  List.fold_left
    (fun acc (l : Runtime.launch_record) ->
      let alt =
        match (l.Runtime.alternative, List.assoc_opt l.Runtime.wid !descs) with
        | Some k, Some ds -> List.nth ds k
        | Some k, None -> string_of_int k
        | None, _ -> "-"
      in
      let s = l.Runtime.kernel ^ ":" ^ alt in
      if List.mem s acc then acc else acc @ [ s ])
    [] r.P.records

let decision_key = function
  | Alternatives.Kept -> "kept"
  | Alternatives.Rejected_illegal _ -> "rejected.illegal"
  | Alternatives.Rejected_shmem _ -> "rejected.shmem"
  | Alternatives.Rejected_spill _ -> "rejected.spill"
  | Alternatives.Rejected_occupancy _ -> "rejected.occupancy"
  | Alternatives.Rejected_racy _ -> "rejected.racy"
  | Alternatives.Rejected_duplicate _ -> "rejected.duplicate"

let candidates (c : P.compiled) =
  List.concat_map (fun (k : Pipeline.kernel_report) -> k.Pipeline.candidates) c.P.report.Pipeline.kernels

(** [Polygeist_gpu.compile], split at the layer boundaries when traced:
    frontend, scalar pipeline, then [Pipeline.compile] without the
    scalar pipeline on its output. *)
let compile ~specs ~cache ~(target : Descriptor.t) source : P.compiled =
  if not !tracing then P.compile ~specs ~cache ~target ~source ()
  else begin
    let m = span "frontend" (fun () -> Pgpu_frontend.Frontend.compile_string source) in
    let ops = op_count m in
    addi "frontend.ops" ops;
    let m = span "transforms.scalar" (fun () -> Pipeline.scalar_pipeline m) in
    addi "transforms.scalar.ops_removed" (ops - op_count m);
    let opts =
      {
        (Pipeline.default_options target) with
        Pipeline.optimize = false;
        coarsen_specs = specs;
        cache;
      }
    in
    let modul, report = span "transforms.expand" (fun () -> Pipeline.compile opts m) in
    let c = { P.target; modul; report } in
    List.iter
      (fun (cand : Alternatives.candidate) ->
        addi "transforms.expand.candidates" 1;
        addi ("transforms.expand." ^ decision_key cand.Alternatives.decision) 1)
      (candidates c);
    c
  end

let gpusim_counts (r : P.run_result) =
  List.iter
    (fun (l : Runtime.launch_record) ->
      let c = l.Runtime.result.Pgpu_gpusim.Exec.counters in
      add "gpusim.winst" c.Counters.warp_insts;
      add "gpusim.blocks" c.Counters.blocks;
      add "load_sectors" c.Counters.load_sectors;
      add "l1_miss_sectors" c.Counters.l1_load_miss_sectors;
      add "l2_miss_sectors" c.Counters.l2_load_miss_sectors;
      add "dram_bytes" (Counters.dram_read_bytes c +. Counters.dram_write_bytes c))
    r.P.records;
  addi "runtime.launches" (List.length r.P.records)

(** The cold run, with a live tracer when traced: its [tdo:trial] and
    [tdo:choice] events count trials and trialed sites. At [jobs = 1]
    the tracer does not change the execution path. *)
let execute ~tune ~cache (c : P.compiled) args =
  if not !tracing then P.run ~tune ~cache c ~args
  else begin
    let tracer = Tracer.create () in
    let r = span "runtime.run" (fun () -> P.run ~tune ~cache ~tracer c ~args) in
    List.iter
      (function
        | Tracer.Instant { name = "tdo:trial"; _ } -> addi "runtime.tdo.trials" 1
        | Tracer.Instant { name = "tdo:choice"; args; _ } when not (List.mem_assoc "cached" args)
          ->
            addi "runtime.tdo.sites" 1
        | _ -> ())
      (Tracer.events tracer);
    let _, _, stores = Cache.ns_stats cache "tdo" in
    addi "cache.tdo.stores" stores;
    gpusim_counts r;
    r
  end

let bits (r : P.run_result) = List.map (List.map Int64.bits_of_float) r.P.outputs

(** Items whose warm rerun differed from the cold run. *)
let warm_mismatches : string list ref = ref []

(** (target, untuned / tuned simulated time) per tuned item. *)
let untuned_ratios : (string * float) list ref = ref []

(** Replays of the static layers on the compiled module. *)
let replay_static (c : P.compiled) =
  let regions = kernel_regions c.P.modul in
  span ~replay:true "target.analyze" (fun () ->
      List.iter (fun r -> ignore (Backend.analyze c.P.target r)) regions);
  addi "target.analyze.calls" (List.length regions);
  span ~replay:true "analysis.check" (fun () -> ignore (Pgpu_analysis.Check.check_modul c.P.modul));
  addi "analysis.check.regions" (List.length regions)

(** Replays after an executed item: barrier fission of the module on a
    CPU target, a warm rerun on the same cache (compared with the cold
    run bit for bit) and, for a tuned item, an untuned run. *)
let replay_run ~id ~tune ~cache (c : P.compiled) args (cold : P.run_result) =
  if c.P.target.Descriptor.kind = Descriptor.Cpu then begin
    let _, outcomes = span ~replay:true "cpu.fission" (fun () -> P.cpu_lower_modul c.P.modul) in
    List.iter
      (fun (_, o) ->
        addi (if Result.is_ok o then "cpu.fission.lowered" else "cpu.fission.refused") 1)
      outcomes
  end;
  let hits0 = Cache.hits cache ~ns:"tdo" in
  let warm = span ~replay:true "runtime.commit" (fun () -> P.run ~tune ~cache c ~args) in
  addi "cache.tdo.warm_hits" (Cache.hits cache ~ns:"tdo" - hits0);
  if
    not
      (span ~replay:true "cache.parity" (fun () ->
           Float.equal warm.P.composite_seconds cold.P.composite_seconds && bits warm = bits cold))
  then warm_mismatches := id :: !warm_mismatches;
  if tune then begin
    let untuned = span ~replay:true "tdo.untuned" (fun () -> P.run c ~args) in
    untuned_ratios :=
      (c.P.target.Descriptor.name, untuned.P.composite_seconds /. cold.P.composite_seconds)
      :: !untuned_ratios
  end

(** One item: the compile (from set-up on [sim]), the run and the
    check, then a probe sample and, when traced, the replays. *)
let run_item (w : workload) ~compiled (b : Bench_def.t) (target : Descriptor.t) : row =
  let id = b.Bench_def.name ^ "/" ^ target.Descriptor.name in
  current_item := id;
  let specs = specs_of w.kind and args = b.Bench_def.args and tune = w.kind = Tune in
  let t0 = Sys.time () in
  let cache = Cache.create () in
  let body () =
    match w.kind with
    | Compile ->
        let c = compile ~specs ~cache ~target b.Bench_def.source in
        (c, None, span "check" (fun () -> check_compiled ~specs c))
    | Tune | Sim ->
        let c =
          match compiled with
          | Some c -> c
          | None -> compile ~specs ~cache ~target b.Bench_def.source
        in
        let r = execute ~tune ~cache c args in
        (c, Some r, span "check" (fun () -> check_outputs b args r.P.outputs))
  in
  let outcome = try Ok (span "item" body) with e -> Error (Printexc.to_string e) in
  let cpu_s = Sys.time () -. t0 in
  probe ();
  let outcome =
    match outcome with
    | Ok (c, r, _) when !tracing -> (
        try
          if w.kind <> Sim then replay_static c;
          Option.iter (replay_run ~id ~tune ~cache c args) r;
          outcome
        with e -> Error ("replay: " ^ Printexc.to_string e))
    | _ -> outcome
  in
  let row =
    {
      program = b.Bench_def.name;
      target = target.Descriptor.name;
      cpu_s;
      composite = None;
      chosen = [];
      kept = 0;
      verdict = Failed "";
      winst = 0.;
    }
  in
  match outcome with
  | Error msg -> { row with verdict = Failed msg }
  | Ok (c, r, verdict) -> (
      let kept =
        List.length
          (List.filter
             (fun (cand : Alternatives.candidate) -> cand.Alternatives.decision = Alternatives.Kept)
             (candidates c))
      in
      let row = { row with kept; verdict } in
      match r with
      | None -> row
      | Some r ->
          {
            row with
            composite = Some r.P.composite_seconds;
            chosen = chosen_of c r;
            winst =
              List.fold_left
                (fun a (l : Runtime.launch_record) ->
                  a +. l.Runtime.result.Pgpu_gpusim.Exec.counters.Counters.warp_insts)
                0. r.P.records;
          })

(* ------------------------------------------------------------------ *)
(* Set-up and passes                                                   *)
(* ------------------------------------------------------------------ *)

(** One set-up: the item list, [sim]'s modules compiled without specs,
    and one untimed warm-up item per target. *)
let setup (w : workload) programs =
  let items =
    List.concat_map (fun p -> List.map (fun t -> (find_bench p, t)) targets) programs
  in
  let compiled =
    List.map
      (fun ((b : Bench_def.t), (t : Descriptor.t)) ->
        ( (b.Bench_def.name, t.Descriptor.name),
          match w.kind with
          | Sim -> Some (P.compile ~cache:(Cache.create ()) ~target:t ~source:b.Bench_def.source ())
          | Tune | Compile -> None ))
      items
  in
  let warmup = find_bench w.warmup in
  List.iter
    (fun t ->
      match run_item w ~compiled:None warmup t with
      | { verdict = Failed msg; _ } -> fail "warm-up %s/%s failed: %s" w.warmup t.Descriptor.name msg
      | _ -> ())
    targets;
  (items, compiled)

let setup_reps = 5

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match In_channel.input_line ic with
    | None -> fail "no VmHWM in /proc/self/status"
    | Some l when String.starts_with ~prefix:"VmHWM:" l ->
        Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | Some _ -> find ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let ratio a b = if b > 0. then a /. b else 0.

(* sorted first, so the result does not depend on the item order *)
let geomean = function [] -> 0. | l -> Stats.geomean (List.sort Float.compare l)

let median = function [] -> 0. | l -> Stats.median l

(** The per-layer metrics of a traced pass, in [BENCHMARK.json] order.
    CPU times are rescaled by the pass's probe [speed]; [untraced] is
    the (rescaled) [pass_cpu_s] of an untraced run of the same seed. *)
let per_layer ~(rows : row list) ~speed ~probe_mean ~cpu ~wall ~untraced ~gc0 ~gc1 ~memo0 ~memo1
    =
  let mh0, mm0 = memo0 and mh1, mm1 = memo1 in
  let memo_hits = float_of_int (mh1 - mh0) and memo_misses = float_of_int (mm1 - mm0) in
  let layer name = speed *. span_cpu name in
  let run_cpu = layer "runtime.run" and commit_cpu = layer "runtime.commit" in
  let spanned =
    speed
    *. List.fold_left
         (fun acc s -> if s.parent >= 0 then acc +. (s.stop -. s.start) else acc)
         0. !spans
  in
  let items_ms = List.map (fun r -> speed *. r.cpu_s *. 1e3) rows in
  let traced = List.fold_left ( +. ) 0. items_ms /. 1e3 in
  let winst = count "gpusim.winst" in
  let speedup t =
    geomean (List.filter_map (fun (t', x) -> if t = t' then Some x else None) !untuned_ratios)
  in
  let composites = List.filter_map (fun r -> r.composite) rows in
  let words_mb w = w *. 8. /. 1e6 in
  let counted name unit = (name, count name, unit) in
  [
    ("frontend.cpu_s", layer "frontend", "s");
    counted "frontend.ops" "count";
    ("transforms.scalar.cpu_s", layer "transforms.scalar", "s");
    counted "transforms.scalar.ops_removed" "count";
    ("transforms.expand.cpu_s", layer "transforms.expand", "s");
    counted "transforms.expand.candidates" "count";
    counted "transforms.expand.kept" "count";
    ( "transforms.expand.kept_ratio",
      ratio (count "transforms.expand.kept") (count "transforms.expand.candidates"),
      "ratio" );
  ]
  @ List.map
      (fun r -> counted ("transforms.expand.rejected." ^ r) "count")
      [ "illegal"; "shmem"; "spill"; "occupancy"; "racy"; "duplicate" ]
  @ [
      ("target.analyze.cpu_s", layer "target.analyze", "s");
      counted "target.analyze.calls" "count";
      ("analysis.check.cpu_s", layer "analysis.check", "s");
      counted "analysis.check.regions" "count";
      ("cpu.fission.cpu_s", layer "cpu.fission", "s");
      counted "cpu.fission.lowered" "count";
      counted "cpu.fission.refused" "count";
      ("runtime.run.cpu_s", run_cpu, "s");
      ("runtime.commit.cpu_s", commit_cpu, "s");
      ("runtime.tdo.cpu_s", run_cpu -. commit_cpu, "s");
      counted "runtime.tdo.sites" "count";
      counted "runtime.tdo.trials" "count";
      counted "runtime.launches" "count";
      ("gpusim.winst", winst, "winst");
      counted "gpusim.blocks" "count";
      ("gpusim.ns_per_winst", ratio (run_cpu *. 1e9) winst, "ns");
      ("gpusim.l1_hit_ratio", 1. -. ratio (count "l1_miss_sectors") (count "load_sectors"), "ratio");
      ( "gpusim.l2_hit_ratio",
        1. -. ratio (count "l2_miss_sectors") (count "l1_miss_sectors"),
        "ratio" );
      ("gpusim.dram_mb", count "dram_bytes" /. 1e6, "MB");
      ("cache.memo.hits", memo_hits, "count");
      ("cache.memo.misses", memo_misses, "count");
      ("cache.memo.hit_ratio", ratio memo_hits (memo_hits +. memo_misses), "ratio");
      counted "cache.tdo.stores" "count";
      counted "cache.tdo.warm_hits" "count";
      ("cache.warm_mismatch", float_of_int (List.length !warm_mismatches), "count");
      ("tdo.speedup.a100", speedup "a100", "ratio");
      ("tdo.speedup.rx6800", speedup "rx6800", "ratio");
      ("tdo.speedup.cpu", speedup "cpu", "ratio");
      ( "gc.minor_collections",
        float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections),
        "count" );
      ( "gc.major_collections",
        float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections),
        "count" );
      ("gc.promoted_mb", words_mb (gc1.Gc.promoted_words -. gc0.Gc.promoted_words), "MB");
      ("gc.top_heap_mb", words_mb (float_of_int gc1.Gc.top_heap_words), "MB");
      ("host.steal_s", wall -. cpu, "s");
      ("host.probe_ms", probe_mean *. 1e3, "ms");
      ("host.peak_rss_mb", peak_rss_mb (), "MB");
      ("item.p50_ms", median items_ms, "ms");
      ("item.max_ms", List.fold_left Float.max 0. items_ms, "ms");
      ("trace.overhead_share", ratio (traced -. untraced) untraced, "share");
      ("trace.unspanned_share", ratio (traced -. spanned) traced, "share");
      ("check.cpu_s", layer "check", "s");
      ( "check.unverified_items",
        float_of_int
          (List.length
             (List.filter (fun r -> match r.verdict with Unverified _ -> true | _ -> false) rows)),
        "count" );
      ("sim_composite_ms", geomean (List.map (fun s -> s *. 1e3) composites), "sim_ms");
      ("sim_winst_per_s", ratio (List.fold_left (fun a r -> a +. r.winst) 0. rows) traced, "winst/s");
    ]

(* ------------------------------------------------------------------ *)
(* Output files                                                        *)
(* ------------------------------------------------------------------ *)

let verdict_json = function
  | Verified -> Json.Str "verified"
  | Unverified m -> Json.Str ("unverified: " ^ m)
  | Failed m -> Json.Str ("failed: " ^ m)

let write_rows path ~speed (rows : row list) =
  Json.to_file path
    (Json.Obj
       [
         ("probe_speed", Json.Float speed);
         ( "rows",
           Json.List
             (List.map
                (fun r ->
                  Json.Obj
                    [
                      ("program", Json.Str r.program);
                      ("target", Json.Str r.target);
                      ("cpu_ms", Json.Float (r.cpu_s *. 1e3));
                      ( "composite_ms",
                        Option.fold ~none:Json.Null ~some:(fun s -> Json.Float (s *. 1e3)) r.composite
                      );
                      ("chosen", Json.List (List.map Json.str r.chosen));
                      ("kept", Json.Int r.kept);
                      ("verdict", verdict_json r.verdict);
                    ])
                rows) );
         ("warm_mismatch", Json.List (List.rev_map Json.str !warm_mismatches));
       ])

let write_spans path =
  Json.to_file path
    (Json.List
       (List.rev_map
          (fun s ->
            Json.Obj
              [
                ("id", Json.Int s.sid);
                ("name", Json.Str s.sname);
                ("start", Json.Float s.start);
                ("end", Json.Float s.stop);
                ("parent", Json.Int s.parent);
                ("item", Json.Str s.item);
                ("replay", Json.Bool s.replay);
              ])
          !spans))

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let usage =
  "main.exe --workload tune|sim|compile --seed N --seconds S --trace 0|1 \
   [--untraced-pass-cpu-s U] [--programs a,b,...] [--out DIR]"

let () =
  let init_cpu = Sys.time () in
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1) in
  let untraced = ref nan and programs = ref "" and out = ref ".perfbench" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME tune, sim or compile");
      ("--seed", Arg.Set_int seed, "N item-order shuffle seed");
      ("--seconds", Arg.Set_float seconds, "S measured CPU seconds (sets the pass count)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
      ( "--untraced-pass-cpu-s",
        Arg.Set_float untraced,
        "U pass_cpu_s of an untraced run of the same workload and seed (needed with --trace 1)" );
      ("--programs", Arg.Set_string programs, "LIST comma-separated subset of the workload's programs");
      ("--out", Arg.Set_string out, "DIR where rows and spans are written (default .perfbench)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match List.find_opt (fun w -> String.equal w.name !workload) workloads with
    | Some w -> w
    | None -> fail "unknown workload %S\n%s" !workload usage
  in
  if !seed < 0 || !seconds <= 0. || (!trace <> 0 && !trace <> 1) then fail "%s" usage;
  let traced = !trace = 1 in
  if traced && not (Float.is_finite !untraced && !untraced > 0.) then
    fail "--trace 1 needs --untraced-pass-cpu-s";
  let programs =
    match !programs with
    | "" -> w.programs
    | l ->
        let l = String.split_on_char ',' l in
        List.iter
          (fun p -> if not (List.mem p w.programs) then fail "%s is not in workload %s" p w.name)
          l;
        l
  in
  (* set-up is repeated and its median reported: one set-up is too
     short to repeat within its bound on a shared VM *)
  let setup_mark = probe_mark () in
  let reps =
    List.init setup_reps (fun _ ->
        let t0 = Sys.time () and p0 = !probe_cpu in
        let s = setup w programs in
        (Sys.time () -. t0 -. (!probe_cpu -. p0), s))
  in
  let setup_speed, _ = speed_since setup_mark in
  Fmt.epr "set-up CPU: init %.3f s, repetitions %a s, probe speed %.3f@." init_cpu
    Fmt.(list ~sep:(any " ") (fmt "%.3f"))
    (List.map fst reps) setup_speed;
  let setup_s = setup_speed *. (init_cpu +. median (List.map fst reps)) in
  let items, compiled = snd (List.nth reps (setup_reps - 1)) in
  let passes = max 1 (Float.to_int (Float.round (!seconds /. w.nominal_pass_s))) in
  let rng = Random.State.make [| !seed |] in
  let gc0 = Gc.quick_stat () and memo0 = Alternatives.memo_counters () in
  let pass_mark = probe_mark () in
  tracing := traced;
  let wall0 = Unix.gettimeofday () and cpu0 = Sys.time () in
  let rows =
    List.concat
      (List.init passes (fun _ ->
           List.map
             (fun ((b : Bench_def.t), (t : Descriptor.t)) ->
               run_item w ~compiled:(List.assoc (b.Bench_def.name, t.Descriptor.name) compiled) b t)
             (shuffle rng items)))
  in
  let cpu = Sys.time () -. cpu0 and wall = Unix.gettimeofday () -. wall0 in
  tracing := false;
  let gc1 = Gc.quick_stat () and memo1 = Alternatives.memo_counters () in
  let speed, probe_mean = speed_since pass_mark in
  let raw_pass = List.fold_left (fun a r -> a +. r.cpu_s) 0. rows in
  let failed = List.filter (fun r -> match r.verdict with Failed _ -> true | _ -> false) rows in
  let attempted = List.length rows in
  List.iter
    (fun r ->
      Fmt.epr "%-14s %-7s %9.1f ms  %12s  %-40s %s@." r.program r.target (r.cpu_s *. 1e3)
        (Option.fold ~none:"-" ~some:(fun s -> Fmt.str "%.6g ms" (s *. 1e3)) r.composite)
        (String.concat " " r.chosen)
        (match r.verdict with
        | Verified -> "ok"
        | Unverified m -> "unverified: " ^ m
        | Failed m -> "FAILED: " ^ m))
    rows;
  Fmt.epr "pass CPU %.3f s as measured, probe %.2f ms (speed %.3f), %d pass(es), wall %.3f s@."
    raw_pass (probe_mean *. 1e3) speed passes wall;
  if !warm_mismatches <> [] then
    Fmt.epr "cold/warm mismatch: %s@." (String.concat " " (List.rev !warm_mismatches));
  mkdir_p !out;
  let stem = Fmt.str "%s/%s-seed%d-trace%d" !out w.name !seed !trace in
  write_rows (stem ^ "-rows.json") ~speed rows;
  if traced then write_spans (stem ^ "-spans.json");
  let metrics =
    if traced then
      per_layer ~rows ~speed ~probe_mean ~cpu ~wall ~untraced:!untraced ~gc0 ~gc1 ~memo0 ~memo1
    else
      [
        ("setup_s", setup_s, "s");
        ("pass_cpu_s", speed *. raw_pass, "s");
        ("peak_heap_mb", float_of_int gc1.Gc.top_heap_words *. 8. /. 1e6, "MB");
        ( "ok_share",
          1. -. ratio (float_of_int (List.length failed)) (float_of_int attempted),
          "share" );
      ]
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (failed = []));
            ("attempted", Json.Int attempted);
            ("failed", Json.Int (List.length failed));
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (n, v, u) -> (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str u) ]))
                   metrics) );
          ]))

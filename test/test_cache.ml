(** Tests for the TDO choice store and what feeds it: the
    alpha-invariant structural hash that keys it (qcheck properties
    over the random-kernel generator), the persistent store,
    expansion's independence from any cache (same decisions, no region
    kept alive after a compile), parallel expansion determinism, and
    the cold/warm replay — a warm autotune run through a cache
    directory makes the cold run's choices with zero trial executions
    and bit-identical results, launch by launch, although the cold run
    adopts its winning trials where the warm run executes every
    commit. *)

open Pgpu_ir
module Cache = Pgpu_cache.Cache
module Json = Pgpu_trace.Json
module Tracer = Pgpu_trace.Tracer
module Pipeline = Pgpu_transforms.Pipeline
module Alternatives = Pgpu_transforms.Alternatives
module Runtime = Pgpu_runtime.Runtime
module Exec = Pgpu_gpusim.Exec
module Descriptor = Pgpu_target.Descriptor
module P = Pgpu_core.Polygeist_gpu
module RK = Test_random_kernels

(** First gpu_wrapper body of a module. *)
let wrapper_body (m : Instr.modul) =
  let r = ref None in
  List.iter
    (fun (f : Instr.func) ->
      Instr.iter_deep
        (fun i ->
          match i with
          | Instr.Gpu_wrapper { body; _ } when !r = None -> r := Some body
          | _ -> ())
        f.Instr.body)
    m.Instr.funcs;
  Option.get !r

(* ------------------------------------------------------------------ *)
(* Structural hashing properties                                       *)
(* ------------------------------------------------------------------ *)

let prop_hash_clone_invariant =
  QCheck.Test.make ~name:"hash is invariant under Clone.block" ~count:80 RK.arb_kdesc (fun d ->
      let b = wrapper_body (RK.build_module d) in
      Instr.hash_block b = Instr.hash_block (Clone.block b))

let prop_hash_mutation =
  QCheck.Test.make ~name:"hash changes under a single-op mutation" ~count:80 RK.arb_kdesc
    (fun d ->
      let b = wrapper_body (RK.build_module d) in
      let extra n = b @ [ Instr.Let (Value.fresh ~hint:"m" Types.I32, Instr.Const (Instr.Ci n)) ] in
      let m1 = extra 12345 and m2 = extra 54321 in
      Instr.hash_block b <> Instr.hash_block m1 && Instr.hash_block m1 <> Instr.hash_block m2)

(* two builds of the same description bind distinct free values (the
   host code around the wrapper is rebuilt); the hash canonicalizes
   frees by first use, so it is identical *)
let prop_closed_hash_rebuild_stable =
  QCheck.Test.make ~name:"closed hash is stable across rebuilds" ~count:40 RK.arb_kdesc
    (fun d ->
      let b1 = wrapper_body (RK.build_module d) in
      let b2 = wrapper_body (RK.build_module d) in
      Instr.hash_block b1 = Instr.hash_block b2)

(* ------------------------------------------------------------------ *)
(* Persistent store                                                    *)
(* ------------------------------------------------------------------ *)

(** A fresh temporary directory path (not yet created). *)
let temp_dir () =
  let f = Filename.temp_file "pgpu_cache" "" in
  Sys.remove f;
  f

let test_store_roundtrip () =
  let dir = temp_dir () in
  let j1 = Json.Obj [ ("x", Json.Float (1. /. 3.)); ("n", Json.Int 3) ] in
  let c = Cache.create ~dir () in
  Cache.add c ~ns:"stats" "k1" j1;
  Cache.add c ~ns:"tdo" "k2" (Json.Int 1);
  Alcotest.(check bool) "find before flush" true (Cache.find c ~ns:"stats" "k1" <> None);
  Cache.flush c;
  let c2 = Cache.create ~dir () in
  (match Cache.find c2 ~ns:"stats" "k1" with
  | Some j -> Alcotest.(check bool) "float-exact roundtrip" true (Json.equal j j1)
  | None -> Alcotest.fail "stats entry lost across processes");
  Alcotest.(check bool) "tdo entry persists" true (Cache.find c2 ~ns:"tdo" "k2" = Some (Json.Int 1));
  Alcotest.(check bool) "unknown key misses" true (Cache.find c2 ~ns:"tdo" "nope" = None);
  let h, m, _ = Cache.ns_stats c2 "tdo" in
  Alcotest.(check (pair int int)) "hit/miss counters" (1, 1) (h, m);
  (* the disabled cache is a silent no-op sink *)
  Cache.add Cache.disabled ~ns:"stats" "k" (Json.Int 0);
  Alcotest.(check bool) "disabled never finds" true
    (Cache.find Cache.disabled ~ns:"stats" "k" = None)

let test_store_corrupt () =
  let dir = temp_dir () in
  Sys.mkdir dir 0o755;
  let oc = open_out (Filename.concat dir "stats.json") in
  output_string oc "{ not json !";
  close_out oc;
  let c = Cache.create ~dir () in
  Alcotest.(check bool) "corrupt file starts empty" true (Cache.find c ~ns:"stats" "k" = None);
  Cache.add c ~ns:"stats" "k" (Json.Int 1);
  Cache.flush c;
  let c2 = Cache.create ~dir () in
  Alcotest.(check bool) "store recovers" true (Cache.find c2 ~ns:"stats" "k" = Some (Json.Int 1))

(* ------------------------------------------------------------------ *)
(* Atomic fresh ids across domains                                     *)
(* ------------------------------------------------------------------ *)

let test_atomic_fresh () =
  let ids = Array.make 8 [] in
  Pgpu_support.Pool.(run (get ())) ~jobs:4 8 (fun ~slot:_ i ->
      ids.(i) <- List.init 200 (fun _ -> (Value.fresh Types.I32).Value.id));
  let all = List.concat (Array.to_list ids) in
  Alcotest.(check int)
    "fresh value ids are unique across domains" (List.length all)
    (List.length (List.sort_uniq Int.compare all))

(* ------------------------------------------------------------------ *)
(* Cache-independent and parallel expansion                            *)
(* ------------------------------------------------------------------ *)

let simple_kdesc =
  { RK.nblocks = 6; bs = 32; steps = [ RK.Load_global RK.Gid; RK.Arith 0 ] }

(* expansion takes one path whatever the cache: a repeated identity
   spec is kept again, with the same statistics and the same module *)
let test_cache_independent () =
  let m = RK.build_module simple_kdesc in
  let compile cache =
    Pipeline.compile
      {
        (Pipeline.default_options Descriptor.a100) with
        Pipeline.coarsen_specs = Pipeline.specs_of_totals [ (1, 1); (1, 1); (2, 1) ];
        cache;
      }
      m
  in
  let m_on, r_on = compile (Cache.create ()) in
  let m_off, r_off = compile Cache.disabled in
  let cands (r : Pipeline.report) = (List.hd r.Pipeline.kernels).Pipeline.candidates in
  let decisions r =
    List.map
      (fun (c : Alternatives.candidate) ->
        Fmt.str "%a" Alternatives.pp_decision c.Alternatives.decision)
      (cands r)
  in
  Alcotest.(check (list string))
    "three kept with a cache" [ "kept"; "kept"; "kept" ] (decisions r_on);
  Alcotest.(check (list string)) "same decisions without" (decisions r_on) (decisions r_off);
  let stats r = List.map (fun (c : Alternatives.candidate) -> c.Alternatives.stats) (cands r) in
  Alcotest.(check bool) "same statistics" true (stats r_on = stats r_off);
  let hashes (m : Instr.modul) =
    List.map (fun (f : Instr.func) -> Instr.hash_block f.Instr.body) m.Instr.funcs
  in
  Alcotest.(check (list int)) "structurally equal modules" (hashes m_on) (hashes m_off)

(* a compile leaves nothing behind: once its result is dropped, no
   region of its alternatives is reachable, cache or not *)
let test_no_retention () =
  let source =
    In_channel.with_open_bin
      (List.find Sys.file_exists [ "../examples/vecadd.cu"; "examples/vecadd.cu" ])
      In_channel.input_all
  in
  let regions () =
    let c =
      P.compile ~cache:(Cache.create ()) ~target:Descriptor.a100
        ~specs:(P.specs_of_totals [ (1, 1); (2, 1); (1, 2) ])
        ~source ()
    in
    let found = ref [] in
    List.iter
      (fun (f : Instr.func) ->
        Instr.iter_deep
          (function Instr.Alternatives { regions; _ } -> found := regions @ !found | _ -> ())
          f.Instr.body)
      c.P.modul.Instr.funcs;
    let w = Weak.create (List.length !found) in
    List.iteri (fun k r -> Weak.set w k (Some r)) !found;
    w
  in
  let w = regions () in
  Alcotest.(check int) "three alternatives" 3 (Weak.length w);
  Gc.full_major ();
  let alive = List.length (List.filter (Weak.check w) (List.init (Weak.length w) Fun.id)) in
  Alcotest.(check int) "regions alive after the compile" 0 alive

let test_jobs_deterministic () =
  let compile jobs m =
    let opts =
      {
        (Pipeline.default_options Descriptor.a100) with
        Pipeline.coarsen_specs = Pipeline.specs_of_totals [ (1, 1); (2, 1); (1, 2); (4, 2) ];
        jobs;
      }
    in
    Pipeline.compile opts m
  in
  let m1, r1 = compile 1 (RK.build_module simple_kdesc) in
  let m4, r4 = compile 4 (RK.build_module simple_kdesc) in
  let summary (r : Pipeline.report) =
    List.map
      (fun (k : Pipeline.kernel_report) ->
        List.map
          (fun (c : Alternatives.candidate) ->
            (c.Alternatives.desc, Fmt.str "%a" Alternatives.pp_decision c.Alternatives.decision))
          k.Pipeline.candidates)
      r.Pipeline.kernels
  in
  Alcotest.(check bool) "same pruning decisions" true (summary r1 = summary r4);
  (* lud at the 11 composite configurations: every candidate passes the
     race gate, at jobs 4 on four worker slots, each with its own memo *)
  let lud jobs =
    Pgpu_support.Pool.override_domain_count (Some 4);
    Fun.protect
      ~finally:(fun () -> Pgpu_support.Pool.override_domain_count None)
      (fun () ->
        let b = P.Rodinia.find "lud" in
        (P.compile ~jobs ~specs:Pgpu_core.Experiments.composite_specs ~target:Descriptor.a100
           ~source:b.P.Bench_def.source ())
          .P.report)
  in
  let l1 = lud 1 and l4 = lud 4 in
  Alcotest.(check int) "lud: 11 candidates per kernel" 0
    (List.length
       (List.filter
          (fun (k : Pipeline.kernel_report) -> List.length k.Pipeline.candidates <> 11)
          l1.Pipeline.kernels));
  Alcotest.(check bool) "lud at 11 configs: same reports" true (summary l1 = summary l4);
  let run m =
    let config = { (Runtime.default_config Descriptor.a100) with Runtime.tune = true } in
    let results, st = Runtime.run config m [ Exec.UI simple_kdesc.RK.nblocks ] in
    (List.map Runtime.buffer_contents results, Runtime.composite_seconds st)
  in
  Alcotest.(check bool) "bit-identical run results" true (run m1 = run m4)

(* ------------------------------------------------------------------ *)
(* Cold/warm TDO replay through a cache directory                      *)
(* ------------------------------------------------------------------ *)

let count_events name tracer =
  List.length (List.filter (fun e -> Tracer.event_name e = name) (Tracer.events tracer))

(** A replayed program on a target: whether every block runs, and the
    [jobs] of its cold pass (the warm pass runs at 1). *)
type replay_row = { bench : string; target : Descriptor.t; functional : bool; cold_jobs : int }

let row ?(functional = true) ?(cold_jobs = 1) bench target = { bench; target; functional; cold_jobs }

(* lud, nw, pathfinder and conv1d compute a coarsened thread extent in
   the candidate region's own host prelude: the warm run, which makes
   no trials, must still lower each region as the cold commit did.
   Every launch of nbody and matvec runs at most [sample_blocks]
   blocks, so their cold passes adopt every winning trial; so do the
   timing-only row's. lud and gaussian adopt some winners and re-run
   others (13 of 19 and 21 of 38 sites adopted), so later launches
   start from adopted cache state. The cpu rows run in the [cpu] group
   ([test_warm_tdo_cpu]), the others here. *)
let replay_rows =
  List.concat_map
    (fun b -> List.map (row b) Descriptor.[ cpu; rx6800; a100 ])
    [ "lud"; "conv1d"; "gaussian"; "nbody"; "matvec" ]
  @ List.map (fun b -> row b Descriptor.cpu) [ "backprop"; "nw"; "pathfinder" ]
  @ [
      row "nn" Descriptor.a100;
      row ~functional:false "lud" Descriptor.rx6800;
      row ~cold_jobs:4 "gaussian" Descriptor.a100;
    ]

(* the events a commit emits, in order *)
let launch_events tracer =
  List.filter
    (function
      | Tracer.Span { cat = "kernel" | "memcpy"; _ } | Tracer.Instant { cat = "bottleneck"; _ } ->
          true
      | _ -> false)
    (Tracer.events tracer)

(* what a launch record holds but its stats and breakdown, which its
   seconds and bottleneck summarize *)
let launch_facts (l : Runtime.launch_record) =
  ( l.Runtime.kernel,
    l.Runtime.alternative,
    l.Runtime.result.Exec.counters,
    Int64.bits_of_float l.Runtime.seconds,
    l.Runtime.bottleneck )

(* each pass opens the cache directory afresh, as a new process would:
   the cold pass trials, stores every choice and adopts every winning
   trial that ran all its blocks; the warm pass answers every site from
   the file and executes every commit. Both must launch the same
   kernels with the same counters, seconds and bottlenecks, trace the
   same launches, and end with the same outputs and composite time. *)
let check_replay_rows ~on_cpu =
  let specs = P.specs_of_totals [ (1, 1); (4, 1); (1, 4); (2, 2) ] in
  List.iter
    (fun { bench; target; functional; cold_jobs } ->
      let b = try P.Rodinia.find bench with Failure _ -> P.Hecbench.find bench in
      let row =
        Fmt.str "%s on %s%s%s: " bench target.Descriptor.name
          (if functional then "" else ", timing-only")
          (if cold_jobs > 1 then Fmt.str ", cold at jobs %d" cold_jobs else "")
      in
      let dir = temp_dir () in
      let pass jobs =
        let cache = Cache.create ~dir () in
        let tracer = Tracer.create () in
        let c = P.compile ~specs ~target ~source:b.P.Bench_def.source () in
        let r =
          Pgpu_support.Pool.override_domain_count (Some jobs);
          Fun.protect
            ~finally:(fun () -> Pgpu_support.Pool.override_domain_count None)
            (fun () -> P.run ~tune:true ~functional ~jobs ~cache ~tracer c ~args:b.P.Bench_def.args)
        in
        let _, misses, _ = Cache.ns_stats cache "tdo" in
        (r, tracer, misses)
      in
      let cold, cold_trace, _ = pass cold_jobs in
      let warm, warm_trace, misses_warm = pass 1 in
      let trials = count_events "tdo:trial" and choices = count_events "tdo:choice" in
      Alcotest.(check bool) (row ^ "cold run executes trials") true (trials cold_trace > 0);
      Alcotest.(check int) (row ^ "warm run executes zero trials") 0 (trials warm_trace);
      Alcotest.(check int) (row ^ "warm run misses no site") 0 misses_warm;
      Alcotest.(check int)
        (row ^ "a choice is still committed per site")
        (choices cold_trace) (choices warm_trace);
      let choices (r : P.run_result) =
        List.map
          (fun (l : Runtime.launch_record) -> (l.Runtime.kernel, l.Runtime.alternative))
          r.P.records
      in
      Alcotest.(check bool) (row ^ "same TDO choices") true (choices cold = choices warm);
      List.iteri
        (fun i (c, w) ->
          if compare (launch_facts c) (launch_facts w) <> 0 then
            Alcotest.failf "%slaunch %d (%s) differs between the cold and the warm run" row i
              c.Runtime.kernel)
        (List.combine cold.P.records warm.P.records);
      Alcotest.(check bool) (row ^ "same launch and memcpy events") true
        (compare (launch_events cold_trace) (launch_events warm_trace) = 0);
      Alcotest.(check bool) (row ^ "bit-identical outputs") true (cold.P.outputs = warm.P.outputs);
      Alcotest.(check bool) (row ^ "bit-identical composite time") true
        (Float.equal cold.P.composite_seconds warm.P.composite_seconds);
      Alcotest.(check (array string)) (row ^ "the directory holds the store") [| "tdo.json" |]
        (Sys.readdir dir);
      Sys.remove (Filename.concat dir "tdo.json");
      Sys.rmdir dir)
    (List.filter
       (fun r -> Bool.equal on_cpu (String.equal r.target.Descriptor.name Descriptor.cpu.Descriptor.name))
       replay_rows)

let test_warm_tdo_golden () = check_replay_rows ~on_cpu:false
let test_warm_tdo_cpu () = check_replay_rows ~on_cpu:true

let suite =
  [
    ( "cache",
      [
        QCheck_alcotest.to_alcotest prop_hash_clone_invariant;
        QCheck_alcotest.to_alcotest prop_hash_mutation;
        QCheck_alcotest.to_alcotest prop_closed_hash_rebuild_stable;
        Alcotest.test_case "store: flush/reload roundtrip" `Quick test_store_roundtrip;
        Alcotest.test_case "store: corrupt file tolerated" `Quick test_store_corrupt;
        Alcotest.test_case "atomic fresh ids across domains" `Quick test_atomic_fresh;
        Alcotest.test_case "expansion is cache-independent" `Quick test_cache_independent;
        Alcotest.test_case "a compile retains no region" `Quick test_no_retention;
        Alcotest.test_case "parallel expansion is deterministic" `Quick test_jobs_deterministic;
        Alcotest.test_case "warm TDO cache: golden replay" `Quick test_warm_tdo_golden;
      ] );
  ]

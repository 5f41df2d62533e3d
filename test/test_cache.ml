(** Tests for the content-addressed caching layer: alpha-invariant
    structural hashing (qcheck properties over the random-kernel
    generator), the memo table and the persistent store, expansion's
    independence from any cache (same decisions, no region kept alive
    after a compile), parallel expansion determinism, and the
    warm-cache TDO golden property — a warm autotune run makes the cold
    run's choices with zero trial executions and bit-identical
    results. *)

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
  QCheck.Test.make ~name:"hash/equal are invariant under Clone.block" ~count:80 RK.arb_kdesc
    (fun d ->
      let b = wrapper_body (RK.build_module d) in
      let c = Clone.block b in
      Instr.hash_block b = Instr.hash_block c
      && Instr.hash_block ~closed:true b = Instr.hash_block ~closed:true c
      && Instr.equal_block b c)

let prop_hash_mutation =
  QCheck.Test.make ~name:"hash changes under a single-op mutation" ~count:80 RK.arb_kdesc
    (fun d ->
      let b = wrapper_body (RK.build_module d) in
      let extra n = b @ [ Instr.Let (Value.fresh ~hint:"m" Types.I32, Instr.Const (Instr.Ci n)) ] in
      let m1 = extra 12345 and m2 = extra 54321 in
      Instr.hash_block b <> Instr.hash_block m1
      && Instr.hash_block m1 <> Instr.hash_block m2
      && (not (Instr.equal_block b m1))
      && not (Instr.equal_block m1 m2))

let prop_equal_implies_hash =
  QCheck.Test.make ~name:"equal_block implies equal hash" ~count:40
    (QCheck.pair RK.arb_kdesc RK.arb_kdesc)
    (fun (d1, d2) ->
      let b1 = wrapper_body (RK.build_module d1) in
      let b2 = wrapper_body (RK.build_module d2) in
      (not (Instr.equal_block b1 b2)) || Instr.hash_block b1 = Instr.hash_block b2)

(* two builds of the same description bind distinct free values (the
   host code around the wrapper is rebuilt), so only the closed hash —
   which canonicalizes frees by first use — is identical *)
let prop_closed_hash_rebuild_stable =
  QCheck.Test.make ~name:"closed hash is stable across rebuilds" ~count:40 RK.arb_kdesc
    (fun d ->
      let b1 = wrapper_body (RK.build_module d) in
      let b2 = wrapper_body (RK.build_module d) in
      Instr.hash_block ~closed:true b1 = Instr.hash_block ~closed:true b2)

(* ------------------------------------------------------------------ *)
(* Memo table and persistent store                                     *)
(* ------------------------------------------------------------------ *)

let test_memo () =
  let m = Cache.Memo.create () in
  let calls = ref 0 in
  let compute () =
    incr calls;
    !calls * 10
  in
  let v1 = Cache.Memo.find_or_add m ~hash:7 ~equal:Int.equal 1 compute in
  let v2 = Cache.Memo.find_or_add m ~hash:7 ~equal:Int.equal 1 compute in
  Alcotest.(check int) "computed once" 1 !calls;
  Alcotest.(check int) "hit returns memoized value" v1 v2;
  (* a colliding hash with a different key is not a hit *)
  let v3 = Cache.Memo.find_or_add m ~hash:7 ~equal:Int.equal 2 compute in
  Alcotest.(check int) "collision recomputes" 20 v3

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
  Alcotest.(check bool) "structurally equal modules" true
    (List.for_all2
       (fun (f : Instr.func) (g : Instr.func) -> Instr.equal_block f.Instr.body g.Instr.body)
       m_on.Instr.funcs m_off.Instr.funcs)

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
(* Warm-cache TDO golden                                               *)
(* ------------------------------------------------------------------ *)

let count_events name tracer =
  List.length (List.filter (fun e -> Tracer.event_name e = name) (Tracer.events tracer))

let test_warm_tdo_golden () =
  let dir = temp_dir () in
  let b = P.Rodinia.find "nn" in
  let specs = P.specs_of_totals [ (1, 1); (4, 1); (1, 4); (2, 2) ] in
  (* each pass opens the cache directory afresh, as a new process
     would *)
  let pass () =
    let cache = Cache.create ~dir () in
    let tracer = Tracer.create () in
    let c = P.compile ~specs ~target:Descriptor.a100 ~source:b.P.Bench_def.source () in
    let r = P.run ~tune:true ~cache ~tracer c ~args:b.P.Bench_def.args in
    (r, count_events "tdo:trial" tracer, count_events "tdo:choice" tracer)
  in
  let r_cold, trials_cold, choices_cold = pass () in
  let r_warm, trials_warm, choices_warm = pass () in
  Alcotest.(check bool) "cold run executes trials" true (trials_cold > 0);
  Alcotest.(check int) "warm run executes zero trials" 0 trials_warm;
  Alcotest.(check int) "a choice is still committed per site" choices_cold choices_warm;
  let choices (r : P.run_result) =
    List.map
      (fun (l : Runtime.launch_record) -> (l.Runtime.kernel, l.Runtime.alternative))
      r.P.records
  in
  Alcotest.(check bool) "same TDO choices" true (choices r_cold = choices r_warm);
  Alcotest.(check bool) "bit-identical outputs" true (r_cold.P.outputs = r_warm.P.outputs);
  Alcotest.(check bool) "bit-identical composite time" true
    (Float.equal r_cold.P.composite_seconds r_warm.P.composite_seconds)

let suite =
  [
    ( "cache",
      [
        QCheck_alcotest.to_alcotest prop_hash_clone_invariant;
        QCheck_alcotest.to_alcotest prop_hash_mutation;
        QCheck_alcotest.to_alcotest prop_equal_implies_hash;
        QCheck_alcotest.to_alcotest prop_closed_hash_rebuild_stable;
        Alcotest.test_case "memo: find_or_add" `Quick test_memo;
        Alcotest.test_case "store: flush/reload roundtrip" `Quick test_store_roundtrip;
        Alcotest.test_case "store: corrupt file tolerated" `Quick test_store_corrupt;
        Alcotest.test_case "atomic fresh ids across domains" `Quick test_atomic_fresh;
        Alcotest.test_case "expansion is cache-independent" `Quick test_cache_independent;
        Alcotest.test_case "a compile retains no region" `Quick test_no_retention;
        Alcotest.test_case "parallel expansion is deterministic" `Quick test_jobs_deterministic;
        Alcotest.test_case "warm TDO cache: golden replay" `Quick test_warm_tdo_golden;
      ] );
  ]

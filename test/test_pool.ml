(** Persistent worker pool + domain-parallel determinism.

    Two nets:
    - unit tests of the pool itself: index-ordered results, lowest-index
      exception propagation, nested submissions running inline, slot
      bounds, and map/List.map agreement;
    - a qcheck property that the runtime picks identical TDO
      alternatives and produces identical outputs, counters and
      simulated times on random barrier kernels whatever the [jobs]
      setting and whether a tracer is attached ({1, 2, 4, 4 traced} x
      {a100, rx6800, cpu}), and that a traced run records the same
      events at every [jobs].

    The container running the tests may have a single core, which would
    make [Pool.effective_jobs] collapse every parallel request to
    sequential execution and the properties trivial — so the suite
    pretends four cores exist via [Pool.override_domain_count]
    (oversubscribed domains are slower but correct). *)

module Pool = Pgpu_support.Pool
module Frontend = Pgpu_frontend.Frontend
module Runtime = Pgpu_runtime.Runtime
module Exec = Pgpu_gpusim.Exec
module Descriptor = Pgpu_target.Descriptor
module Pipeline = Pgpu_transforms.Pipeline
module Tracer = Pgpu_trace.Tracer

(** Run [f] with the pool sized as if the machine had 4 cores. *)
let with_forced_cores f =
  Pool.override_domain_count (Some 4);
  Fun.protect ~finally:(fun () -> Pool.override_domain_count None) f

(* ------------------------------------------------------------------ *)
(* Pool unit tests                                                     *)
(* ------------------------------------------------------------------ *)

let test_map_order () =
  with_forced_cores @@ fun () ->
  let l = List.init 100 Fun.id in
  let got = Pool.map (Pool.get ()) ~jobs:4 (fun x -> x * x) l in
  Alcotest.(check (list int)) "map preserves index order" (List.map (fun x -> x * x) l) got

let test_run_covers_every_index () =
  with_forced_cores @@ fun () ->
  let n = 257 in
  let hits = Array.make n 0 in
  (* each index is claimed by exactly one worker via the cursor, so no
     cell is written twice and none is skipped *)
  Pool.run (Pool.get ()) ~jobs:4 n (fun ~slot:_ i -> hits.(i) <- hits.(i) + 1);
  Array.iteri
    (fun i c -> if c <> 1 then Alcotest.failf "index %d executed %d times" i c)
    hits

exception Boom of int

let test_lowest_index_exception () =
  with_forced_cores @@ fun () ->
  let raised =
    try
      Pool.run (Pool.get ()) ~jobs:4 64 (fun ~slot:_ i ->
          if i = 7 || i = 23 || i = 55 then raise (Boom i));
      None
    with Boom i -> Some i
  in
  Alcotest.(check (option int)) "lowest-index exception re-raised" (Some 7) raised

let test_nested_runs_inline () =
  with_forced_cores @@ fun () ->
  let inner_total = Atomic.make 0 in
  (* a batch submitted from inside a batch must run inline rather than
     deadlock waiting for the already-busy pool *)
  Pool.run (Pool.get ()) ~jobs:4 8 (fun ~slot:_ _ ->
      Pool.run (Pool.get ()) ~jobs:4 8 (fun ~slot:_ _ ->
          ignore (Atomic.fetch_and_add inner_total 1)));
  Alcotest.(check int) "all nested indices executed" 64 (Atomic.get inner_total)

let test_slot_bounds () =
  with_forced_cores @@ fun () ->
  let jobs = 3 in
  let bad = Atomic.make 0 in
  Pool.run (Pool.get ()) ~jobs 100 (fun ~slot _ ->
      if slot < 0 || slot >= jobs then ignore (Atomic.fetch_and_add bad 1));
  Alcotest.(check int) "every slot within [0, jobs)" 0 (Atomic.get bad)

let test_effective_jobs_cap () =
  Pool.override_domain_count (Some 2);
  Fun.protect ~finally:(fun () -> Pool.override_domain_count None) @@ fun () ->
  Alcotest.(check int) "capped at the domain count" 2 (Pool.effective_jobs 8);
  Alcotest.(check int) "never below 1" 1 (Pool.effective_jobs 0)

(* ------------------------------------------------------------------ *)
(* TDO parity: every job count, traced or not, agrees bit-for-bit      *)
(* ------------------------------------------------------------------ *)

type observation = {
  outputs : int64 list list;
  choices : (string * int option) list;
  counters : Pgpu_gpusim.Counters.t list;
  seconds : int64 list;  (** per-launch simulated seconds, bitwise *)
}

let observe ?(tracer = Tracer.disabled) (target : Descriptor.t) m ~nblocks ~jobs : observation =
  let opts =
    {
      (Pipeline.default_options target) with
      Pipeline.coarsen_specs = Pipeline.specs_of_totals [ (1, 1); (2, 1); (1, 2) ];
    }
  in
  let m', _ = Pipeline.compile opts m in
  let config = { (Runtime.default_config target) with Runtime.tune = true; jobs; tracer } in
  let results, st = Runtime.run config m' [ Exec.UI nblocks ] in
  let records = Runtime.records st in
  {
    outputs =
      List.map
        (fun r -> List.map Int64.bits_of_float (Runtime.buffer_contents r))
        results;
    choices =
      List.map (fun (l : Runtime.launch_record) -> (l.Runtime.kernel, l.Runtime.alternative)) records;
    counters =
      List.map (fun (l : Runtime.launch_record) -> l.Runtime.result.Exec.counters) records;
    seconds = List.map (fun (l : Runtime.launch_record) -> Int64.bits_of_float l.Runtime.seconds) records;
  }

let check_parity ~what (a : observation) (b : observation) =
  if a.outputs <> b.outputs then QCheck.Test.fail_reportf "%s: outputs differ" what;
  if a.choices <> b.choices then QCheck.Test.fail_reportf "%s: TDO choices differ" what;
  if a.counters <> b.counters then QCheck.Test.fail_reportf "%s: counters differ" what;
  if a.seconds <> b.seconds then QCheck.Test.fail_reportf "%s: simulated times differ" what

(** Kernels with at least one cross-thread shared-memory step, so TDO
    has real alternatives to weigh and the CPU target must fission. *)
let arb_barrier_kdesc =
  let open Test_random_kernels in
  QCheck.make
    ~print:(Fmt.str "%a" pp_kdesc)
    QCheck.Gen.(
      let* d = gen_kdesc in
      let* i = gen_idx in
      return { d with steps = (To_shared i :: d.steps) })

let prop_tdo_parity =
  QCheck.Test.make ~name:"parallel TDO = sequential TDO (choices, outputs, counters)"
    ~count:15 arb_barrier_kdesc (fun d ->
      with_forced_cores @@ fun () ->
      let m = Test_random_kernels.build_module d in
      let nblocks = d.Test_random_kernels.nblocks in
      List.iter
        (fun target ->
          let seq = observe target m ~nblocks ~jobs:1 in
          let seq_tracer = Tracer.create () in
          ignore (observe ~tracer:seq_tracer target m ~nblocks ~jobs:1);
          List.iter
            (fun (jobs, traced) ->
              let tracer = if traced then Tracer.create () else Tracer.disabled in
              let par = observe ~tracer target m ~nblocks ~jobs in
              let what =
                Fmt.str "%s at jobs=%d%s" target.Descriptor.name jobs
                  (if traced then ", traced" else "")
              in
              check_parity ~what seq par;
              if traced && compare (Tracer.events tracer) (Tracer.events seq_tracer) <> 0 then
                QCheck.Test.fail_reportf "%s: events differ from a traced jobs=1 run's" what)
            [ (2, false); (4, false); (4, true) ])
        [ Descriptor.a100; Descriptor.rx6800; Descriptor.cpu ];
      true)

(** CPU launches shard through the grid loop like GPU ones, each core
    touched by one shard: a multi-launch cpu program must give the
    same outputs, and every launch the same counters and simulated
    seconds, bitwise, at [jobs = 1] and [jobs = 4]. gaussian makes 254
    launches of two kernels untuned; lud is tuned over three
    configurations, so its trials shard on machine clones. *)
let test_cpu_jobs_parity () =
  with_forced_cores @@ fun () ->
  let module P = Pgpu_core.Polygeist_gpu in
  let observe name ~specs ~jobs =
    let r = P.run_rodinia ~specs ~jobs ~target:Descriptor.cpu (P.Rodinia.find name) in
    let bits = List.map Int64.bits_of_float in
    ( List.map bits r.P.outputs,
      List.map (fun (l : Runtime.launch_record) -> l.Runtime.result.Exec.counters) r.P.records,
      bits (List.map (fun (l : Runtime.launch_record) -> l.Runtime.seconds) r.P.records) )
  in
  List.iter
    (fun (name, specs) ->
      let out1, cnt1, sec1 = observe name ~specs ~jobs:1 in
      let out4, cnt4, sec4 = observe name ~specs ~jobs:4 in
      let check what ok = if not ok then Alcotest.failf "%s on cpu: %s differ at jobs 4" name what in
      check "outputs" (out1 = out4);
      check "launch counters" (cnt1 = cnt4);
      check "launch seconds" (sec1 = sec4))
    [ ("gaussian", []); ("lud", P.specs_of_totals [ (1, 1); (1, 2); (2, 2) ]) ]

let suite =
  [
    ( "pool",
      [
        Alcotest.test_case "map preserves order" `Quick test_map_order;
        Alcotest.test_case "run covers every index once" `Quick test_run_covers_every_index;
        Alcotest.test_case "lowest-index exception wins" `Quick test_lowest_index_exception;
        Alcotest.test_case "nested batches run inline" `Quick test_nested_runs_inline;
        Alcotest.test_case "slots stay within bounds" `Quick test_slot_bounds;
        Alcotest.test_case "effective_jobs caps at the core count" `Quick
          test_effective_jobs_cap;
        QCheck_alcotest.to_alcotest prop_tdo_parity;
        Alcotest.test_case "cpu launches shard bit for bit" `Quick test_cpu_jobs_parity;
      ] );
  ]

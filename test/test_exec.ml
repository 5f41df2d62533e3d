(** End-to-end tests of the GPU simulator: functional correctness of
    kernels run through the host runtime, plus the event counters
    (coalescing, divergence, shared-memory traffic) that drive the
    performance model. *)

open Pgpu_ir
open Pgpu_gpusim
module Descriptor = Pgpu_target.Descriptor

let ( !: ) = Alcotest.test_case

let f32 = Types.F32
let global_f32 = Types.Memref (Types.Global, f32)
let host_f32 = Types.Memref (Types.Host, f32)

let vecadd_module = Kernels.vecadd_module

let run_main ?(config = Pgpu_runtime.Runtime.default_config Descriptor.a100) m args =
  Pgpu_runtime.Runtime.run config m args

let test_vecadd_functional () =
  let m = vecadd_module () in
  Verify.check_exn m;
  let n = 1000 in
  let results, st = run_main m [ Exec.UI n ] in
  let got = Pgpu_runtime.Runtime.buffer_contents (List.hd results) in
  let a = Pgpu_runtime.Runtime.rand_array 11 n and b = Pgpu_runtime.Runtime.rand_array 22 n in
  let expected = List.init n (fun i -> a.(i) +. b.(i)) in
  Kernels.check_floats ~tol:1e-9 "vecadd" expected got;
  Alcotest.(check int) "one launch" 1 (List.length (Pgpu_runtime.Runtime.records st));
  Alcotest.(check bool) "composite time positive" true
    (Pgpu_runtime.Runtime.composite_seconds st > 0.)

(* a negative size is the host program's error, raised where it
   allocates, before any intrinsic fills the buffer *)
let test_vecadd_negative () =
  match run_main (vecadd_module ()) [ Exec.UI (-1) ] with
  | _ -> Alcotest.fail "vecadd at n = -1 ran"
  | exception Pgpu_runtime.Runtime.Host_error _ -> ()

(** One 32-thread block storing to element [tid] of an [n]-element
    global buffer without a tail guard, then copying [copy b n]
    elements of it back to the host. *)
let unguarded_module ~copy =
  let n = Value.fresh ~hint:"n" Types.I32 in
  let f =
    Builder.func "main" [ n ] [ host_f32 ] (fun b ->
        let h = Builder.alloc b Types.Host f32 n in
        let d = Builder.alloc b Types.Global f32 n in
        Builder.gpu_wrapper b "unguarded" (fun wb ->
            let c1 = Builder.const_i wb 1 and c32 = Builder.const_i wb 32 in
            ignore
              (Builder.parallel wb Instr.Blocks [ c1 ] (fun bb _ _ ->
                   ignore
                     (Builder.parallel bb Instr.Threads [ c32 ] (fun tb _ tivs ->
                          Builder.store tb d (List.hd tivs) (Builder.const_f tb 1.))))));
        Builder.add b (Instr.Memcpy { dst = h; src = d; count = copy b n });
        Builder.return b [ h ])
  in
  { Instr.funcs = [ f ] }

(* a kernel's access past the end of a buffer is a device error, and a
   host copy past it a host error, on either kind of target *)
let test_out_of_bounds () =
  List.iter
    (fun (target : Descriptor.t) ->
      let config = Pgpu_runtime.Runtime.default_config target in
      let name what = Fmt.str "%s: %s" target.Descriptor.name what in
      (match run_main ~config (unguarded_module ~copy:(fun _ n -> n)) [ Exec.UI 16 ] with
      | _ -> Alcotest.fail (name "the unguarded kernel ran")
      | exception Exec.Device_error _ -> ());
      let copy b n = Builder.add_ b n (Builder.const_i b 1) in
      match run_main ~config (unguarded_module ~copy) [ Exec.UI 32 ] with
      | _ -> Alcotest.fail (name "the long copy ran")
      | exception Pgpu_runtime.Runtime.Host_error _ -> ())
    [ Descriptor.a100; Descriptor.cpu ]

(* lud's closing diagonal launch is unconditional: at nt = 0 it reads
   the empty matrix at offset -16. That is a device error whether the
   launch is committed directly or every candidate of a TDO search
   faults *)
let test_lud_empty_faults () =
  let module P = Pgpu_core.Polygeist_gpu in
  let b = P.Rodinia.find "lud" in
  let specs = P.specs_of_totals [ (1, 1); (2, 2) ] in
  List.iter
    (fun tune ->
      let c = P.compile ~specs ~target:Descriptor.a100 ~source:b.P.Bench_def.source () in
      match P.run ~tune c ~args:[ 0 ] with
      | _ -> Alcotest.failf "lud at n = 0 ran (tune %b)" tune
      | exception Exec.Device_error _ -> ())
    [ false; true ]

(** Kernel [k] doubling the first [n] elements of a buffer, launched as
    [k<<<launch>>>]. *)
let launch_source launch =
  Fmt.str
    {|__global__ void k(float* a, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) a[i] = 2.0f * a[i];
}
float* main(int n) {
  float* h = (float*)malloc(n * sizeof(float));
  fill_rand(h, 3);
  float* d;
  cudaMalloc((void**)&d, n * sizeof(float));
  cudaMemcpy(d, h, n * sizeof(float), cudaMemcpyHostToDevice);
  k<<<%s>>>(d, n);
  cudaMemcpy(h, d, n * sizeof(float), cudaMemcpyDeviceToHost);
  return h;
}|}
    launch

(* a block the target cannot run is the committed launch's device
   error, as is a negative grid; an empty grid runs no block. Static
   pruning keeps only the baseline of the oversized block, so a tuned
   run commits it too *)
let test_launch_faults () =
  let module P = Pgpu_core.Polygeist_gpu in
  let specs = P.specs_of_totals [ (1, 1); (2, 1) ] in
  List.iter
    (fun (target : Descriptor.t) ->
      let compile launch = P.compile ~specs ~target ~source:(launch_source launch) () in
      List.iter
        (fun tune ->
          let what launch = Fmt.str "%s, <<<%s>>>, tune %b" target.Descriptor.name launch tune in
          let fault launch =
            match P.run ~tune (compile launch) ~args:[ 64 ] with
            | _ -> Alcotest.failf "%s ran" (what launch)
            | exception Exec.Device_error m -> m
          in
          Alcotest.(check string) (what "1, 2048")
            "kernel k: block size exceeds the target's thread limit" (fault "1, 2048");
          Alcotest.(check string) (what "-3, 32") "kernel k: grid with a negative extent (-3)"
            (fault "-3, 32");
          let r = P.run ~tune (compile "0, 32") ~args:[ 64 ] in
          Alcotest.(check (list int)) (what "0, 32") [ 0 ]
            (List.map
               (fun (l : Pgpu_runtime.Runtime.launch_record) -> l.result.Exec.nblocks)
               r.P.records))
        [ false; true ])
    [ Descriptor.a100; Descriptor.cpu ]

(** [main] launching kernel [outer], whose region launches kernel
    [inner] from its host code before its own grid: a nest no verified
    module holds. With [alternatives], the nest is the first of two
    alternatives regions, the second a plain grid. *)
let nested_launch_module ~alternatives =
  let n = Value.fresh ~hint:"n" Types.I32 in
  let f =
    Builder.func "main" [ n ] [ host_f32 ] (fun b ->
        let h = Builder.alloc b Types.Host f32 n in
        let d = Builder.alloc b Types.Global f32 n in
        let grid rb =
          let c1 = Builder.const_i rb 1 and c32 = Builder.const_i rb 32 in
          ignore
            (Builder.parallel rb Instr.Blocks [ c1 ] (fun bb _ _ ->
                 ignore
                   (Builder.parallel bb Instr.Threads [ c32 ] (fun tb _ tivs ->
                        Builder.store tb d (List.hd tivs) (Builder.const_f tb 1.)))))
        in
        let region nested =
          let rb = Builder.create () in
          if nested then Builder.gpu_wrapper rb "inner" grid;
          grid rb;
          Builder.finish rb
        in
        Builder.gpu_wrapper b "outer" (fun wb ->
            if alternatives then
              Builder.add wb
                (Instr.Alternatives
                   {
                     aid = Instr.fresh_region_id ();
                     descs = [ "nested"; "plain" ];
                     regions = [ region true; region false ];
                   })
            else List.iter (Builder.add wb) (region true));
        Builder.add b (Instr.Memcpy { dst = h; src = d; count = n });
        Builder.return b [ h ])
  in
  { Instr.funcs = [ f ] }

(* a kernel region that launches a kernel is the host program's error
   when it runs, untuned and in a trial of a parallel search *)
let test_nested_launch_fails () =
  let module Runtime = Pgpu_runtime.Runtime in
  let untuned = Runtime.default_config Descriptor.a100 in
  List.iter
    (fun (what, alternatives, config) ->
      match run_main ~config (nested_launch_module ~alternatives) [ Exec.UI 32 ] with
      | _ -> Alcotest.failf "%s: the nested launch ran" what
      | exception Runtime.Host_error m ->
          Alcotest.(check string) what "kernel outer launches kernel inner from its region" m)
    [
      ("untuned", false, untuned);
      ("tuned at jobs 2", true, { untuned with Runtime.tune = true; jobs = 2 });
    ]

let test_vecadd_tail_guard () =
  (* n = 1 exercises a grid of one block with 255 masked lanes *)
  let m = vecadd_module () in
  let results, _ = run_main m [ Exec.UI 1 ] in
  let got = Pgpu_runtime.Runtime.buffer_contents (List.hd results) in
  let a = Pgpu_runtime.Runtime.rand_array 11 1 and b = Pgpu_runtime.Runtime.rand_array 22 1 in
  Kernels.check_floats ~tol:1e-9 "vecadd n=1" [ a.(0) +. b.(0) ] got

(* an empty buffer's backing array holds one padding element: fills
   must not reach it and reads must not return it *)
let test_zero_length_buffers () =
  List.iter
    (fun elt ->
      let b = Memory.alloc (Memory.allocator ()) Types.Global elt 0 in
      Memory.fill_f b (fun k -> Alcotest.failf "fill_f wrote element %d" k);
      Memory.fill_i b (fun k -> Alcotest.failf "fill_i wrote element %d" k);
      Alcotest.(check (list (float 0.)))
        (Types.to_string elt ^ " reads back empty")
        [] (Memory.to_float_list b))
    [ Types.F32; Types.I32 ]

let test_vecadd_empty () =
  let module P = Pgpu_core.Polygeist_gpu in
  let source =
    In_channel.with_open_bin
      (List.find Sys.file_exists [ "../examples/vecadd.cu"; "examples/vecadd.cu" ])
      In_channel.input_all
  in
  List.iter
    (fun (target : Descriptor.t) ->
      let r = P.run (P.compile ~target ~source ()) ~args:[ 0 ] in
      Alcotest.(check (list (list (float 0.)))) target.Descriptor.name [ [] ] r.P.outputs)
    [ Descriptor.a100; Descriptor.cpu ]

let test_reduce_functional () =
  let m = Kernels.reduce_module () in
  Verify.check_exn m;
  let nb = 5 in
  let results, st = run_main m [ Exec.UI nb ] in
  let got = Pgpu_runtime.Runtime.buffer_contents (List.hd results) in
  let expected = Kernels.reduce_expected nb in
  Kernels.check_floats ~tol:1e-6 "reduce" expected got;
  (* shared memory traffic and barriers must have been observed *)
  let r = List.hd (Pgpu_runtime.Runtime.records st) in
  let c = r.Pgpu_runtime.Runtime.result.Exec.counters in
  Alcotest.(check bool) "barriers observed" true (c.Counters.barriers > 0.);
  Alcotest.(check bool) "shared loads observed" true (c.Counters.shared_load_req > 0.)

(** Launch the grid-level parallel [p] on [machine] through the
    compiled engine, as the runtime does. *)
let launch machine ~mode ~env p =
  Exec.run_grid machine ~mode ~env p (Compile.runner (Compile.compile p) ~env)

(** Direct launches for counter-level checks. *)
let direct_launch ?(target = Descriptor.a100) ~nblocks ~nthreads body_fn =
  let machine = Exec.create_machine target in
  let env = Exec.env_create () in
  let b = Builder.create () in
  let gb = Builder.const_i b nblocks in
  let tb = Builder.const_i b nthreads in
  ignore
    (Builder.parallel b Instr.Blocks [ gb ] (fun bb _ bivs ->
         ignore
           (Builder.parallel bb Instr.Threads [ tb ] (fun ib tpid tivs ->
                body_fn ib tpid (List.hd bivs) (List.hd tivs)))));
  let block = Builder.finish b in
  (* evaluate the leading constants on the host side *)
  let rec setup = function
    | [ (Instr.Parallel _ as p) ] -> p
    | Instr.Let (v, Instr.Const (Instr.Ci n)) :: rest ->
        Exec.bind env v (Exec.UI n);
        setup rest
    | _ -> Alcotest.fail "unexpected setup shape"
  in
  let p = setup block in
  launch machine ~mode:`All ~env p

let test_coalescing () =
  let alloc = Memory.allocator () in
  let buf = Memory.alloc alloc Types.Global Types.F32 (256 * 32) in
  let mk stride =
    direct_launch ~nblocks:1 ~nthreads:256 (fun ib _ _ tid ->
        let c = Builder.const_i ib stride in
        let i = Builder.mul_ ib tid c in
        ignore (Builder.load ib (Value.fresh ~hint:"buf" global_f32) i) |> ignore)
  in
  ignore mk;
  (* cannot capture the buffer through a fresh value; bind explicitly *)
  let run target stride =
    let machine = Exec.create_machine target in
    let env = Exec.env_create () in
    let bufv = Value.fresh ~hint:"buf" global_f32 in
    Exec.bind env bufv (Exec.UB buf);
    let b = Builder.create () in
    let g1 = Builder.const_i b 1 in
    let t256 = Builder.const_i b 256 in
    ignore
      (Builder.parallel b Instr.Blocks [ g1 ] (fun bb _ _ ->
           ignore
             (Builder.parallel bb Instr.Threads [ t256 ] (fun ib _ tivs ->
                  let tid = List.hd tivs in
                  let c = Builder.const_i ib stride in
                  let i = Builder.mul_ ib tid c in
                  let v = Builder.load ib bufv i in
                  Builder.store ib bufv i v))));
    let rec setup = function
      | [ (Instr.Parallel _ as p) ] -> p
      | Instr.Let (v, Instr.Const (Instr.Ci n)) :: rest ->
          Exec.bind env v (Exec.UI n);
          setup rest
      | _ -> Alcotest.fail "unexpected shape"
    in
    let p = setup (Builder.finish b) in
    (launch machine ~mode:`All ~env p).Exec.counters
  in
  let unit_stride = run Descriptor.a100 1 and strided = run Descriptor.a100 32 in
  (* 256 consecutive f32 = 32 sectors; stride-32 touches one sector per lane *)
  Alcotest.(check (float 0.1)) "coalesced load sectors" 32. unit_stride.Counters.load_sectors;
  Alcotest.(check (float 0.1)) "strided load sectors" 256. strided.Counters.load_sectors;
  Alcotest.(check (float 0.1)) "requests equal" unit_stride.Counters.global_load_req
    strided.Counters.global_load_req;
  (* one-lane warps: every lane is a request of one sector; 1 KiB of
     unit-stride loads fills 16 of the cpu's 64 B L1 lines and 16 of
     its L2-slice lines (a CPU's slices have the core's line size),
     and the stores that follow hit the slice; at stride 32 (128 B)
     every lane opens a line of each *)
  let unit_stride = run Descriptor.cpu 1 and strided = run Descriptor.cpu 32 in
  let check what expected got = Alcotest.(check (float 0.1)) ("cpu: " ^ what) expected got in
  check "load requests" 256. unit_stride.Counters.global_load_req;
  check "store requests" 256. unit_stride.Counters.global_store_req;
  check "load sectors" 256. unit_stride.Counters.load_sectors;
  check "L1 load misses" 16. unit_stride.Counters.l1_load_miss_sectors;
  check "L2 load misses" 16. unit_stride.Counters.l2_load_miss_sectors;
  check "L2 store misses" 0. unit_stride.Counters.l2_store_miss_sectors;
  check "strided L1 load misses" 256. strided.Counters.l1_load_miss_sectors;
  check "strided L2 load misses" 256. strided.Counters.l2_load_miss_sectors

let test_divergence_counter () =
  let r =
    direct_launch ~nblocks:1 ~nthreads:64 (fun ib _ _ tid ->
        let c16 = Builder.const_i ib 16 in
        let cond = Builder.cmp ib Ops.Lt tid c16 in
        ignore
          (Builder.if_ ib cond [ Types.I32 ]
             (fun b -> [ Builder.add_ b tid tid ])
             (fun b -> [ Builder.mul_ b tid tid ])))
  in
  (* warp 0 diverges (lanes 0-15 vs 16-31); warp 1 does not *)
  Alcotest.(check (float 0.1)) "one divergent warp" 1. r.Exec.counters.Counters.divergent_branches

let test_partial_warp_lanes () =
  let r =
    direct_launch ~nblocks:4 ~nthreads:16 (fun ib _ _ tid -> ignore (Builder.add_ ib tid tid))
  in
  Alcotest.(check int) "threads per block observed" 16 r.Exec.threads_per_block;
  Alcotest.(check int) "nblocks" 4 r.Exec.nblocks;
  (* each add issues 1 warp inst per block with 16 active lanes *)
  Alcotest.(check bool) "lanes counted" true (r.Exec.counters.Counters.lane_int >= 4. *. 16.)

(** A 256-thread kernel over 1 024 elements, then a kernel whose
    128-thread loop sits under a block-level [if] that no launched
    block takes (no block id reaches the grid size). *)
let untaken_threads_module () =
  let n = Value.fresh ~hint:"n" Types.I32 in
  let store_in b d bid width x =
    ignore
      (Builder.parallel b Instr.Threads [ width ] (fun tb _ tivs ->
           let i = Builder.add_ tb (Builder.mul_ tb bid width) (List.hd tivs) in
           Builder.store tb d i (Builder.const_f tb x)))
  in
  let f =
    Builder.func "main" [ n ] [ host_f32 ] (fun b ->
        let h = Builder.alloc b Types.Host f32 n in
        let d = Builder.alloc b Types.Global f32 n in
        Builder.add b (Instr.Memcpy { dst = d; src = h; count = n });
        Builder.gpu_wrapper b "wide" (fun wb ->
            let c256 = Builder.const_i wb 256 in
            let grid = Builder.div_ wb n c256 in
            ignore
              (Builder.parallel wb Instr.Blocks [ grid ] (fun bb _ bivs ->
                   store_in bb d (List.hd bivs) c256 1.)));
        Builder.gpu_wrapper b "untaken" (fun wb ->
            let c128 = Builder.const_i wb 128 in
            let grid = Builder.div_ wb n c128 in
            ignore
              (Builder.parallel wb Instr.Blocks [ grid ] (fun bb _ bivs ->
                   let bid = List.hd bivs in
                   let taken = Builder.cmp bb Ops.Ge bid grid in
                   Builder.if0 bb taken (fun ib -> store_in ib d bid c128 2.))));
        Builder.add b (Instr.Memcpy { dst = h; src = d; count = n });
        Builder.return b [ h ])
  in
  { Instr.funcs = [ f ] }

(** A launch whose blocks reach no thread-level parallel reports its
    static block size, not the thread count of the launch before it. *)
let test_untaken_threads () =
  let m = untaken_threads_module () in
  Verify.check_exn m;
  List.iter
    (fun (target : Descriptor.t) ->
      let config = Pgpu_runtime.Runtime.default_config target in
      let _, st = run_main ~config m [ Exec.UI 1024 ] in
      let threads =
        List.map
          (fun (r : Pgpu_runtime.Runtime.launch_record) ->
            r.Pgpu_runtime.Runtime.result.Exec.threads_per_block)
          (Pgpu_runtime.Runtime.records st)
      in
      Alcotest.(check (list int)) (target.Descriptor.name ^ ": threads per block") [ 256; 128 ]
        threads)
    [ Descriptor.a100; Descriptor.rx6800; Descriptor.cpu ]

let test_sampled_launch_scales () =
  let full =
    direct_launch ~nblocks:64 ~nthreads:32 (fun ib _ _ tid -> ignore (Builder.add_ ib tid tid))
  in
  let machine = Exec.create_machine Descriptor.a100 in
  let env = Exec.env_create () in
  let b = Builder.create () in
  let g = Builder.const_i b 64 in
  let t = Builder.const_i b 32 in
  ignore
    (Builder.parallel b Instr.Blocks [ g ] (fun bb _ _ ->
         ignore
           (Builder.parallel bb Instr.Threads [ t ] (fun ib _ tivs ->
                ignore (Builder.add_ ib (List.hd tivs) (List.hd tivs))))));
  let rec setup = function
    | [ (Instr.Parallel _ as p) ] -> p
    | Instr.Let (v, Instr.Const (Instr.Ci n)) :: rest ->
        Exec.bind env v (Exec.UI n);
        setup rest
    | _ -> Alcotest.fail "unexpected shape"
  in
  let p = setup (Builder.finish b) in
  let sampled = launch machine ~mode:(`Sample 8) ~env p in
  let rel a b = Float.abs (a -. b) /. Float.max 1. b in
  Alcotest.(check bool) "scaled warp insts match full run" true
    (rel sampled.Exec.counters.Counters.warp_insts full.Exec.counters.Counters.warp_insts < 0.05)

let test_bank_conflicts () =
  (* 32 threads reading stride-32 words hit one bank: 32 replays; the
     unit-stride pattern is conflict-free *)
  let run target stride =
    let r =
      direct_launch ~target ~nblocks:1 ~nthreads:32 (fun ib tpid _ tid ->
          ignore tpid;
          let smem = Builder.alloc_shared ib Types.F32 1024 in
          let c = Builder.const_i ib stride in
          let i = Builder.mul_ ib tid c in
          let v = Builder.load ib smem i in
          Builder.store ib smem i v)
    in
    r.Exec.counters.Counters.shared_transactions
  in
  let unit_stride = run Descriptor.a100 1 and conflicted = run Descriptor.a100 32 in
  Alcotest.(check (float 0.1)) "unit stride: 2 transactions" 2. unit_stride;
  Alcotest.(check (float 0.1)) "stride 32: 64 replayed transactions" 64. conflicted;
  (* a one-lane warp never replays: one transaction per lane access *)
  Alcotest.(check (float 0.1)) "cpu, unit stride: 64 transactions" 64. (run Descriptor.cpu 1);
  Alcotest.(check (float 0.1)) "cpu, stride 32: 64 transactions" 64. (run Descriptor.cpu 32)

let test_barrier_divergence_detected () =
  Alcotest.check_raises "barrier under divergence"
    (Exec.Device_error "barrier divergence: 16 of 64 lanes active") (fun () ->
      ignore
        (direct_launch ~nblocks:1 ~nthreads:64 (fun ib tpid _ tid ->
             let c16 = Builder.const_i ib 16 in
             let cond = Builder.cmp ib Ops.Lt tid c16 in
             Builder.if0 ib cond (fun bb -> Builder.barrier bb tpid))))

(* ------------------------------------------------------------------ *)
(* Differential property: compiled engine vs the tree-walker           *)
(* ------------------------------------------------------------------ *)

(** Random barrier-bearing kernels must behave identically on the
    slot-indexed compiled engine and on the reference interpreter
    ({!Interp}) on every target class — NVIDIA and AMD launch geometries plus the
    barrier-fission CPU backend: bit-identical output buffers,
    identical event counters per launch, and the same simulated time. *)
let arb_engine_kdesc =
  let open Test_random_kernels in
  QCheck.make
    ~print:(Fmt.str "%a" pp_kdesc)
    QCheck.Gen.(
      let* d = gen_kdesc in
      let* i = gen_idx in
      (* guarantee at least one barrier so lane masks, shared memory
         and (on cpu) fission epochs are all exercised *)
      return { d with steps = To_shared i :: d.steps })

let prop_engines_agree =
  QCheck.Test.make ~name:"engines: compiled matches interp bitwise" ~count:40
    arb_engine_kdesc (fun d ->
      let m = Test_random_kernels.build_module d in
      Verify.check_exn m;
      let run ?reference target =
        let config = { (Pgpu_runtime.Runtime.default_config target) with jobs = 2 } in
        let results, st =
          Pgpu_runtime.Runtime.run ?reference config m [ Exec.UI d.Test_random_kernels.nblocks ]
        in
        let outputs =
          List.map
            (fun r ->
              List.map Int64.bits_of_float (Pgpu_runtime.Runtime.buffer_contents r))
            results
        in
        let counters =
          List.map
            (fun (r : Pgpu_runtime.Runtime.launch_record) ->
              r.Pgpu_runtime.Runtime.result.Exec.counters)
            (Pgpu_runtime.Runtime.records st)
        in
        (outputs, counters, Pgpu_runtime.Runtime.composite_seconds st)
      in
      List.for_all
        (fun (target : Descriptor.t) ->
          let oi, ci, ti = run ~reference:Interp.runner target in
          let oc, cc, tc = run target in
          if oi <> oc then
            QCheck.Test.fail_reportf "%s: outputs differ between engines"
              target.Descriptor.name;
          if ci <> cc then
            QCheck.Test.fail_reportf "%s: launch counters differ between engines"
              target.Descriptor.name;
          if not (Float.equal ti tc) then
            QCheck.Test.fail_reportf "%s: composite time differs: %h vs %h"
              target.Descriptor.name ti tc;
          true)
        [ Descriptor.a100; Descriptor.rx6800; Descriptor.cpu ])

(* ------------------------------------------------------------------ *)
(* Copy-on-write cache clones                                           *)
(* ------------------------------------------------------------------ *)

(** A geometry with few sets (so streams conflict), four address
    streams over a window of three cache sizes, and whether the first
    clone is reset before its stream. *)
let arb_cache_streams =
  let gen =
    let open QCheck.Gen in
    let* ways = int_range 1 16
    and* line = oneofl [ 32; 48; 64; 96; 128 ]
    and* sets = int_range 1 6 in
    let size = sets * ways * line in
    let stream = list_size (int_range 0 120) (int_range 0 ((3 * size) - 1)) in
    let+ streams = list_repeat 4 stream and+ reset = bool in
    ((size, line, ways), streams, reset)
  in
  QCheck.make
    ~print:(fun ((size, line, ways), streams, reset) ->
      Fmt.str "%d B, %d B lines, %d ways, reset %b | %a" size line ways reset
        Fmt.(list ~sep:(any " | ") (Dump.list int))
        streams)
    gen

(** A clone must answer every probe, and end with the hit/miss counts,
    of a fresh cache replaying its source's history followed by its own
    stream — and so must a clone of a clone; the source, driven once
    its clones are done, must be untouched by them. *)
let prop_cache_clone =
  QCheck.Test.make ~name:"cache: clones replay like a fresh cache" ~count:300 arb_cache_streams
    (fun ((size_bytes, line_bytes, ways), streams, reset) ->
      let s1, s2, s3, s4 =
        match streams with [ a; b; c; d ] -> (a, b, c, d) | _ -> assert false
      in
      let drive c s = List.map (Cache.access c) s in
      (* a fresh cache driven with [first] (then reset when
         [reset_first]) and each stream of [rest] in turn; its answers
         to the last one *)
      let replay ?(reset_first = false) first rest =
        let r = Cache.create ~size_bytes ~line_bytes ~ways in
        ignore (drive r first);
        if reset_first then Cache.reset r;
        (r, List.fold_left (fun _ s -> drive r s) [] rest)
      in
      let same what (c : Cache.t) answers (r, expected) =
        if answers <> expected then QCheck.Test.fail_reportf "%s: hit/miss answers differ" what;
        if c.Cache.hits <> r.Cache.hits || c.Cache.misses <> r.Cache.misses then
          QCheck.Test.fail_reportf "%s: %d/%d hits/misses, expected %d/%d" what c.Cache.hits
            c.Cache.misses r.Cache.hits r.Cache.misses
      in
      let c = Cache.create ~size_bytes ~line_bytes ~ways in
      ignore (drive c s1);
      let k = Cache.clone c in
      if reset then Cache.reset k;
      same "clone" k (drive k s2) (replay ~reset_first:reset s1 [ s2 ]);
      let k2 = Cache.clone k in
      same "clone of the clone" k2 (drive k2 s4) (replay ~reset_first:reset s1 [ s2; s4 ]);
      same "source after its clones" c (drive c s3) (replay s1 [ s3 ]);
      true)

(* ------------------------------------------------------------------ *)
(* The cache against the reference LRU                                  *)
(* ------------------------------------------------------------------ *)

(** One step of a cache trace: a probe, a run of [k] probes of one
    line, a reset, a switch to a clone, a fork — a clone driven
    through its own steps and dropped, after which the source resumes
    — or a commit: a clone driven through its own steps (no switch to
    a clone of it among them) and written back into the source, which
    resumes where the clone stopped. *)
type cache_step =
  | Probe of int
  | Run of int * int
  | Reset
  | Clone
  | Fork of cache_step list
  | Commit of cache_step list

let rec pp_cache_step ppf = function
  | Probe a -> Fmt.int ppf a
  | Run (a, k) -> Fmt.pf ppf "%dx%d" a k
  | Reset -> Fmt.string ppf "reset"
  | Clone -> Fmt.string ppf "clone"
  | Fork s -> Fmt.pf ppf "fork[%a]" Fmt.(list ~sep:sp pp_cache_step) s
  | Commit s -> Fmt.pf ppf "commit[%a]" Fmt.(list ~sep:sp pp_cache_step) s

(** A geometry with few sets (so lines conflict) and up to 300 steps
    over a window of three cache sizes. *)
let arb_cache_trace =
  let gen =
    let open QCheck.Gen in
    let* ways = int_range 1 16
    and* line = oneofl [ 32; 48; 64; 96; 128 ]
    and* sets = int_range 1 6 in
    let size = sets * ways * line in
    let addr = int_range 0 ((3 * size) - 1) in
    let own =
      [
        (12, map (fun a -> Probe a) addr);
        (3, map2 (fun a k -> Run (a, k)) addr (int_range 1 8));
        (1, return Reset);
      ]
    in
    let flat = frequency ((1, return Clone) :: own) in
    let fork = map (fun s -> Fork s) (list_size (int_range 0 60) flat) in
    let commit = map (fun s -> Commit s) (list_size (int_range 0 60) (frequency own)) in
    let step = frequency [ (30, flat); (1, fork); (1, commit) ] in
    let+ steps = list_size (int_range 0 300) step in
    ((size, line, ways), steps)
  in
  QCheck.make
    ~print:(fun ((size, line, ways), steps) ->
      Fmt.str "%d B, %d B lines, %d ways | %a" size line ways
        Fmt.(list ~sep:sp pp_cache_step)
        steps)
    gen

(** Every probe of {!Cache} must answer as the reference LRU
    ({!Reference_memory.Lru}) does, a run as the first of [k] probes
    of its address, and the two must end with the same hits and
    misses — through resets, clones, a source resumed after its clone
    is dropped, and a source a clone is written back into
    ({!Cache.write_back}). *)
let prop_cache_lru =
  QCheck.Test.make ~name:"cache: LRU = reference on traces with resets and clones" ~count:300
    ~long_factor:10 arb_cache_trace (fun ((size_bytes, line_bytes, ways), steps) ->
      let module R = Reference_memory.Lru in
      let n = ref 0 in
      let same what (c : Cache.t) (r : R.t) =
        if c.Cache.hits <> r.R.hits || c.Cache.misses <> r.R.misses then
          QCheck.Test.fail_reportf "%s: %d/%d hits/misses, expected %d/%d" what c.Cache.hits
            c.Cache.misses r.R.hits r.R.misses
      in
      let rec drive ((c, r) as both) step =
        incr n;
        match step with
        | Probe a ->
            if Cache.access c a <> R.access r a then
              QCheck.Test.fail_reportf "step %d: probe of %d answers differently" !n a;
            both
        | Run (a, k) ->
            let expected = R.access r a in
            for _ = 2 to k do
              ignore (R.access r a)
            done;
            if Cache.access_run c a k <> expected then
              QCheck.Test.fail_reportf "step %d: run of %d answers differently" !n a;
            both
        | Reset ->
            Cache.reset c;
            R.reset r;
            both
        | Clone -> (Cache.clone c, R.clone r)
        | Fork s ->
            let c', r' = List.fold_left drive (Cache.clone c, R.clone r) s in
            same (Fmt.str "fork ending at step %d" !n) c' r';
            both
        | Commit s ->
            let c', r' = List.fold_left drive (Cache.clone c, R.clone r) s in
            Cache.write_back ~clone:c' ~into:c;
            (c, r')
      in
      let c, r =
        List.fold_left drive
          (Cache.create ~size_bytes ~line_bytes ~ways, R.create ~size_bytes ~line_bytes ~ways)
          steps
      in
      same "end of trace" c r;
      true)

(* ------------------------------------------------------------------ *)
(* The request model against the reference                              *)
(* ------------------------------------------------------------------ *)

(** One memory instruction: its lanes' byte addresses, the active
    lanes, load or store, global or shared, and the SM it runs on. *)
type mem_inst = {
  addrs : int array;
  bits : bool array;
  store : bool;
  shared : bool;
  sm : int;
}

(** The sparse lane sets of a block of [nt] lanes in warps of [ws],
    named: none, one lane, runs of [ws - 1], [ws] and [ws + 1] lanes,
    one lane per warp, the last lane only, and all lanes but one. The
    request property draws from them, and the sparse-mask engine table
    ({!test_sparse_masks}) runs each. *)
let sparse_sets ws nt =
  let range lo k = List.filter (fun l -> l < nt) (List.init (max 0 k) (fun i -> lo + i)) in
  [
    ("no lane", []);
    ("one lane", [ nt / 2 ]);
    ("ws - 1 lanes", range 1 (ws - 1));
    ("ws lanes", range (ws / 2) ws);
    ("ws + 1 lanes", range 0 (ws + 1));
    ( "one lane per warp",
      List.init (Pgpu_support.Util.ceil_div nt ws) (fun w -> min (nt - 1) ((w * ws) + (w mod ws))) );
    ("the last lane", [ nt - 1 ]);
    ("all lanes but one", List.filter (fun l -> l <> ws mod nt) (range 0 nt));
  ]

(** A target of each warp size (cpu 1, a100 32, mi210 64), small
    random L1 and L2-slice geometries (so lines conflict and L1 lines
    may be wider or narrower than L2 lines), and up to 40 instructions
    of 1-160 lanes. Addresses are a base in a 16 KiB window plus, per
    lane, an ascending or descending stride from {0, 4, 8, 64, 132} and
    a jitter of up to 7 bytes, or a scatter over a window of
    64-1024 bytes, so lanes share sectors, words span about one bank
    row, and later instructions revisit lines. Masks are full, a
    prefix, random, or one of the target's sparse sets
    ({!sparse_sets}). *)
let arb_request_streams =
  let inst ws =
    let open QCheck.Gen in
    let* lanes = int_range 1 160 in
    let* base = int_range 0 16383
    and* stride = oneofl [ 0; 4; 8; 64; 132 ]
    and* layout = oneofl [ `Up; `Down; `Scatter 64; `Scatter 128; `Scatter 132; `Scatter 1024 ]
    and* offs = array_repeat lanes (int_range 0 1023) in
    let* bits =
      oneof
        [
          return (Array.make lanes true);
          map (fun k -> Array.init lanes (fun l -> l < k)) (int_range 0 lanes);
          array_repeat lanes bool;
          map
            (fun (_, set) -> Array.init lanes (fun l -> List.mem l set))
            (oneofl (sparse_sets ws lanes));
        ]
    in
    let+ store = bool and+ shared = bool and+ sm = int_range 0 3 in
    let addr l =
      match layout with
      | `Up -> base + (l * stride) + (offs.(l) land 7)
      | `Down -> base + ((lanes - 1 - l) * stride) + (offs.(l) land 7)
      | `Scatter w -> base + (offs.(l) mod w)
    in
    { addrs = Array.init lanes addr; bits; store; shared; sm }
  in
  let geometry =
    let open QCheck.Gen in
    let+ line = oneofl [ 32; 64; 96; 128 ] and+ ways = int_range 1 8 and+ sets = int_range 1 8 in
    (sets * ways * line, line, ways)
  in
  let pp ppf i =
    Fmt.pf ppf "%s %s sm%d [%a]"
      (if i.store then "st" else "ld")
      (if i.shared then "shared" else "global")
      i.sm
      Fmt.(array ~sep:sp string)
      (Array.mapi (fun l a -> if i.bits.(l) then string_of_int a else "_") i.addrs)
  in
  let pp_geo ppf (size, line, ways) = Fmt.pf ppf "%d B/%d B lines/%d ways" size line ways in
  QCheck.make
    ~print:(fun ((t, l1, l2), insts) ->
      Fmt.str "%s, L1 %a, L2 %a@\n%a" t.Descriptor.name pp_geo l1 pp_geo l2
        Fmt.(list ~sep:(any "@\n") pp)
        insts)
    QCheck.Gen.(
      let* t = oneofl [ Descriptor.cpu; Descriptor.a100; Descriptor.mi210 ] in
      let* l1 = geometry and* l2 = geometry in
      let+ insts = list_size (int_range 0 40) (inst t.Descriptor.warp_size) in
      ((t, l1, l2), insts))

(** {!Exec.requests} must leave the same counters, after every
    instruction, as the reference model ({!Reference_memory.requests})
    on a second machine, and every L1 and L2 slice with the same hits
    and misses at the end. *)
let prop_requests =
  QCheck.Test.make ~name:"requests: model = reference on random streams" ~count:300
    ~long_factor:10 arb_request_streams (fun ((target, l1, l2), insts) ->
      let machine () =
        let caches (size_bytes, line_bytes, ways) =
          Array.init target.Descriptor.sm_count (fun _ ->
              Cache.create ~size_bytes ~line_bytes ~ways)
        in
        { (Exec.create_machine target) with Exec.l1s = caches l1; l2s = caches l2 }
      in
      let ma = machine () and mb = machine () in
      List.iteri
        (fun k i ->
          let ctx m =
            {
              Exec.m;
              nlanes = Array.length i.addrs;
              ws = target.Descriptor.warp_size;
              sm = i.sm;
            }
          in
          let space = if i.shared then Types.Shared else Types.Global in
          let mask = Exec.mask_of_bits (ctx ma) i.bits in
          Exec.requests (ctx ma) ~is_store:i.store space i.addrs mask;
          Reference_memory.requests (ctx mb) ~is_store:i.store space i.addrs i.bits;
          if ma.Exec.counters <> mb.Exec.counters then
            QCheck.Test.fail_reportf "counters differ after instruction %d" k)
        insts;
      let same what (a : Cache.t array) (b : Cache.t array) =
        Array.iteri
          (fun s (ca : Cache.t) ->
            let cb = b.(s) in
            if ca.Cache.hits <> cb.Cache.hits || ca.Cache.misses <> cb.Cache.misses then
              QCheck.Test.fail_reportf "%s %d: %d/%d hits/misses, expected %d/%d" what s
                ca.Cache.hits ca.Cache.misses cb.Cache.hits cb.Cache.misses)
          a
      in
      same "L1" ma.Exec.l1s mb.Exec.l1s;
      same "L2 slice" ma.Exec.l2s mb.Exec.l2s;
      true)

(* ------------------------------------------------------------------ *)
(* Operator matrix: every operator in every operand shape, both engines *)
(* ------------------------------------------------------------------ *)

(** An operand is a row (loaded per lane inside the thread parallel,
    so statically varying) or uniform (loaded once per block, before
    the thread parallel). *)
type shape = Row | Uni

let pp_shape ppf s = Fmt.string ppf (match s with Row -> "row" | Uni -> "uniform")

let cf = List.map (fun x -> Instr.Cf x)
let ci = List.map (fun x -> Instr.Ci x)

let f32_a =
  cf
    [ 0.; -0.; 1.5; -2.25; 3.; -7.; 0.5; Float.nan; Float.infinity; Float.neg_infinity; 1e30;
      -1e-30; 2.; 100.; -0.75; 9. ]

let f32_b =
  cf
    [ 2.; -0.; 0.; -3.5; Float.nan; 0.25; Float.infinity; -1.; Float.neg_infinity; 7.; -0.5;
      1e-30; 5.; -100.; 3. ]

let i32_a = ci [ 0; 1; -1; 7; -13; 31; 2; 100; -100; 5; 3; 16; -2; 1 lsl 20; -(1 lsl 20); 9 ]
let i32_b = ci [ 3; 0; -1; 2; -7; 0; 5; 1; -3; 31; 4; -100; 13; 0; 8 ]
let shift_counts = ci [ 0; 1; 2; 3; 4; 5; 7; 8; 13; 15; 16; 17; 24; 30; 31 ]
let conds = ci [ 0; 1; -1; 2; 0; 0; 1; 7; 0; 1; 1; 0; -5 ]
let matrix_blocks = 16
let matrix_threads = 32

(** The constants [vals], of type [ty], copied into a fresh global
    buffer. *)
let global_table b ty vals =
  let n = Builder.const_i b (List.length vals) in
  let h = Builder.alloc b Types.Host ty n in
  List.iteri
    (fun i c -> Builder.store b h (Builder.const_i b i) (Builder.let_ b ty (Instr.Const c)))
    vals;
  let d = Builder.alloc b Types.Global ty n in
  Builder.add b (Instr.Memcpy { dst = d; src = h; count = n });
  d

(** One kernel over [matrix_blocks] blocks of [matrix_threads] lanes:
    operand [k] is a table of constants of element type [ty], read as
    a row or as a per-block uniform; lane [g] stores [f operands] to
    [out[g]]. Row indices differ per operand so binary operators see
    many value pairs. *)
let matrix_module (operands : (Types.t * Instr.const list * shape) list) out_ty
    (f : Builder.t -> Value.t list -> Value.t) =
  Builder.func "main" [] [ Types.Memref (Types.Host, out_ty) ] (fun b ->
      let tables =
        List.map (fun (ty, vals, sh) -> (global_table b ty vals, List.length vals, sh)) operands
      in
      let total = Builder.const_i b (matrix_blocks * matrix_threads) in
      let hout = Builder.alloc b Types.Host out_ty total in
      let dout = Builder.alloc b Types.Global out_ty total in
      Builder.gpu_wrapper b "matrix" (fun wb ->
          let nb = Builder.const_i wb matrix_blocks and nt = Builder.const_i wb matrix_threads in
          ignore
            (Builder.parallel wb Instr.Blocks [ nb ] (fun bb _ bivs ->
                 let bid = List.hd bivs in
                 let unis =
                   List.mapi
                     (fun k (d, len, sh) ->
                       match sh with
                       | Row -> None
                       | Uni ->
                           let i = Builder.mul_ bb bid (Builder.const_i bb ((2 * k) + 1)) in
                           let i = Builder.add_ bb i (Builder.const_i bb k) in
                           Some (Builder.load bb d (Builder.rem_ bb i (Builder.const_i bb len))))
                     tables
                 in
                 ignore
                   (Builder.parallel bb Instr.Threads [ nt ] (fun tb _ tivs ->
                        let g = Builder.add_ tb (Builder.mul_ tb bid nt) (List.hd tivs) in
                        let args =
                          List.mapi
                            (fun k ((d, len, _), uni) ->
                              match uni with
                              | Some u -> u
                              | None ->
                                  let q = Builder.div_ tb g (Builder.const_i tb 16) in
                                  let i =
                                    Builder.add_ tb g (Builder.mul_ tb q (Builder.const_i tb k))
                                  in
                                  Builder.load tb d (Builder.rem_ tb i (Builder.const_i tb len)))
                            (List.combine tables unis)
                        in
                        Builder.store tb dout g (f tb args))))));
      Builder.add b (Instr.Memcpy { dst = hout; src = dout; count = total });
      Builder.return b [ hout ])

(** Run [m] on the compiled engine and on the reference interpreter,
    on [targets] (a100 and cpu by default); outputs must agree
    bitwise, and so must every launch's counters. *)
let check_engines_agree ?(targets = [ Descriptor.a100; Descriptor.cpu ]) what fn =
  let m = { Instr.funcs = [ fn ] } in
  let run ?reference target =
    let results, st =
      Pgpu_runtime.Runtime.run ?reference (Pgpu_runtime.Runtime.default_config target) m []
    in
    let out =
      match results with
      | [ Exec.UB { Memory.data = Memory.F a; _ } ] -> `F (Array.map Int64.bits_of_float a)
      | [ Exec.UB { Memory.data = Memory.I a; _ } ] -> `I a
      | _ -> Alcotest.failf "%s: expected one buffer result" what
    in
    let counters =
      List.map
        (fun (r : Pgpu_runtime.Runtime.launch_record) ->
          r.Pgpu_runtime.Runtime.result.Exec.counters)
        (Pgpu_runtime.Runtime.records st)
    in
    (out, counters)
  in
  List.iter
    (fun (target : Descriptor.t) ->
      let out_i, cnt_i = run ~reference:Interp.runner target in
      let out_c, cnt_c = run target in
      if out_i <> out_c then Alcotest.failf "%s on %s: outputs differ" what target.Descriptor.name;
      if cnt_i <> cnt_c then Alcotest.failf "%s on %s: counters differ" what target.Descriptor.name)
    targets

let shapes2 = [ (Row, Row); (Row, Uni); (Uni, Row); (Uni, Uni) ]
let kind_name ty = if Types.is_float ty then "f32" else "i32"

let all_binops =
  Ops.[ Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr; Min; Max; Pow ]

let all_unops = Ops.[ Neg; Not; Sqrt; Exp; Log; Sin; Cos; Abs; Floor; Ceil; Rsqrt ]
let all_cmpops = Ops.[ Eq; Ne; Lt; Le; Gt; Ge ]

(** Whether [Ops] defines the operator on this kind. *)
let accepts eval = match eval () with _ -> true | exception Invalid_argument _ -> false

let test_matrix_binops ty () =
  let a, b = if Types.is_float ty then (f32_a, f32_b) else (i32_a, i32_b) in
  List.iter
    (fun op ->
      let ok =
        if Types.is_float ty then accepts (fun () -> Ops.eval_float_binop op 1. 1.)
        else accepts (fun () -> Ops.eval_int_binop op 1 1)
      in
      let b = match op with Ops.Shl | Ops.Shr -> shift_counts | _ -> b in
      if ok then
        List.iter
          (fun (sa, sb) ->
            check_engines_agree
              (Fmt.str "%s %a %a-%a" (kind_name ty) Ops.pp_binop op pp_shape sa pp_shape sb)
              (matrix_module [ (ty, a, sa); (ty, b, sb) ] ty (fun tb args ->
                   Builder.binop tb op (List.nth args 0) (List.nth args 1))))
          shapes2)
    all_binops

let test_matrix_unops () =
  List.iter
    (fun (ty, vals) ->
      List.iter
        (fun op ->
          let ok =
            if Types.is_float ty then accepts (fun () -> Ops.eval_float_unop op 1.)
            else accepts (fun () -> Ops.eval_int_unop op 1)
          in
          if ok then
            List.iter
              (fun sa ->
                check_engines_agree
                  (Fmt.str "%s %a %a" (kind_name ty) Ops.pp_unop op pp_shape sa)
                  (matrix_module [ (ty, vals, sa) ] ty (fun tb args ->
                       Builder.let_ tb ty (Instr.Unop (op, List.hd args)))))
              [ Row; Uni ])
        all_unops)
    [ (Types.I32, i32_a); (Types.F32, f32_a) ]

let test_matrix_cmps () =
  List.iter
    (fun (ty, a, b) ->
      List.iter
        (fun op ->
          List.iter
            (fun (sa, sb) ->
              check_engines_agree
                (Fmt.str "%s %a %a-%a" (kind_name ty) Ops.pp_cmpop op pp_shape sa pp_shape sb)
                (matrix_module [ (ty, a, sa); (ty, b, sb) ] Types.I32 (fun tb args ->
                     Builder.cmp tb op (List.nth args 0) (List.nth args 1))))
            shapes2)
        all_cmpops)
    [ (Types.I32, i32_a, i32_b); (Types.F32, f32_a, f32_b) ]

let test_matrix_select () =
  List.iter
    (fun (ty, a, b) ->
      List.iter
        (fun sc ->
          List.iter
            (fun (sa, sb) ->
              check_engines_agree
                (Fmt.str "%s select %a ? %a : %a" (kind_name ty) pp_shape sc pp_shape sa pp_shape
                   sb)
                (matrix_module [ (Types.I32, conds, sc); (ty, a, sa); (ty, b, sb) ] ty
                   (fun tb args ->
                     Builder.select tb (List.nth args 0) (List.nth args 1) (List.nth args 2))))
            shapes2)
        [ Row; Uni ])
    [ (Types.I32, i32_a, i32_b); (Types.F32, f32_a, f32_b) ]

let test_matrix_casts () =
  List.iter
    (fun (src, vals, dst) ->
      List.iter
        (fun sa ->
          check_engines_agree
            (Fmt.str "cast %s -> %s %a" (kind_name src) (kind_name dst) pp_shape sa)
            (matrix_module [ (src, vals, sa) ] dst (fun tb args ->
                 Builder.cast tb dst (List.hd args))))
        [ Row; Uni ])
    [
      (Types.I32, i32_a, Types.F32);
      (Types.F32, f32_a, Types.I32);
      (Types.I32, i32_a, Types.I32);
      (Types.F32, f32_a, Types.F32);
    ]

(** An operand row of the other kind takes the generic reader path,
    which coerces per lane like the interpreter's [to_vf]/[to_vi]. *)
let test_matrix_mixed_kinds () =
  List.iter
    (fun (ty, (ta, a), (tyb, b)) ->
      check_engines_agree
        (Fmt.str "%s add of %s and %s rows" (kind_name ty) (kind_name ta) (kind_name tyb))
        (matrix_module [ (ta, a, Row); (tyb, b, Row) ] ty (fun tb args ->
             Builder.let_ tb ty (Instr.Binop (Ops.Add, List.nth args 0, List.nth args 1)))))
    [
      (Types.F32, (Types.I32, i32_a), (Types.F32, f32_b));
      (Types.I32, (Types.F32, f32_a), (Types.I32, i32_b));
    ]

(* ------------------------------------------------------------------ *)
(* Broadcast accesses and the allocation of a launch                    *)
(* ------------------------------------------------------------------ *)

let bcast_blocks = 6
let bcast_threads = 48

(** Broadcast accesses — a uniform buffer at a uniform index — under a
    partial mask: in a divergent [if], the lanes with [tid mod 3 = 1]
    load the f32 and i32 elements at the block's index [index bid] of
    a global and a shared table, also as the other kind, and store a
    varying value at uniform indices of the output and of a shared
    table, where the last active lane's value must stay. With
    [~taken:false] no lane takes the branch. Lane [g] writes [out[g]],
    block [bid] [out[total + bid]]. *)
let broadcast_module ?(taken = true) index =
  Builder.func "main" [] [ host_f32 ] (fun b ->
      let gf = global_table b f32 (List.filteri (fun i _ -> i < 16) f32_a) in
      let gi = global_table b Types.I32 (List.filteri (fun i _ -> i < 16) i32_a) in
      let total = bcast_blocks * bcast_threads in
      let n = Builder.const_i b (total + bcast_blocks) in
      let hout = Builder.alloc b Types.Host f32 n in
      let dout = Builder.alloc b Types.Global f32 n in
      Builder.gpu_wrapper b "bcast" (fun wb ->
          let nb = Builder.const_i wb bcast_blocks and nt = Builder.const_i wb bcast_threads in
          ignore
            (Builder.parallel wb Instr.Blocks [ nb ] (fun bb _ bivs ->
                 let bid = List.hd bivs in
                 let u = index bb bid in
                 let shf = Builder.alloc_shared bb f32 16 in
                 let shi = Builder.alloc_shared bb Types.I32 16 in
                 ignore
                   (Builder.parallel bb Instr.Threads [ nt ] (fun tb tpid tivs ->
                        let tid = List.hd tivs in
                        let c16 = Builder.const_i tb 16 and c15 = Builder.const_i tb 15 in
                        Builder.if0 tb (Builder.cmp tb Ops.Lt tid c16) (fun ib ->
                            Builder.store ib shf tid (Builder.load ib gf tid);
                            Builder.store ib shi tid (Builder.load ib gi tid));
                        Builder.barrier tb tpid;
                        let cond =
                          if taken then
                            Builder.cmp tb Ops.Eq
                              (Builder.rem_ tb tid (Builder.const_i tb 3))
                              (Builder.const_i tb 1)
                          else Builder.cmp tb Ops.Gt tid nt
                        in
                        let r =
                          Builder.if_ tb cond [ f32 ]
                            (fun ib ->
                              let a = Builder.load ib gf u and x = Builder.load ib gi u in
                              let c = Builder.load ib shf u and y = Builder.load ib shi u in
                              let e = Builder.let_ ib Types.I32 (Instr.Load { mem = gf; idx = u }) in
                              let f = Builder.let_ ib f32 (Instr.Load { mem = shi; idx = u }) in
                              let fl v = Builder.cast ib f32 v in
                              let sum =
                                List.fold_left (Builder.add_ ib) a [ fl x; c; fl y; fl e; f ]
                              in
                              let v = Builder.add_ ib sum (fl tid) in
                              Builder.store ib dout
                                (Builder.add_ ib (Builder.const_i ib total) bid)
                                v;
                              Builder.store ib shf c15 v;
                              [ sum ])
                            (fun ib -> [ Builder.const_f ib 0. ])
                        in
                        Builder.barrier tb tpid;
                        let g = Builder.add_ tb (Builder.mul_ tb bid nt) tid in
                        Builder.store tb dout g
                          (Builder.add_ tb (List.hd r) (Builder.load tb shf c15)))))));
      Builder.add b (Instr.Memcpy { dst = hout; src = dout; count = n });
      Builder.return b [ hout ])

let bcast_targets = [ Descriptor.a100; Descriptor.rx6800; Descriptor.cpu ]

let test_broadcast_partial_masks () =
  check_engines_agree ~targets:bcast_targets "broadcast accesses in a divergent if"
    (broadcast_module (fun bb bid ->
         Builder.rem_ bb
           (Builder.add_ bb (Builder.mul_ bb bid (Builder.const_i bb 5)) (Builder.const_i bb 3))
           (Builder.const_i bb 16)));
  (* an out-of-range index in a branch no lane takes is never read *)
  check_engines_agree ~targets:bcast_targets "broadcast index out of range, branch not taken"
    (broadcast_module ~taken:false (fun bb bid -> Builder.add_ bb bid (Builder.const_i bb 16)))

(** A [__shared__] array allocated in a block-level loop, each
    iteration reading the array the previous one allocated: a node
    that runs twice in one block must not recycle its live array. *)
let test_shared_realloc_in_block () =
  check_engines_agree ~targets:bcast_targets "__shared__ allocated per loop iteration"
    (Builder.func "main" [] [ host_f32 ] (fun b ->
         let n = Builder.const_i b (bcast_blocks * 4) in
         let hout = Builder.alloc b Types.Host f32 n in
         let dout = Builder.alloc b Types.Global f32 n in
         Builder.gpu_wrapper b "realloc" (fun wb ->
             let nb = Builder.const_i wb bcast_blocks and c4 = Builder.const_i wb 4 in
             ignore
               (Builder.parallel wb Instr.Blocks [ nb ] (fun bb _ bivs ->
                    let bid = List.hd bivs in
                    let first = Builder.alloc_shared bb f32 4 in
                    let c0 = Builder.const_i bb 0 and c1 = Builder.const_i bb 1 in
                    let last =
                      Builder.for_ bb c0 (Builder.const_i bb 3) c1 [ first ] (fun fb k prev ->
                          let cur = Builder.alloc_shared fb f32 4 in
                          ignore
                            (Builder.parallel fb Instr.Threads [ c4 ] (fun tb _ tivs ->
                                 let tid = List.hd tivs in
                                 let x = Builder.load tb (List.hd prev) tid in
                                 let y = Builder.add_ tb x (Builder.cast tb f32 (Builder.add_ tb k bid)) in
                                 Builder.store tb cur tid y));
                          [ cur ])
                    in
                    ignore
                      (Builder.parallel bb Instr.Threads [ c4 ] (fun tb _ tivs ->
                           let tid = List.hd tivs in
                           let g = Builder.add_ tb (Builder.mul_ tb bid c4) tid in
                           Builder.store tb dout g (Builder.load tb (List.hd last) tid))))));
         Builder.add b (Instr.Memcpy { dst = hout; src = dout; count = n });
         Builder.return b [ hout ]))

(** An out-of-range broadcast index in a branch some lane takes raises
    the oracle's device error, on every target. *)
let test_broadcast_out_of_range () =
  let m = { Instr.funcs = [ broadcast_module (fun bb bid -> Builder.add_ bb bid (Builder.const_i bb 16)) ] } in
  List.iter
    (fun (target : Descriptor.t) ->
      let fault ?reference () =
        match
          Pgpu_runtime.Runtime.run ?reference (Pgpu_runtime.Runtime.default_config target) m []
        with
        | _ -> Alcotest.failf "%s: an out-of-range broadcast ran" target.Descriptor.name
        | exception Exec.Device_error msg -> msg
      in
      Alcotest.(check string)
        (target.Descriptor.name ^ ": the oracle's device error")
        (fault ~reference:Interp.runner ())
        (fault ()))
    bcast_targets

(* ------------------------------------------------------------------ *)
(* Sparse lane masks                                                    *)
(* ------------------------------------------------------------------ *)

(** [while_ b inits f] builds a do-while loop: [f] receives the body's
    builder and the iteration arguments and returns the condition to
    go on and the next values. Returns the loop results. *)
let while_ b inits f =
  let iter_args = List.map Value.rebirth inits in
  let inner = Builder.create () in
  let go, next = f inner iter_args in
  Builder.add inner (Instr.Yield_while (go, next));
  let results = List.map Value.rebirth inits in
  Builder.add b (Instr.While { iter_args; inits; results; body = Builder.finish inner });
  results

let sparse_blocks = 2

(** [sparse_blocks] blocks of [nt] lanes, each lane [tid] reading
    [sel[tid]], which is [1 + tid mod 3] for the lanes of [active] and
    0 for the others. The lanes whose [sel] is not 0 take a branch
    that divides by it (the other lanes' divisors are 0), runs a
    varying-bound [for] over global and shared loads, a [while] whose
    trip count varies per lane and a divergent [if] with a result,
    loads a global and a shared element at uniform (broadcast)
    indices, and stores to global and shared memory, also at uniform
    indices (where the last active lane's value stays). Lane [g]
    writes [out[g]] after the branch and [out[total + g]] in it, block
    [bid] [out[2 * total + bid]]. *)
let sparse_module ~nt active =
  Builder.func "main" [] [ host_f32 ] (fun b ->
      let tab = global_table b f32 (List.filteri (fun i _ -> i < 16) f32_a) in
      let sel =
        global_table b Types.I32
          (ci (List.init nt (fun l -> if List.mem l active then 1 + (l mod 3) else 0)))
      in
      let total = sparse_blocks * nt in
      let n = Builder.const_i b ((2 * total) + sparse_blocks) in
      let hout = Builder.alloc b Types.Host f32 n in
      let dout = Builder.alloc b Types.Global f32 n in
      Builder.gpu_wrapper b "sparse" (fun wb ->
          let nb = Builder.const_i wb sparse_blocks and cnt = Builder.const_i wb nt in
          ignore
            (Builder.parallel wb Instr.Blocks [ nb ] (fun bb _ bivs ->
                 let bid = List.hd bivs in
                 let sh = Builder.alloc_shared bb f32 nt in
                 ignore
                   (Builder.parallel bb Instr.Threads [ cnt ] (fun tb tpid tivs ->
                        let tid = List.hd tivs in
                        let c k = Builder.const_i tb k in
                        let g = Builder.add_ tb (Builder.mul_ tb bid cnt) tid in
                        Builder.store tb sh tid (Builder.load tb tab (Builder.rem_ tb tid (c 16)));
                        Builder.barrier tb tpid;
                        let s = Builder.load tb sel tid in
                        let r =
                          Builder.if_ tb (Builder.cmp tb Ops.Ne s (c 0)) [ f32 ]
                            (fun ib ->
                              let c k = Builder.const_i ib k in
                              let fl v = Builder.cast ib f32 v in
                              let q = Builder.div_ ib (Builder.add_ ib (Builder.mul_ ib tid (c 7)) (c 3)) s in
                              let trips = Builder.add_ ib (c 1) (Builder.rem_ ib tid (c 4)) in
                              let acc =
                                Builder.for_ ib (c 0) trips (c 1) [ Builder.const_f ib 0. ]
                                  (fun fb k accs ->
                                    let j = Builder.add_ fb k tid in
                                    let x = Builder.load fb tab (Builder.rem_ fb j (Builder.const_i fb 16)) in
                                    let y = Builder.load fb sh (Builder.rem_ fb j cnt) in
                                    [ Builder.add_ fb (List.hd accs) (Builder.add_ fb x y) ])
                              in
                              let halved =
                                while_ ib [ Builder.add_ ib q (Builder.rem_ ib tid (c 7)); c 0 ]
                                  (fun wb args ->
                                    let x = List.nth args 0 and k = List.nth args 1 in
                                    let x' = Builder.div_ wb x (Builder.const_i wb 2) in
                                    ( Builder.cmp wb Ops.Gt x' (Builder.const_i wb 1),
                                      [ x'; Builder.add_ wb k (Builder.const_i wb 1) ] ))
                              in
                              let odd = Builder.cmp ib Ops.Ne (Builder.rem_ ib tid (c 2)) (c 0) in
                              let acc = List.hd acc in
                              let w =
                                Builder.if_ ib odd [ f32 ]
                                  (fun eb -> [ Builder.add_ eb acc (Builder.const_f eb 1.) ])
                                  (fun eb -> [ Builder.mul_ eb acc (Builder.const_f eb 2.) ])
                              in
                              let bcast = Builder.add_ ib (Builder.load ib tab bid) (Builder.load ib sh (c (nt - 1))) in
                              let v =
                                List.fold_left (Builder.add_ ib) (List.hd w)
                                  [ bcast; fl q; fl (List.nth halved 0); fl (List.nth halved 1) ]
                              in
                              Builder.store ib dout (Builder.add_ ib (c total) g) v;
                              Builder.store ib dout (Builder.add_ ib (c (2 * total)) bid) v;
                              Builder.store ib sh tid v;
                              Builder.store ib sh (c 0) v;
                              [ v ])
                            (fun ib -> [ Builder.const_f ib (-1.) ])
                        in
                        Builder.barrier tb tpid;
                        Builder.store tb dout g (Builder.add_ tb (List.hd r) (Builder.load tb sh tid)))))));
      Builder.add b (Instr.Memcpy { dst = hout; src = dout; count = n });
      Builder.return b [ hout ])

(** The engine, which splits and filters its parent's list of active
    lanes, against the oracle's per-lane booleans, under every sparse
    set ({!sparse_sets}) of a block of 2.5 warps of 32, 64 and 1 lanes
    (a100, rx6800 and cpu warps), each run on all three targets. *)
let test_sparse_masks () =
  List.iter
    (fun ws ->
      let nt = (2 * ws) + ((ws + 1) / 2) in
      List.iter
        (fun (what, active) ->
          check_engines_agree ~targets:bcast_targets
            (Fmt.str "%s of %d (warps of %d)" what nt ws)
            (sparse_module ~nt active))
        (sparse_sets ws nt))
    [ 32; 64; 1 ]

(** A 256-thread kernel with a [__shared__] array, broadcast loads in a
    uniform loop, f32 [sqrt]/[exp]/div/min/max, a float compare feeding
    a select, i32 min/max/shl, an f64 add, a divergent [if], a branch
    that one lane in 32 (one per a100 warp) takes to run a
    varying-bound [for] and a [while] under its sparse mask, and a
    uniform-index store, over [nb] blocks. Its buffers do not grow with
    the grid: lane [tid] writes [out[tid]], block [bid]
    [out[256 + bid mod 16]]. *)
let alloc_module () =
  let nb = Value.fresh ~hint:"nb" Types.I32 in
  Builder.func "main" [ nb ] [ host_f32 ] (fun b ->
      let table = global_table b f32 f32_a in
      let n = Builder.const_i b (256 + 16) in
      let hout = Builder.alloc b Types.Host f32 n in
      let dout = Builder.alloc b Types.Global f32 n in
      Builder.gpu_wrapper b "alloc" (fun wb ->
          let c256 = Builder.const_i wb 256 in
          ignore
            (Builder.parallel wb Instr.Blocks [ nb ] (fun bb _ bivs ->
                 let bid = List.hd bivs in
                 let sh = Builder.alloc_shared bb f32 256 in
                 ignore
                   (Builder.parallel bb Instr.Threads [ c256 ] (fun tb tpid tivs ->
                        let tid = List.hd tivs in
                        let c0 = Builder.const_i tb 0 and c1 = Builder.const_i tb 1 in
                        let c8 = Builder.const_i tb 8 and c16 = Builder.const_i tb 16 in
                        Builder.store tb sh tid (Builder.load tb table (Builder.rem_ tb tid c16));
                        Builder.barrier tb tpid;
                        let acc =
                          Builder.for_ tb c0 c8 c1 [ Builder.const_f tb 0. ] (fun fb k accs ->
                              let x = Builder.load fb table k and y = Builder.load fb sh k in
                              [ Builder.add_ fb (List.hd accs) (Builder.add_ fb x y) ])
                        in
                        let acc = List.hd acc in
                        let x = Builder.load tb table (Builder.rem_ tb tid c16) in
                        let unop op a = Builder.let_ tb f32 (Instr.Unop (op, a)) in
                        let q =
                          Builder.div_ tb
                            (unop Ops.Sqrt (Builder.max_ tb acc x))
                            (unop Ops.Exp (Builder.min_ tb acc x))
                        in
                        let q = Builder.select tb (Builder.cmp tb Ops.Lt q acc) q acc in
                        let k =
                          Builder.binop tb Ops.Shl (Builder.min_ tb tid c16)
                            (Builder.max_ tb (Builder.rem_ tb tid c8) c1)
                        in
                        let q = Builder.add_ tb q (Builder.cast tb f32 k) in
                        let wide = Builder.cast tb Types.F64 q in
                        let acc =
                          Builder.cast tb f32
                            (Builder.add_ tb wide (Builder.const_f tb ~ty:Types.F64 0.5))
                        in
                        let even = Builder.cmp tb Ops.Eq (Builder.rem_ tb tid (Builder.const_i tb 2)) c0 in
                        let r =
                          Builder.if_ tb even [ f32 ]
                            (fun ib -> [ Builder.mul_ ib acc acc ])
                            (fun _ -> [ acc ])
                        in
                        let c32 = Builder.const_i tb 32 in
                        let lone = Builder.cmp tb Ops.Eq (Builder.rem_ tb tid c32) (Builder.const_i tb 3) in
                        let extra =
                          Builder.if_ tb lone [ f32 ]
                            (fun ib ->
                              let trips =
                                Builder.add_ ib c1 (Builder.rem_ ib (Builder.div_ ib tid c32) (Builder.const_i ib 4))
                              in
                              let s =
                                Builder.for_ ib c0 trips c1 [ Builder.const_f ib 0. ] (fun fb k accs ->
                                    [ Builder.add_ fb (List.hd accs) (Builder.load fb table k) ])
                              in
                              let h =
                                while_ ib [ Builder.add_ ib tid (Builder.const_i ib 7) ] (fun wb args ->
                                    let x = Builder.div_ wb (List.hd args) (Builder.const_i wb 2) in
                                    (Builder.cmp wb Ops.Gt x (Builder.const_i wb 1), [ x ]))
                              in
                              [ Builder.add_ ib (List.hd s) (Builder.cast ib f32 (List.hd h)) ])
                            (fun ib -> [ Builder.const_f ib 0. ])
                        in
                        let r = Builder.add_ tb (List.hd r) (List.hd extra) in
                        Builder.store tb dout tid r;
                        Builder.if0 tb (Builder.cmp tb Ops.Lt tid (Builder.const_i tb 100)) (fun ib ->
                            let j = Builder.add_ ib c256 (Builder.rem_ ib bid c16) in
                            Builder.store ib dout j r))))));
      Builder.add b (Instr.Memcpy { dst = hout; src = dout; count = n });
      Builder.return b [ hout ])

(** Words [f ()] allocates, on the minor heap plus directly on the
    major heap: the least of three runs, each started on an empty
    minor heap. The minor heap is read from [Gc.minor_words], which
    counts to the last word: in OCaml 5, [Gc.counters]' minor count
    lags until the next minor collection, so a window smaller than the
    minor heap read as next to nothing. *)
let allocated_words f =
  let once () =
    Gc.minor ();
    let _, promoted0, major0 = Gc.counters () in
    let minor0 = Gc.minor_words () in
    f ();
    let minor1 = Gc.minor_words () in
    let _, promoted1, major1 = Gc.counters () in
    minor1 -. minor0 +. (major1 -. promoted1 -. (major0 -. promoted0))
  in
  List.fold_left Float.min infinity [ once (); once (); once () ]

(** A launch allocates nothing per lane and nothing per block: the
    words a warm run of {!alloc_module} allocates grow by fewer than 2
    per thread per extra block. At 16 blocks and more every cpu core
    runs in both runs. *)
let test_launch_allocation () =
  let m = { Instr.funcs = [ alloc_module () ] } in
  List.iter
    (fun (target : Descriptor.t) ->
      let run nb () =
        ignore
          (Pgpu_runtime.Runtime.run (Pgpu_runtime.Runtime.default_config target) m [ Exec.UI nb ])
      in
      let warm nb =
        run nb ();
        allocated_words (run nb)
      in
      let small = warm 16 and large = warm 128 in
      let per_block = (large -. small) /. float_of_int (128 - 16) in
      if per_block >= 512. then
        Alcotest.failf "%s: %.0f words per extra block (%.0f at 16 blocks, %.0f at 128)"
          target.Descriptor.name per_block small large)
    bcast_targets

let suite =
  [
    ( "exec",
      [
        !:"vecadd functional" `Quick test_vecadd_functional;
        !:"vecadd tail guard" `Quick test_vecadd_tail_guard;
        !:"vecadd with n = -1 is a host error" `Quick test_vecadd_negative;
        !:"out-of-bounds kernel and copy: device and host errors" `Quick test_out_of_bounds;
        !:"lud at n = 0 is a device error" `Quick test_lud_empty_faults;
        !:"an oversized block or a negative grid is a device error" `Quick test_launch_faults;
        !:"a kernel region's kernel launch is a host error" `Quick test_nested_launch_fails;
        !:"zero-length buffers" `Quick test_zero_length_buffers;
        !:"vecadd with n = 0" `Quick test_vecadd_empty;
        !:"reduction with barriers" `Quick test_reduce_functional;
        !:"coalescing sectors" `Quick test_coalescing;
        !:"divergence counter" `Quick test_divergence_counter;
        !:"partial warps" `Quick test_partial_warp_lanes;
        !:"untaken thread loop: the launch's own block size" `Quick test_untaken_threads;
        !:"sampled launch scales counters" `Quick test_sampled_launch_scales;
        !:"shared-memory bank conflicts" `Quick test_bank_conflicts;
        !:"barrier divergence detected" `Quick test_barrier_divergence_detected;
        QCheck_alcotest.to_alcotest prop_engines_agree;
        QCheck_alcotest.to_alcotest prop_cache_clone;
        QCheck_alcotest.to_alcotest prop_cache_lru;
        QCheck_alcotest.to_alcotest prop_requests;
        !:"engine matrix: i32 binops" `Quick (test_matrix_binops Types.I32);
        !:"engine matrix: f32 binops" `Quick (test_matrix_binops Types.F32);
        !:"engine matrix: unops" `Quick test_matrix_unops;
        !:"engine matrix: comparisons" `Quick test_matrix_cmps;
        !:"engine matrix: select" `Quick test_matrix_select;
        !:"engine matrix: casts" `Quick test_matrix_casts;
        !:"engine matrix: mixed-kind rows" `Quick test_matrix_mixed_kinds;
        !:"broadcast accesses under partial masks" `Quick test_broadcast_partial_masks;
        !:"out-of-range broadcast: the oracle's device error" `Quick test_broadcast_out_of_range;
        !:"__shared__ allocated twice in one block" `Quick test_shared_realloc_in_block;
        !:"sparse lane masks: engine = oracle" `Quick test_sparse_masks;
        !:"a launch's allocation does not grow with the grid" `Quick test_launch_allocation;
      ] );
  ]

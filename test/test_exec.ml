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
  let result = Exec.launch machine ~mode:`All ~env p in
  result

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
    (Exec.launch machine ~mode:`All ~env p).Exec.counters
  in
  let unit_stride = run Descriptor.a100 1 and strided = run Descriptor.a100 32 in
  (* 256 consecutive f32 = 32 sectors; stride-32 touches one sector per lane *)
  Alcotest.(check (float 0.1)) "coalesced load sectors" 32. unit_stride.Counters.load_sectors;
  Alcotest.(check (float 0.1)) "strided load sectors" 256. strided.Counters.load_sectors;
  Alcotest.(check (float 0.1)) "requests equal" unit_stride.Counters.global_load_req
    strided.Counters.global_load_req;
  (* one-lane warps: every lane is a request of one sector; 1 KiB of
     unit-stride loads fills 16 of the cpu's 64 B L1 lines and 8 of
     its 128 B L2-slice lines, and the stores that follow hit the
     slice; at stride 32 (128 B) every lane opens a line of each *)
  let unit_stride = run Descriptor.cpu 1 and strided = run Descriptor.cpu 32 in
  let check what expected got = Alcotest.(check (float 0.1)) ("cpu: " ^ what) expected got in
  check "load requests" 256. unit_stride.Counters.global_load_req;
  check "store requests" 256. unit_stride.Counters.global_store_req;
  check "load sectors" 256. unit_stride.Counters.load_sectors;
  check "L1 load misses" 16. unit_stride.Counters.l1_load_miss_sectors;
  check "L2 load misses" 8. unit_stride.Counters.l2_load_miss_sectors;
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
  let sampled = Exec.launch machine ~mode:(`Sample 8) ~env p in
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

(** Random barrier-bearing kernels must behave identically under the
    slot-indexed compiled engine and the interpreter reference mode on
    every target class — NVIDIA and AMD launch geometries plus the
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
      let run target engine =
        let config =
          { (Pgpu_runtime.Runtime.default_config target) with
            Pgpu_runtime.Runtime.engine;
            jobs = 2;
          }
        in
        let results, st =
          Pgpu_runtime.Runtime.run config m [ Exec.UI d.Test_random_kernels.nblocks ]
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
          let oi, ci, ti = run target Engine.Interp in
          let oc, cc, tc = run target Engine.Compiled in
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
(* The one-lane request arm                                             *)
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

(** Up to 40 instructions of 1-64 lanes. Addresses are a base in a
    16 KiB window plus a stride from {0, 4, 8, 64, 132} per lane plus
    a jitter of up to 7 bytes, so lanes share sectors and later
    instructions revisit lines. *)
let arb_mem_insts =
  let inst =
    let open QCheck.Gen in
    let* lanes = int_range 1 64 in
    let* base = int_range 0 16383 and* stride = oneofl [ 0; 4; 8; 64; 132 ] in
    let* jitter = array_repeat lanes (int_range 0 7) and* bits = array_repeat lanes bool in
    let+ store = bool and+ shared = bool and+ sm = int_range 0 15 in
    { addrs = Array.mapi (fun l j -> base + (l * stride) + j) jitter; bits; store; shared; sm }
  in
  let pp ppf i =
    Fmt.pf ppf "%s %s sm%d [%a]"
      (if i.store then "st" else "ld")
      (if i.shared then "shared" else "global")
      i.sm
      Fmt.(array ~sep:sp string)
      (Array.mapi (fun l a -> if i.bits.(l) then string_of_int a else "_") i.addrs)
  in
  QCheck.make
    ~print:(Fmt.str "%a" Fmt.(list ~sep:(any "@\n") pp))
    QCheck.Gen.(list_size (int_range 0 40) inst)

(** At one-lane warps, {!Exec.requests} must leave the same counters,
    after every instruction, as a second machine that runs the warp arm
    on each active lane [l] (one warp instruction plus
    {!Exec.global_request} or {!Exec.shared_request} over [l, l+1)),
    and every L1 and L2 slice with the same hits and misses at the
    end. Both engines call [requests], so the engine-parity properties
    cannot see a fault in the arm; this one compares it against the
    coalescer. *)
let prop_lane_arm =
  QCheck.Test.make ~name:"requests: one-lane arm = per-lane coalescer" ~count:300 arb_mem_insts
    (fun insts ->
      let ma = Exec.create_machine Descriptor.cpu and mb = Exec.create_machine Descriptor.cpu in
      let env = Exec.env_create () in
      List.iteri
        (fun k i ->
          let ctx m = { Exec.m; env; nlanes = Array.length i.addrs; ws = 1; sm = i.sm } in
          let space = if i.shared then Types.Shared else Types.Global in
          let mask = Exec.mk_mask (ctx ma) i.bits in
          Exec.requests (ctx ma) ~is_store:i.store space i.addrs mask;
          let cb = ctx mb in
          Array.iteri
            (fun l active ->
              if active then begin
                let c = mb.Exec.counters in
                c.Counters.warp_insts <- c.Counters.warp_insts +. 1.;
                (if i.shared then Exec.shared_request else Exec.global_request)
                  cb ~is_store:i.store i.addrs mask l (l + 1)
              end)
            i.bits;
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

(** One kernel over [matrix_blocks] blocks of [matrix_threads] lanes:
    operand [k] is a table of constants of element type [ty], read as
    a row or as a per-block uniform; lane [g] stores [f operands] to
    [out[g]]. Row indices differ per operand so binary operators see
    many value pairs. *)
let matrix_module (operands : (Types.t * Instr.const list * shape) list) out_ty
    (f : Builder.t -> Value.t list -> Value.t) =
  Builder.func "main" [] [ Types.Memref (Types.Host, out_ty) ] (fun b ->
      let tables =
        List.map
          (fun (ty, vals, sh) ->
            let len = List.length vals in
            let n = Builder.const_i b len in
            let h = Builder.alloc b Types.Host ty n in
            List.iteri
              (fun i c ->
                Builder.store b h (Builder.const_i b i) (Builder.let_ b ty (Instr.Const c)))
              vals;
            let d = Builder.alloc b Types.Global ty n in
            Builder.add b (Instr.Memcpy { dst = d; src = h; count = n });
            (d, len, sh))
          operands
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

(** Run [m] under both engines on a100 and cpu; outputs must agree
    bitwise, and so must every launch's counters. *)
let check_engines_agree what fn =
  let m = { Instr.funcs = [ fn ] } in
  let run target engine =
    let config =
      { (Pgpu_runtime.Runtime.default_config target) with Pgpu_runtime.Runtime.engine }
    in
    let results, st = Pgpu_runtime.Runtime.run config m [] in
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
      let out_i, cnt_i = run target Engine.Interp in
      let out_c, cnt_c = run target Engine.Compiled in
      if out_i <> out_c then Alcotest.failf "%s on %s: outputs differ" what target.Descriptor.name;
      if cnt_i <> cnt_c then Alcotest.failf "%s on %s: counters differ" what target.Descriptor.name)
    [ Descriptor.a100; Descriptor.cpu ]

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

let suite =
  [
    ( "exec",
      [
        !:"vecadd functional" `Quick test_vecadd_functional;
        !:"vecadd tail guard" `Quick test_vecadd_tail_guard;
        !:"zero-length buffers" `Quick test_zero_length_buffers;
        !:"vecadd with n = 0" `Quick test_vecadd_empty;
        !:"reduction with barriers" `Quick test_reduce_functional;
        !:"coalescing sectors" `Quick test_coalescing;
        !:"divergence counter" `Quick test_divergence_counter;
        !:"partial warps" `Quick test_partial_warp_lanes;
        !:"sampled launch scales counters" `Quick test_sampled_launch_scales;
        !:"shared-memory bank conflicts" `Quick test_bank_conflicts;
        !:"barrier divergence detected" `Quick test_barrier_divergence_detected;
        QCheck_alcotest.to_alcotest prop_engines_agree;
        QCheck_alcotest.to_alcotest prop_cache_clone;
        QCheck_alcotest.to_alcotest prop_lane_arm;
        !:"engine matrix: i32 binops" `Quick (test_matrix_binops Types.I32);
        !:"engine matrix: f32 binops" `Quick (test_matrix_binops Types.F32);
        !:"engine matrix: unops" `Quick test_matrix_unops;
        !:"engine matrix: comparisons" `Quick test_matrix_cmps;
        !:"engine matrix: select" `Quick test_matrix_select;
        !:"engine matrix: casts" `Quick test_matrix_casts;
        !:"engine matrix: mixed-kind rows" `Quick test_matrix_mixed_kinds;
      ] );
  ]

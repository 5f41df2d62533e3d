(** Tests for target descriptors, occupancy, the virtual ISA and the
    register allocator. *)

open Pgpu_ir
open Pgpu_target

let ( !: ) = Alcotest.test_case

let test_table1_shapes () =
  (* the descriptors must reproduce the Table I headline numbers *)
  let close what expected actual tol =
    if Float.abs (expected -. actual) > tol then
      Alcotest.failf "%s: expected %.2f, got %.2f" what expected actual
  in
  close "A4000 f32 TFLOPs" 19.17 (Descriptor.fp32_tflops Descriptor.a4000) 0.5;
  close "A4000 f64 TFLOPs" 0.60 (Descriptor.fp64_tflops Descriptor.a4000) 0.1;
  close "A100 f32 TFLOPs" 19.49 (Descriptor.fp32_tflops Descriptor.a100) 0.5;
  close "A100 f64 TFLOPs" 9.75 (Descriptor.fp64_tflops Descriptor.a100) 0.5;
  close "RX6800 f32 TFLOPs" 16.17 (Descriptor.fp32_tflops Descriptor.rx6800) 0.5;
  close "MI210 f32 TFLOPs" 22.60 (Descriptor.fp32_tflops Descriptor.mi210) 0.5;
  close "MI210 f64 TFLOPs" 22.60 (Descriptor.fp64_tflops Descriptor.mi210) 0.5;
  Alcotest.(check int) "A100 SMs" 108 Descriptor.a100.Descriptor.sm_count;
  Alcotest.(check int) "A4000 SMs" 48 Descriptor.a4000.Descriptor.sm_count;
  Alcotest.(check int) "RX6800 CUs" 60 Descriptor.rx6800.Descriptor.sm_count;
  Alcotest.(check int) "MI210 CUs" 104 Descriptor.mi210.Descriptor.sm_count;
  Alcotest.(check int) "warp sizes" 32 Descriptor.a100.Descriptor.warp_size;
  Alcotest.(check int) "wavefront sizes" 64 Descriptor.mi210.Descriptor.warp_size

let demand threads regs shmem =
  { Occupancy.threads_per_block = threads; regs_per_thread = regs; shmem_per_block = shmem }

let test_occupancy_full () =
  let r = Occupancy.compute_exn Descriptor.a100 (demand 256 32 0) in
  Alcotest.(check int) "blocks/SM" 8 r.Occupancy.blocks_per_sm;
  Alcotest.(check (float 1e-6)) "occupancy" 1.0 r.Occupancy.occupancy

let test_occupancy_register_limited () =
  (* 256 threads at 128 regs: 65536/(128*256) = 2 blocks -> 25% occupancy *)
  let r = Occupancy.compute_exn Descriptor.a100 (demand 256 128 0) in
  Alcotest.(check int) "blocks/SM" 2 r.Occupancy.blocks_per_sm;
  Alcotest.(check string) "limited by registers" "registers" r.Occupancy.limiter;
  Alcotest.(check (float 1e-6)) "occupancy" 0.25 r.Occupancy.occupancy

let test_occupancy_shmem_limited () =
  (* lud-like: 3 KiB per block on the A100 *)
  let r = Occupancy.compute_exn Descriptor.a100 (demand 256 32 3072) in
  Alcotest.(check string) "limited by shmem" "shmem"
    (if r.Occupancy.blocks_per_sm < 8 then r.Occupancy.limiter else "shmem");
  (* 167936 / 3072 = 54 >= 8, so here threads/regs dominate; now scale
     the shared memory as block coarsening does *)
  let r26 = Occupancy.compute Descriptor.a100 (demand 256 32 (2048 * 26)) in
  (match r26 with Ok _ -> () | Error _ -> Alcotest.fail "factor 26 should still fit");
  match Occupancy.compute Descriptor.a100 (demand 256 32 (2048 * 27)) with
  | Error Occupancy.Too_much_shmem -> ()
  | Ok _ | Error _ -> Alcotest.fail "factor 27 must exceed the shared-memory limit (Fig. 14)"

let test_occupancy_partial_warp () =
  (* a 16-thread block still occupies a full warp *)
  let r = Occupancy.compute_exn Descriptor.a100 (demand 16 32 0) in
  Alcotest.(check int) "warps per block" r.Occupancy.blocks_per_sm r.Occupancy.active_warps

let test_occupancy_rejects () =
  (match Occupancy.compute Descriptor.a100 (demand 2048 32 0) with
  | Error Occupancy.Too_many_threads -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected thread rejection");
  match Occupancy.compute Descriptor.a100 (demand 256 300 0) with
  | Error Occupancy.Too_many_regs -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected register rejection"

(* --- virtual ISA and register allocation --- *)

let straightline_chain n =
  (* x0 = c; x1 = x0+x0; ...: a dependency chain needs few registers *)
  let b = Builder.create () in
  let v0 = Builder.const_i b 1 in
  let rec go v k = if k = 0 then v else go (Builder.add_ b v v) (k - 1) in
  ignore (go v0 n);
  Builder.finish b

let wide_block n =
  (* n independent constants all summed at the end: needs ~n registers *)
  let b = Builder.create () in
  let vs = List.init n (fun i -> Builder.const_i b i) in
  ignore (List.fold_left (fun acc v -> Builder.add_ b acc v) (List.hd vs) (List.tl vs));
  Builder.finish b

let test_regalloc_chain_vs_wide () =
  let chain = Regalloc.allocate ~budget:255 (Visa.lower (straightline_chain 40)) in
  let wide = Regalloc.allocate ~budget:255 (Visa.lower (wide_block 40)) in
  Alcotest.(check bool)
    (Fmt.str "wide (%d) uses more registers than chain (%d)" wide.Regalloc.regs_used
       chain.Regalloc.regs_used)
    true
    (wide.Regalloc.regs_used > chain.Regalloc.regs_used);
  Alcotest.(check int) "no spills within budget" 0 wide.Regalloc.spilled

let test_regalloc_spills () =
  let wide = Regalloc.allocate ~budget:16 (Visa.lower (wide_block 64)) in
  Alcotest.(check bool) "spills under a tiny budget" true (wide.Regalloc.spilled > 0);
  Alcotest.(check bool) "spill instructions estimated" true (wide.Regalloc.spill_instructions > 0)

(* A plain reference allocator: it re-sorts the active list on every
   insert, filters out expired intervals and takes [List.length] for
   pressure. [Regalloc.allocate] must agree with it exactly. *)
module Reference_regalloc = struct
  type interval = { reg : int; start : int; stop : int }

  let intervals_of (p : Visa.program) =
    let def_at = Array.make (max 1 p.Visa.nvregs) max_int in
    let end_at = Array.make (max 1 p.Visa.nvregs) (-1) in
    Array.iteri
      (fun idx (vi : Visa.vinstr) ->
        List.iter
          (fun r ->
            if def_at.(r) = max_int then def_at.(r) <- idx;
            end_at.(r) <- max end_at.(r) idx)
          (vi.Visa.defs @ vi.Visa.srcs))
      p.Visa.code;
    let loops =
      List.sort
        (fun (a : Visa.loop) b -> compare (a.Visa.stop - a.Visa.start) (b.Visa.stop - b.Visa.start))
        p.Visa.loops
    in
    List.iter
      (fun (l : Visa.loop) ->
        Array.iteri
          (fun r d ->
            if d < max_int && d <= l.Visa.start && end_at.(r) > l.Visa.start then
              end_at.(r) <- max end_at.(r) l.Visa.stop)
          def_at)
      loops;
    let acc = ref [] in
    Array.iteri
      (fun r d -> if d < max_int then acc := { reg = r; start = d; stop = end_at.(r) } :: !acc)
      def_at;
    List.sort (fun a b -> compare (a.start, a.reg) (b.start, b.reg)) !acc

  let allocate ~budget (p : Visa.program) : Regalloc.result =
    let spilled = ref 0 and spill_instructions = ref 0 and regs_used = ref 0 in
    let active = ref [] in
    let insert iv = active := List.sort (fun a b -> compare a.stop b.stop) (iv :: !active) in
    List.iter
      (fun iv ->
        active := List.filter (fun a -> a.stop >= iv.start) !active;
        if List.length !active >= budget then begin
          let furthest = List.fold_left (fun m a -> if a.stop > m.stop then a else m) iv !active in
          incr spilled;
          spill_instructions := !spill_instructions + 1 + p.Visa.use_counts.(furthest.reg);
          if furthest.reg <> iv.reg then begin
            active := List.filter (fun a -> a.reg <> furthest.reg) !active;
            insert iv
          end
        end
        else begin
          insert iv;
          regs_used := max !regs_used (List.length !active)
        end)
      (intervals_of p);
    {
      Regalloc.regs_used = !regs_used;
      spilled = !spilled;
      spill_instructions = !spill_instructions;
    }
end

(* straight-line code over a few registers with arbitrary loop spans,
   so small budgets spill *)
let gen_program =
  QCheck.Gen.(
    let* nvregs = int_range 1 24 in
    let* len = int_range 1 40 in
    let reg = int_bound (nvregs - 1) in
    let vinstr =
      let* defs = list_size (int_bound 2) reg in
      let* srcs = list_size (int_bound 3) reg in
      return { Visa.kind = Visa.Int; defs; srcs }
    in
    let* code = array_size (return len) vinstr in
    let span =
      let* a = int_bound (len - 1) and* b = int_bound (len - 1) in
      return { Visa.start = min a b; stop = max a b }
    in
    let* loops = list_size (int_bound 3) span in
    let use_counts = Array.make nvregs 0 in
    Array.iter
      (fun (vi : Visa.vinstr) ->
        List.iter (fun r -> use_counts.(r) <- use_counts.(r) + 1) vi.Visa.srcs)
      code;
    return { Visa.code; loops; nvregs; use_counts })

let pp_program ppf (p : Visa.program) =
  let regs = Fmt.(list ~sep:(any ",") int) in
  let pp_vinstr ppf (vi : Visa.vinstr) = Fmt.pf ppf "%a<-%a" regs vi.Visa.defs regs vi.Visa.srcs in
  let pp_loop ppf (l : Visa.loop) = Fmt.pf ppf "%d-%d" l.Visa.start l.Visa.stop in
  Fmt.pf ppf "nvregs=%d code=[%a] loops=[%a]" p.Visa.nvregs
    Fmt.(array ~sep:(any "; ") pp_vinstr)
    p.Visa.code
    Fmt.(list ~sep:(any "; ") pp_loop)
    p.Visa.loops

let prop_regalloc_matches_reference =
  QCheck.Test.make ~name:"regalloc matches the re-sorting reference" ~count:500
    (QCheck.make
       ~print:(fun (budget, p) -> Fmt.str "budget=%d %a" budget pp_program p)
       QCheck.Gen.(pair (int_range 1 8) gen_program))
    (fun (budget, p) -> Regalloc.allocate ~budget p = Reference_regalloc.allocate ~budget p)

let test_visa_mix () =
  let b = Builder.create () in
  let mem = Value.fresh ~hint:"g" (Types.Memref (Types.Global, Types.F32)) in
  let i0 = Builder.const_i b 0 in
  let x = Builder.load b mem i0 in
  let y = Builder.mul_ b x x in
  let z = Builder.let_ b Types.F32 (Instr.Unop (Ops.Sqrt, y)) in
  Builder.store b mem i0 z;
  let p = Visa.lower (Builder.finish b) in
  let mix = Visa.instruction_mix p in
  Alcotest.(check int) "global mem ops" 2 mix.Visa.n_mem_global;
  Alcotest.(check int) "sfu ops" 1 mix.Visa.n_sfu;
  Alcotest.(check bool) "fp ops present" true (mix.Visa.n_fp >= 1)

let test_loop_liveness () =
  (* a value defined before a loop and used inside must be live across
     the whole loop: the allocator must not reuse its register *)
  let b = Builder.create () in
  let acc0 = Builder.const_f b 0. in
  let c0 = Builder.const_i b 0 and c10 = Builder.const_i b 10 and c1 = Builder.const_i b 1 in
  let invariant = Builder.const_f b 3.14 in
  let _results =
    Builder.for_ b c0 c10 c1 [ acc0 ] (fun inner _iv args ->
        [ Builder.add_ inner invariant (List.hd args) ])
  in
  let p = Visa.lower (Builder.finish b) in
  Alcotest.(check bool) "loop recorded" true (List.length p.Visa.loops >= 1);
  let r = Regalloc.allocate ~budget:255 p in
  Alcotest.(check bool) "some registers in use" true (r.Regalloc.regs_used > 0)

let test_backend_statistics () =
  (* block-coarsening-like duplication of shared memory must be seen by
     the static shared memory analysis *)
  let n = Value.fresh ~hint:"n" Types.I32 in
  let mk nalloc =
    let b = Builder.create () in
    ignore
      (Builder.parallel b Instr.Blocks [ n ] (fun bb _ _ ->
           for _ = 1 to nalloc do
             ignore (Builder.alloc_shared bb Types.F32 256)
           done;
           ignore (Builder.parallel bb Instr.Threads [ n ] (fun tb _ tivs ->
               ignore (Builder.add_ tb (List.hd tivs) (List.hd tivs))))));
    Builder.finish b
  in
  let s1 = Backend.analyze Descriptor.a100 (mk 1) in
  let s2 = Backend.analyze Descriptor.a100 (mk 2) in
  Alcotest.(check int) "1 KiB" 1024 s1.Backend.static_shmem;
  Alcotest.(check int) "2 KiB" 2048 s2.Backend.static_shmem

let test_parallelism_estimate () =
  let ilp_chain, _ = Backend.parallelism (Visa.lower (straightline_chain 30)) in
  let ilp_wide, _ = Backend.parallelism (Visa.lower (wide_block 30)) in
  Alcotest.(check bool)
    (Fmt.str "wide ILP (%.1f) > chain ILP (%.1f)" ilp_wide ilp_chain)
    true (ilp_wide > ilp_chain)

let suite =
  [
    ( "target",
      [
        !:"table1 shapes" `Quick test_table1_shapes;
        !:"occupancy full" `Quick test_occupancy_full;
        !:"occupancy register limited" `Quick test_occupancy_register_limited;
        !:"occupancy shmem limit (lud fig14)" `Quick test_occupancy_shmem_limited;
        !:"occupancy partial warp" `Quick test_occupancy_partial_warp;
        !:"occupancy rejections" `Quick test_occupancy_rejects;
        !:"regalloc chain vs wide" `Quick test_regalloc_chain_vs_wide;
        !:"regalloc spills" `Quick test_regalloc_spills;
        QCheck_alcotest.to_alcotest prop_regalloc_matches_reference;
        !:"visa instruction mix" `Quick test_visa_mix;
        !:"visa loop liveness" `Quick test_loop_liveness;
        !:"backend shared memory statistics" `Quick test_backend_statistics;
        !:"backend parallelism estimate" `Quick test_parallelism_estimate;
      ] );
  ]

(** Tests for the transformation library: unroll-and-interleave,
    thread/block coarsening (functional equivalence with the
    uncoarsened kernel), alternatives pruning, and the scalar cleanup
    passes. *)

open Pgpu_ir
open Pgpu_transforms
module Descriptor = Pgpu_target.Descriptor
module Runtime = Pgpu_runtime.Runtime
module Exec = Pgpu_gpusim.Exec

let ( !: ) = Alcotest.test_case

(** Compile with the given coarsening specs (identity is prepended so
    alternatives always have a baseline), pick a fixed alternative, and
    run. *)
let compile_and_run ?(target = Descriptor.a100) ?(optimize = true) ?(specs = []) ?(tune = false)
    ?(fixed = 0) m args =
  let opts =
    { (Pipeline.default_options target) with Pipeline.optimize; coarsen_specs = specs }
  in
  let m', report = Pipeline.compile opts m in
  let config = { (Runtime.default_config target) with Runtime.tune; fixed_choice = fixed } in
  let results, st = Runtime.run config m' args in
  (results, st, report)

let output_of results = Runtime.buffer_contents (List.hd results)

(* ------------------------------------------------------------------ *)
(* Unroll-and-interleave structure                                     *)
(* ------------------------------------------------------------------ *)

let simple_parallel () =
  let n = Value.fresh ~hint:"n" Types.I32 in
  let buf = Value.fresh ~hint:"g" (Types.Memref (Types.Global, Types.F32)) in
  let b = Builder.create () in
  ignore
    (Builder.parallel b Instr.Blocks [ n ] (fun bb _ ivs ->
         let i = List.hd ivs in
         let v = Builder.load bb buf i in
         let w = Builder.add_ bb v v in
         Builder.store bb buf i w));
  match Builder.finish b with [ p ] -> (p, n, buf) | _ -> assert false

let count_deep pred block =
  let n = ref 0 in
  Instr.iter_deep (fun i -> if pred i then incr n) block;
  !n

let test_unroll_structure () =
  let p, _, _ = simple_parallel () in
  let lets, p' = Interleave.unroll_parallel ~mapping:Interleave.Blocked ~dim:0 ~factor:4 p in
  (* prefix computes the new upper bound *)
  Alcotest.(check bool) "prefix nonempty" true (List.length lets >= 2);
  match p' with
  | Instr.Parallel { body; _ } ->
      let loads = count_deep (function Instr.Let (_, Instr.Load _) -> true | _ -> false) [ p' ] in
      let stores = count_deep (function Instr.Store _ -> true | _ -> false) [ p' ] in
      Alcotest.(check int) "4 loads" 4 loads;
      Alcotest.(check int) "4 stores" 4 stores;
      ignore body
  | _ -> Alcotest.fail "expected parallel"

let test_unroll_collapses_barriers () =
  (* a barrier in the unrolled loop must appear exactly once after
     interleaving *)
  let n = Value.fresh ~hint:"n" Types.I32 in
  let b = Builder.create () in
  ignore
    (Builder.parallel b Instr.Threads [ n ] (fun tb tpid ivs ->
         ignore (Builder.add_ tb (List.hd ivs) (List.hd ivs));
         Builder.barrier tb tpid;
         ignore (Builder.mul_ tb (List.hd ivs) (List.hd ivs))));
  let p = match Builder.finish b with [ p ] -> p | _ -> assert false in
  let _, p' = Interleave.unroll_parallel ~mapping:Interleave.Cyclic ~dim:0 ~factor:8 p in
  let barriers = count_deep (function Instr.Barrier _ -> true | _ -> false) [ p' ] in
  Alcotest.(check int) "one barrier" 1 barriers

(* ------------------------------------------------------------------ *)
(* Coarsening functional equivalence                                   *)
(* ------------------------------------------------------------------ *)

let spec_bt ?(bm = Interleave.Blocked) ?(tm = Interleave.Cyclic) b t =
  Coarsen.spec
    ~block:(Coarsen.Explicit (Coarsen.of_list b))
    ~thread:(Coarsen.Explicit (Coarsen.of_list t))
    ~block_mapping:bm ~thread_mapping:tm ()

let identity_spec = spec_bt [ 1 ] [ 1 ]

let run_coarsened ?target ?tm ?bm m args ~block ~thread =
  let specs = [ identity_spec; spec_bt ?bm ?tm block thread ] in
  let results, st, report = compile_and_run ?target ~specs ~fixed:1 m args in
  (* make sure the coarsened version actually survived pruning and ran *)
  (match report.Pipeline.kernels with
  | { Pipeline.candidates; _ } :: _ ->
      let kept =
        List.filter (fun c -> c.Alternatives.decision = Alternatives.Kept) candidates
      in
      if List.length kept < 2 then
        Alcotest.failf "coarsened variant was pruned: %a"
          Fmt.(list ~sep:comma Alternatives.pp_decision)
          (List.map (fun c -> c.Alternatives.decision) candidates)
  | [] -> Alcotest.fail "no kernel report");
  (output_of results, st)

let test_thread_coarsen_vecadd () =
  let expected = Kernels.vecadd_expected 1000 in
  List.iter
    (fun t ->
      let got, _ =
        run_coarsened (Kernels.vecadd_module ()) [ Exec.UI 1000 ] ~block:[ 1 ] ~thread:[ t ]
      in
      Kernels.check_floats ~tol:1e-9 (Fmt.str "vecadd thread x%d" t) expected got)
    [ 2; 4; 8 ]

let test_block_coarsen_vecadd_divisor () =
  (* n = 1024 -> grid of 4 blocks; factor 2 divides *)
  let expected = Kernels.vecadd_expected 1024 in
  let got, _ =
    run_coarsened (Kernels.vecadd_module ()) [ Exec.UI 1024 ] ~block:[ 2 ] ~thread:[ 1 ]
  in
  Kernels.check_floats ~tol:1e-9 "vecadd block x2" expected got

let test_block_coarsen_vecadd_epilogue () =
  (* n = 1000 -> grid of 4 blocks; factor 3 leaves a remainder block *)
  let expected = Kernels.vecadd_expected 1000 in
  let got, st =
    run_coarsened (Kernels.vecadd_module ()) [ Exec.UI 1000 ] ~block:[ 3 ] ~thread:[ 1 ]
  in
  Kernels.check_floats ~tol:1e-9 "vecadd block x3 + epilogue" expected got;
  (* the epilogue is a second grid launch inside the same wrapper *)
  Alcotest.(check int) "two launches" 2 (List.length (Runtime.records st))

let test_coarsen_reduce_with_barriers () =
  let expected = Kernels.reduce_expected 7 in
  List.iter
    (fun (b, t) ->
      let got, _ = run_coarsened (Kernels.reduce_module ()) [ Exec.UI 7 ] ~block:b ~thread:t in
      Kernels.check_floats ~tol:1e-6
        (Fmt.str "reduce block%a thread%a" Fmt.(Dump.list int) b Fmt.(Dump.list int) t)
        expected got)
    [ ([ 2 ], [ 1 ]); ([ 1 ], [ 2 ]); ([ 1 ], [ 4 ]); ([ 2 ], [ 2 ]); ([ 3 ], [ 4 ]) ]

let test_coarsen_2d_tile () =
  let expected = Kernels.tile_avg_expected 4 in
  List.iter
    (fun (b, t) ->
      let got, _ = run_coarsened (Kernels.tile_avg_module ()) [ Exec.UI 4 ] ~block:b ~thread:t in
      Kernels.check_floats ~tol:1e-6
        (Fmt.str "tile_avg block%a thread%a" Fmt.(Dump.list int) b Fmt.(Dump.list int) t)
        expected got)
    [ ([ 2; 1 ], [ 1; 1 ]); ([ 1; 2 ], [ 1; 1 ]); ([ 2; 2 ], [ 2; 1 ]); ([ 3; 1 ], [ 1; 2 ]) ]

let test_thread_coarsen_blocked_mapping () =
  (* the blocked (naive) thread mapping must also be functionally
     correct, even though it destroys coalescing *)
  let expected = Kernels.reduce_expected 4 in
  let got, _ =
    run_coarsened ~tm:Interleave.Blocked (Kernels.reduce_module ()) [ Exec.UI 4 ] ~block:[ 1 ]
      ~thread:[ 4 ]
  in
  Kernels.check_floats ~tol:1e-6 "reduce thread x4 blocked" expected got

let test_block_coarsen_cyclic_mapping () =
  let expected = Kernels.vecadd_expected 1024 in
  let got, _ =
    run_coarsened ~bm:Interleave.Cyclic (Kernels.vecadd_module ()) [ Exec.UI 1024 ]
      ~block:[ 2 ] ~thread:[ 1 ]
  in
  Kernels.check_floats ~tol:1e-9 "vecadd block x2 cyclic" expected got

let test_thread_factor_must_divide () =
  let m = Kernels.vecadd_module () in
  let specs = [ identity_spec; spec_bt [ 1 ] [ 3 ] ] in
  let _, _, report = compile_and_run ~specs ~fixed:0 m [ Exec.UI 256 ] in
  match report.Pipeline.kernels with
  | { Pipeline.candidates = [ _; c ]; _ } :: _ -> (
      match c.Alternatives.decision with
      | Alternatives.Rejected_illegal _ -> ()
      | d -> Alcotest.failf "expected divisor rejection, got %a" Alternatives.pp_decision d)
  | _ -> Alcotest.fail "unexpected report shape"

let test_non_positive_factors_illegal () =
  let specs = Pipeline.specs_of_totals [ (1, 1); (0, 1); (1, -2) ] in
  let _, _, report =
    compile_and_run ~specs ~fixed:0 (Kernels.vecadd_module ()) [ Exec.UI 256 ]
  in
  match report.Pipeline.kernels with
  | [ { Pipeline.candidates = [ id; c0; c1 ]; _ } ] ->
      Alcotest.(check bool) "identity kept" true (id.Alternatives.decision = Alternatives.Kept);
      List.iter
        (fun c ->
          match c.Alternatives.decision with
          | Alternatives.Rejected_illegal _ -> ()
          | d ->
              Alcotest.failf "%s: expected illegal, got %a" c.Alternatives.desc
                Alternatives.pp_decision d)
        [ c0; c1 ]
  | _ -> Alcotest.fail "unexpected report shape"

let test_block_coarsen_illegal_divergent_barrier () =
  let m = Kernels.block_divergent_barrier_module () in
  let specs = [ identity_spec; spec_bt [ 2 ] [ 1 ] ] in
  let _, _, report = compile_and_run ~specs ~fixed:0 m [ Exec.UI 6 ] in
  match report.Pipeline.kernels with
  | { Pipeline.candidates = [ _; c ]; _ } :: _ -> (
      match c.Alternatives.decision with
      | Alternatives.Rejected_illegal _ -> ()
      | d -> Alcotest.failf "expected illegality, got %a" Alternatives.pp_decision d)
  | _ -> Alcotest.fail "unexpected report shape"

let test_thread_coarsen_divergent_barrier_ok () =
  (* thread coarsening of the same kernel is legal: the block-dependent
     condition is uniform across thread copies *)
  let m = Kernels.block_divergent_barrier_module () in
  let baseline, _, _ = compile_and_run ~specs:[] m [ Exec.UI 6 ] in
  let got, _ =
    run_coarsened (Kernels.block_divergent_barrier_module ()) [ Exec.UI 6 ] ~block:[ 1 ]
      ~thread:[ 2 ]
  in
  Kernels.check_floats ~tol:1e-9 "divergent-barrier thread x2" (output_of baseline) got

(* ------------------------------------------------------------------ *)
(* Alternatives and TDO                                                *)
(* ------------------------------------------------------------------ *)

let test_alternatives_tdo () =
  let specs =
    Pipeline.specs_of_totals [ (1, 1); (2, 1); (1, 2); (4, 2) ]
  in
  let expected = Kernels.reduce_expected 12 in
  let results, st, _ = compile_and_run ~specs ~tune:true (Kernels.reduce_module ()) [ Exec.UI 12 ] in
  Kernels.check_floats ~tol:1e-6 "reduce TDO" expected (output_of results);
  (* a choice must have been committed and the chosen alternative recorded *)
  match Runtime.records st with
  | r :: _ -> Alcotest.(check bool) "alternative recorded" true (r.Runtime.alternative <> None)
  | [] -> Alcotest.fail "no launch records"

let test_shmem_pruning () =
  (* block-coarsening the reduce kernel multiplies its 1 KiB of shared
     memory; a factor of 128 exceeds the A100 per-block limit *)
  let specs = [ identity_spec; spec_bt [ 128 ] [ 1 ] ] in
  let _, _, report =
    compile_and_run ~specs ~fixed:0 (Kernels.reduce_module ()) [ Exec.UI 256 ]
  in
  match report.Pipeline.kernels with
  | { Pipeline.candidates = [ _; c ]; _ } :: _ -> (
      match c.Alternatives.decision with
      | Alternatives.Rejected_shmem _ -> ()
      | d -> Alcotest.failf "expected shmem rejection, got %a" Alternatives.pp_decision d)
  | _ -> Alcotest.fail "unexpected report shape"

(* ------------------------------------------------------------------ *)
(* Scalar passes                                                       *)
(* ------------------------------------------------------------------ *)

let test_canonicalize_folds () =
  let b = Builder.create () in
  let x = Builder.const_i b 6 in
  let y = Builder.const_i b 7 in
  let z = Builder.mul_ b x y in
  Builder.return b [ z ];
  let f = { Instr.fname = "f"; params = []; ret = [ Types.I32 ]; body = Builder.finish b } in
  let f' = Canonicalize.run_func f in
  let has42 =
    List.exists
      (function Instr.Let (_, Instr.Const (Instr.Ci 42)) -> true | _ -> false)
      f'.Instr.body
  in
  Alcotest.(check bool) "6*7 folded to 42" true has42

let test_canonicalize_if_const () =
  let b = Builder.create () in
  let one = Builder.const_i b 1 in
  let t = Builder.cmp b Ops.Eq one one in
  let r =
    Builder.if_ b t [ Types.I32 ]
      (fun ib -> [ Builder.const_i ib 10 ])
      (fun ib -> [ Builder.const_i ib 20 ])
  in
  Builder.return b [ List.hd r ];
  let f = { Instr.fname = "f"; params = []; ret = [ Types.I32 ]; body = Builder.finish b } in
  let f' = Canonicalize.run_func f in
  let ifs = count_deep (function Instr.If _ -> true | _ -> false) f'.Instr.body in
  Alcotest.(check int) "if eliminated" 0 ifs

let test_cse_dedupes () =
  let p = Value.fresh ~hint:"p" Types.I32 in
  let b = Builder.create () in
  let x = Builder.add_ b p p in
  let y = Builder.add_ b p p in
  let z = Builder.mul_ b x y in
  Builder.return b [ z ];
  let f = { Instr.fname = "f"; params = [ p ]; ret = [ Types.I32 ]; body = Builder.finish b } in
  let f' = Cse.run_func f |> Dce.run_func in
  let adds =
    count_deep (function Instr.Let (_, Instr.Binop (Ops.Add, _, _)) -> true | _ -> false)
      f'.Instr.body
  in
  Alcotest.(check int) "one add remains" 1 adds

let test_load_cse_blocked_by_store () =
  let mem = Value.fresh ~hint:"m" (Types.Memref (Types.Host, Types.F32)) in
  let i = Value.fresh ~hint:"i" Types.I32 in
  let b = Builder.create () in
  let a = Builder.load b mem i in
  let a2 = Builder.load b mem i in
  Builder.store b mem i (Builder.add_ b a a2);
  let c = Builder.load b mem i in
  let d = Builder.load b mem i in
  Builder.store b mem i (Builder.add_ b c d);
  Builder.return b [];
  let f =
    { Instr.fname = "f"; params = [ mem; i ]; ret = []; body = Builder.finish b }
  in
  let f' = Cse.run_func f |> Dce.run_func in
  let loads = count_deep (function Instr.Let (_, Instr.Load _) -> true | _ -> false) f'.Instr.body in
  (* the two loads before the first store merge; the store forwards its
     value so the loads after it disappear entirely *)
  Alcotest.(check int) "loads after CSE" 1 loads

(* a kernel that re-reads a[i] in a loop after storing it: load
   knowledge from before the loop is stale from the second iteration *)
let loop_rmw_src loop =
  Fmt.str
    {|
__global__ void k(float* a, int n) {
  int i = threadIdx.x;
  float s = a[i];
  %s
  a[i] = a[i] + s;
}

float* main(int n) {
  float* ha = (float*)malloc(4 * sizeof(float));
  for (int i = 0; i < 4; i++) ha[i] = 10.0f;
  float* da;
  cudaMalloc((void**)&da, 4 * sizeof(float));
  cudaMemcpy(da, ha, 4 * sizeof(float), cudaMemcpyHostToDevice);
  k<<<1, 4>>>(da, n);
  cudaMemcpy(ha, da, 4 * sizeof(float), cudaMemcpyDeviceToHost);
  return ha;
}
|}
    loop

let check_loop_rmw name loop expected () =
  let run optimize =
    let m = Pgpu_frontend.Frontend.compile_string (loop_rmw_src loop) in
    let results, _, _ = compile_and_run ~optimize m [ Exec.UI 3 ] in
    output_of results
  in
  let want = List.init 4 (fun _ -> expected) in
  Kernels.check_floats ~tol:0. (name ^ " without scalar passes") want (run false);
  Kernels.check_floats ~tol:0. name want (run true)

let test_cse_for_carried_store =
  check_loop_rmw "for" "for (int j = 0; j < n; j++) a[i] = a[i] + 1.0f;" 23.

let test_cse_for_forwarded_store =
  check_loop_rmw "forwarded store before for"
    "a[i] = s * 2.0f; for (int j = 0; j < n; j++) a[i] = a[i] + 1.0f;" 33.

let test_cse_while_carried_store =
  check_loop_rmw "do-while" "int j = 0; do { a[i] = a[i] + 1.0f; j++; } while (j < n);" 23.

let count_loads block = count_deep (function Instr.Let (_, Instr.Load _) -> true | _ -> false) block

let host_f32 () = Value.fresh ~hint:"m" (Types.Memref (Types.Host, Types.F32))

let count_binops op block =
  count_deep (function Instr.Let (_, Instr.Binop (o, _, _)) -> o = op | _ -> false) block

let test_cse_if_scope () =
  (* a definition inside a branch does not dominate the code after the
     if *)
  let p = Value.fresh ~hint:"p" Types.I32 and c = Value.fresh ~hint:"c" Types.I1 in
  let f =
    Builder.func "f" [ p; c ] [ Types.I32 ] (fun b ->
        let r =
          Builder.if_ b c [ Types.I32 ] (fun ib -> [ Builder.add_ ib p p ]) (fun _ -> [ p ])
        in
        let y = Builder.add_ b p p in
        Builder.return b [ Builder.mul_ b y (List.hd r) ])
  in
  let f' = Cse.run_func f in
  Alcotest.(check int) "no rewrites" 0 (Cse.rewrite_count ());
  let outside = List.filter (function Instr.If _ -> false | _ -> true) f'.Instr.body in
  Alcotest.(check int) "add after the if kept" 1 (count_binops Ops.Add outside)

let test_cse_then_store_kills () =
  (* a store in the then-branch clears load knowledge for the
     else-branch and for the code after the if *)
  let mem = host_f32 () and i = Value.fresh ~hint:"i" Types.I32 in
  let c = Value.fresh ~hint:"c" Types.I1 in
  let f =
    Builder.func "f" [ mem; i; c ] [ Types.F32 ] (fun b ->
        let a = Builder.load b mem i in
        let r =
          Builder.if_ b c [ Types.F32 ]
            (fun ib ->
              Builder.store ib mem i (Builder.const_f ib 1.);
              [ a ])
            (fun ib -> [ Builder.load ib mem i ])
        in
        let d = Builder.load b mem i in
        Builder.return b [ Builder.add_ b (List.hd r) d ])
  in
  Alcotest.(check int) "all three loads kept" 3 (count_loads (Cse.run_func f).Instr.body)

let test_cse_store_free_loop_inherits () =
  (* memory a loop body never writes keeps the value loaded before it *)
  let mem = host_f32 () and i = Value.fresh ~hint:"i" Types.I32 in
  let f =
    Builder.func "f" [ mem; i ] [ Types.F32 ] (fun b ->
        let a = Builder.load b mem i in
        let c0 = Builder.const_i b 0 and c4 = Builder.const_i b 4 and c1 = Builder.const_i b 1 in
        let r =
          Builder.for_ b c0 c4 c1 [ a ] (fun fb _ args ->
              [ Builder.add_ fb (List.hd args) (Builder.load fb mem i) ])
        in
        Builder.return b r)
  in
  Alcotest.(check int) "loop load reuses the one before" 1 (count_loads (Cse.run_func f).Instr.body)

let test_cse_commutative () =
  let p = Value.fresh ~hint:"p" Types.I32 and q = Value.fresh ~hint:"q" Types.I32 in
  let f =
    Builder.func "f" [ p; q ] [ Types.I32 ] (fun b ->
        let x = Builder.add_ b p q and y = Builder.add_ b q p in
        let u = Builder.sub_ b p q and w = Builder.sub_ b q p in
        Builder.return b [ Builder.mul_ b (Builder.mul_ b x y) (Builder.mul_ b u w) ])
  in
  let body = (Cse.run_func f |> Dce.run_func).Instr.body in
  Alcotest.(check int) "add p q = add q p" 1 (count_binops Ops.Add body);
  Alcotest.(check int) "sub p q <> sub q p" 2 (count_binops Ops.Sub body)

let test_cse_constant_keys () =
  (* constants merge only with the same type and the same bits; NaNs
     are one constant per sign *)
  let f =
    Builder.func "f" [] [] (fun b ->
        Builder.return b
          (List.map
             (fun (ty, c) -> Builder.let_ b ty (Instr.Const c))
             Types.
               [
                 (I32, Instr.Ci 1);
                 (I64, Instr.Ci 1);
                 (I32, Instr.Ci 1);
                 (F32, Instr.Cf 0.);
                 (F32, Instr.Cf (-0.));
                 (F64, Instr.Cf 0.);
                 (F32, Instr.Cf 0.);
                 (F32, Instr.Cf Float.nan);
                 (F32, Instr.Cf (Int64.float_of_bits 0x7FF0_0000_0000_0123L));
                 (F32, Instr.Cf (-.Float.nan));
               ]))
  in
  let f' = Cse.run_func f |> Dce.run_func in
  let kept =
    List.filter_map
      (function Instr.Let (v, Instr.Const c) -> Some (v.Value.ty, c) | _ -> None)
      f'.Instr.body
  in
  let pp_const ppf (ty, c) =
    match c with
    | Instr.Ci n -> Fmt.pf ppf "%a %d" Types.pp ty n
    | Instr.Cf x -> Fmt.pf ppf "%a %h" Types.pp ty x
  in
  Alcotest.(check (list string))
    "distinct constants"
    [ "i32 1"; "i64 1"; "f32 0x0p+0"; "f32 -0x0p+0"; "f64 0x0p+0"; "f32 nan"; "f32 -nan" ]
    (List.map (Fmt.str "%a" pp_const) kept);
  Alcotest.(check int) "rewrites" 3 (Cse.rewrite_count ())

let test_dce_removes_dead () =
  let b = Builder.create () in
  let x = Builder.const_i b 5 in
  let _dead = Builder.add_ b x x in
  Builder.return b [ x ];
  let f = { Instr.fname = "f"; params = []; ret = [ Types.I32 ]; body = Builder.finish b } in
  let f' = Dce.run_func f in
  Alcotest.(check int) "dead add removed" 0
    (count_deep (function Instr.Let (_, Instr.Binop _) -> true | _ -> false) f'.Instr.body)

let test_licm_hoists () =
  let p = Value.fresh ~hint:"p" Types.I32 in
  let b = Builder.create () in
  let c0 = Builder.const_i b 0 and c10 = Builder.const_i b 10 and c1 = Builder.const_i b 1 in
  let acc0 = Builder.const_i b 0 in
  let res =
    Builder.for_ b c0 c10 c1 [ acc0 ] (fun fb _iv args ->
        let inv = Builder.mul_ fb p p in
        [ Builder.add_ fb (List.hd args) inv ])
  in
  Builder.return b [ List.hd res ];
  let f = { Instr.fname = "f"; params = [ p ]; ret = [ Types.I32 ]; body = Builder.finish b } in
  let f' = Licm.run_func f in
  (* the multiply must now precede the loop at top level *)
  let rec top_muls = function
    | [] -> 0
    | Instr.Let (_, Instr.Binop (Ops.Mul, _, _)) :: rest -> 1 + top_muls rest
    | Instr.For _ :: rest -> top_muls rest
    | _ :: rest -> top_muls rest
  in
  Alcotest.(check int) "mul hoisted to top level" 1 (top_muls f'.Instr.body);
  let in_loop = ref 0 in
  List.iter
    (function
      | Instr.For { body; _ } ->
          in_loop := count_deep (function Instr.Let (_, Instr.Binop (Ops.Mul, _, _)) -> true | _ -> false) body
      | _ -> ())
    f'.Instr.body;
  Alcotest.(check int) "no mul left in loop" 0 !in_loop

(* ------------------------------------------------------------------ *)
(* Property tests                                                      *)
(* ------------------------------------------------------------------ *)

let prop_coarsened_equivalence =
  QCheck.Test.make ~name:"coarsened reduce matches baseline" ~count:12
    QCheck.(pair (int_range 1 4) (pair (int_range 0 2) (int_range 1 9)))
    (fun (bf, (te, nb)) ->
      let tf = 1 lsl te in
      let expected = Kernels.reduce_expected nb in
      let got, _ =
        run_coarsened (Kernels.reduce_module ()) [ Exec.UI nb ] ~block:[ bf ] ~thread:[ tf ]
      in
      List.for_all2 (fun e a -> Float.abs (e -. a) < 1e-6 *. (1. +. Float.abs e)) expected got)

let prop_vecadd_any_factor =
  QCheck.Test.make ~name:"coarsened vecadd matches baseline" ~count:12
    QCheck.(pair (int_range 1 5) (int_range 1 40))
    (fun (bf, blocks) ->
      let n = (blocks * 256) - 37 in
      let expected = Kernels.vecadd_expected n in
      let got, _ =
        run_coarsened (Kernels.vecadd_module ()) [ Exec.UI n ] ~block:[ bf ] ~thread:[ 2 ]
      in
      List.for_all2 (fun e a -> Float.abs (e -. a) < 1e-9 *. (1. +. Float.abs e)) expected got)

(* ------------------------------------------------------------------ *)
(* Barrier elimination                                                 *)
(* ------------------------------------------------------------------ *)

let threads_body block =
  let body = ref None in
  Instr.iter_deep
    (fun i ->
      match i with
      | Instr.Parallel { level = Instr.Threads; body = b; _ } when !body = None -> body := Some b
      | _ -> ())
    block;
  Option.get !body

let thread_body_of m =
  threads_body (List.concat_map (fun (f : Instr.func) -> f.Instr.body) m.Instr.funcs)

let count_barriers block = count_deep (function Instr.Barrier _ -> true | _ -> false) block

let test_barrier_elim_removes_vacuous () =
  (* a kernel with a barrier before any memory access and one after the
     last: both vacuous *)
  let n = Value.fresh ~hint:"n" Types.I32 in
  let gmem = Value.fresh ~hint:"g" (Types.Memref (Types.Global, Types.F32)) in
  let b = Builder.create () in
  ignore
    (Builder.parallel b Instr.Blocks [ n ] (fun bb _ _ ->
         ignore
           (Builder.parallel bb Instr.Threads [ n ] (fun tb tpid tivs ->
                let tid = List.hd tivs in
                Builder.barrier tb tpid;
                let v = Builder.load tb gmem tid in
                let w = Builder.add_ tb v v in
                Builder.store tb gmem tid w;
                Builder.barrier tb tpid;
                ignore (Builder.mul_ tb tid tid)))));
  let block = Builder.finish b in
  let swept = Barrier_elim.run_block block in
  Alcotest.(check int) "both vacuous barriers removed" 0 (count_barriers swept);
  let not_barrier = function Instr.Barrier _ -> false | _ -> true in
  Alcotest.(check (testable (Instr.pp_block ~indent:0) ( = )))
    "the other instructions in their order"
    (List.filter not_barrier (threads_body block))
    (threads_body swept)

let test_barrier_elim_keeps_needed () =
  (* the reduction's barriers order shared-memory accesses: the pass
     must keep the kernel's semantics *)
  let m = Kernels.reduce_module () in
  let m' = { Instr.funcs = List.map Barrier_elim.run_func m.Instr.funcs } in
  Verify.check_exn m';
  let before = count_barriers (thread_body_of m) in
  let after = count_barriers (thread_body_of m') in
  Alcotest.(check bool)
    (Fmt.str "synchronizing barriers kept (%d -> %d)" before after)
    true (after >= 1);
  (* and outputs are unchanged *)
  let config = Runtime.default_config Descriptor.a100 in
  let results, _ = Runtime.run config m' [ Exec.UI 4 ] in
  let got = Runtime.buffer_contents (List.hd results) in
  let expected = Kernels.reduce_expected 4 in
  Kernels.check_floats ~tol:1e-6 "reduce after barrier elim" expected got

let test_barrier_elim_keeps_war () =
  (* write-after-read: barrier between a neighbour read and a write
     must survive even though no write precedes it *)
  let n = Value.fresh ~hint:"n" Types.I32 in
  let b = Builder.create () in
  ignore
    (Builder.parallel b Instr.Blocks [ n ] (fun bb _ _ ->
         let smem = Builder.alloc_shared bb Types.F32 32 in
         let c32 = Builder.const_i bb 32 in
         ignore
           (Builder.parallel bb Instr.Threads [ c32 ] (fun tb tpid tivs ->
                let tid = List.hd tivs in
                let one = Builder.const_i tb 1 in
                let next0 = Builder.add_ tb tid one in
                let next = Builder.rem_ tb next0 c32 in
                let v = Builder.load tb smem next in
                Builder.barrier tb tpid;
                Builder.store tb smem tid v))));
  let block = Builder.finish b in
  let swept = Barrier_elim.run_block block in
  Alcotest.(check int) "WAR barrier kept" 1 (count_barriers swept)

let suite =
  [
    ( "transforms",
      [
        !:"unroll structure" `Quick test_unroll_structure;
        !:"unroll collapses barriers" `Quick test_unroll_collapses_barriers;
        !:"thread coarsening: vecadd" `Quick test_thread_coarsen_vecadd;
        !:"block coarsening: vecadd divisor" `Quick test_block_coarsen_vecadd_divisor;
        !:"block coarsening: vecadd epilogue" `Quick test_block_coarsen_vecadd_epilogue;
        !:"combined coarsening: reduce" `Quick test_coarsen_reduce_with_barriers;
        !:"combined coarsening: 2-D tiles" `Quick test_coarsen_2d_tile;
        !:"thread coarsening: blocked mapping" `Quick test_thread_coarsen_blocked_mapping;
        !:"block coarsening: cyclic mapping" `Quick test_block_coarsen_cyclic_mapping;
        !:"thread factor must divide" `Quick test_thread_factor_must_divide;
        !:"non-positive factors are illegal" `Quick test_non_positive_factors_illegal;
        !:"block coarsening illegality (fig10)" `Quick test_block_coarsen_illegal_divergent_barrier;
        !:"thread coarsening legal on fig10 kernel" `Quick test_thread_coarsen_divergent_barrier_ok;
        !:"alternatives + TDO" `Quick test_alternatives_tdo;
        !:"shared-memory pruning" `Quick test_shmem_pruning;
        !:"canonicalize folds constants" `Quick test_canonicalize_folds;
        !:"canonicalize removes constant ifs" `Quick test_canonicalize_if_const;
        !:"cse dedupes" `Quick test_cse_dedupes;
        !:"load cse respects stores" `Quick test_load_cse_blocked_by_store;
        !:"cse: store in a for loop" `Quick test_cse_for_carried_store;
        !:"cse: forwarded store before a for loop" `Quick test_cse_for_forwarded_store;
        !:"cse: store in a do-while loop" `Quick test_cse_while_carried_store;
        !:"cse: if-branch definitions stay inside" `Quick test_cse_if_scope;
        !:"cse: then-branch store kills loads" `Quick test_cse_then_store_kills;
        !:"cse: store-free loop inherits loads" `Quick test_cse_store_free_loop_inherits;
        !:"cse: commutative operands" `Quick test_cse_commutative;
        !:"cse: constant keys" `Quick test_cse_constant_keys;
        !:"dce removes dead code" `Quick test_dce_removes_dead;
        !:"licm hoists invariants" `Quick test_licm_hoists;
        !:"barrier elim removes vacuous" `Quick test_barrier_elim_removes_vacuous;
        !:"barrier elim keeps synchronizing" `Quick test_barrier_elim_keeps_needed;
        !:"barrier elim keeps WAR ordering" `Quick test_barrier_elim_keeps_war;
        QCheck_alcotest.to_alcotest prop_coarsened_equivalence;
        QCheck_alcotest.to_alcotest prop_vecadd_any_factor;
      ] );
  ]

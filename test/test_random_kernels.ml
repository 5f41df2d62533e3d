(** Differential testing with randomly generated kernels.

    A generator produces random (but valid-by-construction) GPU kernels
    exercising shared memory, barriers, divergent conditionals, nested
    loops and memory read and written around a loop. Each kernel is run uncoarsened and under random
    coarsening configurations, with and without scalar optimization;
    all outputs must agree. This is the strongest correctness net over
    the unroll-and-interleave machinery: any illegal interleaving,
    broken barrier collapse, bad epilogue arithmetic or CSE/LICM bug
    shows up as an output mismatch. *)

open Pgpu_ir
module Runtime = Pgpu_runtime.Runtime
module Exec = Pgpu_gpusim.Exec
module Pipeline = Pgpu_transforms.Pipeline
module Descriptor = Pgpu_target.Descriptor

(* ------------------------------------------------------------------ *)
(* Kernel descriptions                                                 *)
(* ------------------------------------------------------------------ *)

(** A tiny, always-well-formed kernel language. Index expressions are
    kept in bounds by construction (modulo the buffer size). *)
type idx =
  | Tid  (** thread id *)
  | Bid  (** block id *)
  | Gid  (** global id: bid * bs + tid *)
  | Rev  (** bs - 1 - tid *)
  | Shifted of int  (** (gid + k) mod n *)

type step =
  | Load_global of idx  (** push in[idx] on the value stack *)
  | Arith of int  (** combine the top two values with op #k *)
  | To_shared of idx  (** smem[tid] := top; barrier; push smem[idx mod bs] *)
  | Guarded_mul of int  (** if tid < k then top * 2 else top (divergence) *)
  | Loop_accum of int  (** top := sum over k iterations of f(top, iter) *)
  | Loop_rmw of int
      (** out[gid] := top; k iterations of out[gid] := out[gid] * 0.9 + iter;
          push out[gid] (memory carried around a loop) *)

type kdesc = {
  nblocks : int;
  bs : int;  (** threads per block *)
  steps : step list;
}

let pp_step ppf = function
  | Load_global i ->
      Fmt.pf ppf "load:%s"
        (match i with
        | Tid -> "tid"
        | Bid -> "bid"
        | Gid -> "gid"
        | Rev -> "rev"
        | Shifted k -> Fmt.str "gid+%d" k)
  | Arith k -> Fmt.pf ppf "arith%d" k
  | To_shared i ->
      Fmt.pf ppf "shared:%s"
        (match i with
        | Tid -> "tid"
        | Bid -> "bid"
        | Gid -> "gid"
        | Rev -> "rev"
        | Shifted k -> Fmt.str "gid+%d" k)
  | Guarded_mul k -> Fmt.pf ppf "guard%d" k
  | Loop_accum k -> Fmt.pf ppf "loop%d" k
  | Loop_rmw k -> Fmt.pf ppf "rmw%d" k

let pp_kdesc ppf d =
  Fmt.pf ppf "{g=%d bs=%d [%a]}" d.nblocks d.bs Fmt.(list ~sep:comma pp_step) d.steps

(* ------------------------------------------------------------------ *)
(* Building the IR module from a description                           *)
(* ------------------------------------------------------------------ *)

let build_module (d : kdesc) : Instr.modul =
  let host_f32 = Types.Memref (Types.Host, Types.F32) in
  let f32 = Types.F32 in
  let nb = Value.fresh ~hint:"nb" Types.I32 in
  let f =
    Builder.func "main" [ nb ] [ host_f32 ] (fun b ->
        let cbs = Builder.const_i b d.bs in
        let n = Builder.mul_ b nb cbs in
        let hin = Builder.alloc b Types.Host f32 n in
        let hout = Builder.alloc b Types.Host f32 n in
        let seed = Builder.const_i b 5 in
        ignore (Builder.intrinsic b "fill_rand" [] [ hin; seed ]);
        let din = Builder.alloc b Types.Global f32 n in
        let dout = Builder.alloc b Types.Global f32 n in
        Builder.add b (Instr.Memcpy { dst = din; src = hin; count = n });
        Builder.gpu_wrapper b "randk" (fun wb ->
            let cbs = Builder.const_i wb d.bs in
            ignore
              (Builder.parallel wb Instr.Blocks [ nb ] (fun bb _ bivs ->
                   let bid = List.hd bivs in
                   let smem = Builder.alloc_shared bb f32 d.bs in
                   ignore
                     (Builder.parallel bb Instr.Threads [ cbs ] (fun tb tpid tivs ->
                          let tid = List.hd tivs in
                          let base = Builder.mul_ tb bid cbs in
                          let gid = Builder.add_ tb base tid in
                          let lower_idx = function
                            | Tid -> tid
                            | Bid -> bid
                            | Gid -> gid
                            | Rev ->
                                let c = Builder.const_i tb (d.bs - 1) in
                                Builder.sub_ tb c tid
                            | Shifted k ->
                                let ck = Builder.const_i tb k in
                                let s = Builder.add_ tb gid ck in
                                Builder.rem_ tb s n
                          in
                          let v0 = Builder.load tb din gid in
                          let stack = ref [ v0 ] in
                          let push v = stack := v :: !stack in
                          let pop () =
                            match !stack with
                            | [ x ] -> x
                            | x :: tl ->
                                stack := tl;
                                x
                            | [] -> assert false
                          in
                          List.iter
                            (fun s ->
                              match s with
                              | Load_global i -> push (Builder.load tb din (lower_idx i))
                              | Arith k ->
                                  let x = pop () and y = pop () in
                                  let v =
                                    match k mod 3 with
                                    | 0 -> Builder.add_ tb x y
                                    | 1 -> Builder.mul_ tb x y
                                    | _ ->
                                        let h = Builder.const_f tb 0.5 in
                                        let xy = Builder.add_ tb x y in
                                        Builder.mul_ tb h xy
                                  in
                                  push v
                              | To_shared i ->
                                  let v = pop () in
                                  Builder.store tb smem tid v;
                                  Builder.barrier tb tpid;
                                  let ci = lower_idx i in
                                  let cb = Builder.const_i tb d.bs in
                                  let ii = Builder.rem_ tb ci cb in
                                  push (Builder.load tb smem ii);
                                  (* writes follow in later steps: re-sync *)
                                  Builder.barrier tb tpid
                              | Guarded_mul k ->
                                  let v = pop () in
                                  let ck = Builder.const_i tb (k mod d.bs) in
                                  let cond = Builder.cmp tb Ops.Lt tid ck in
                                  let r =
                                    Builder.if_ tb cond [ f32 ]
                                      (fun ib ->
                                        let two = Builder.const_f ib 2. in
                                        [ Builder.mul_ ib v two ])
                                      (fun _ -> [ v ])
                                  in
                                  push (List.hd r)
                              | Loop_accum k ->
                                  let v = pop () in
                                  let c0 = Builder.const_i tb 0 in
                                  let ck = Builder.const_i tb (1 + (k mod 5)) in
                                  let c1 = Builder.const_i tb 1 in
                                  let r =
                                    Builder.for_ tb c0 ck c1 [ v ] (fun fb iv args ->
                                        let fi = Builder.cast fb f32 iv in
                                        let acc = List.hd args in
                                        let t = Builder.mul_ fb acc (Builder.const_f fb 0.9) in
                                        [ Builder.add_ fb t fi ])
                                  in
                                  push (List.hd r)
                              | Loop_rmw k ->
                                  Builder.store tb dout gid (pop ());
                                  let c0 = Builder.const_i tb 0 in
                                  let ck = Builder.const_i tb (1 + (k mod 5)) in
                                  let c1 = Builder.const_i tb 1 in
                                  ignore
                                    (Builder.for_ tb c0 ck c1 [] (fun fb iv _ ->
                                         let fi = Builder.cast fb f32 iv in
                                         let x = Builder.load fb dout gid in
                                         let t = Builder.mul_ fb x (Builder.const_f fb 0.9) in
                                         Builder.store fb dout gid (Builder.add_ fb t fi);
                                         []));
                                  push (Builder.load tb dout gid))
                            d.steps;
                          Builder.store tb dout gid (pop ()))))));
        Builder.add b (Instr.Memcpy { dst = hout; src = dout; count = n });
        Builder.return b [ hout ])
  in
  { Instr.funcs = [ f ] }

(* ------------------------------------------------------------------ *)
(* Generator                                                           *)
(* ------------------------------------------------------------------ *)

let gen_idx =
  QCheck.Gen.(
    oneof
      [
        return Tid;
        return Bid;
        return Gid;
        return Rev;
        map (fun k -> Shifted (1 + (k mod 37))) small_nat;
      ])

let gen_step =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun i -> Load_global i) gen_idx);
        (3, map (fun k -> Arith k) small_nat);
        (2, map (fun i -> To_shared i) gen_idx);
        (2, map (fun k -> Guarded_mul (1 + (k mod 31))) small_nat);
        (1, map (fun k -> Loop_accum k) small_nat);
        (1, map (fun k -> Loop_rmw k) small_nat);
      ])

let gen_kdesc =
  QCheck.Gen.(
    let* nblocks = int_range 1 9 in
    let* bs_pow = int_range 3 6 in
    let* nsteps = int_range 1 8 in
    let* steps = list_size (return nsteps) gen_step in
    return { nblocks; bs = 1 lsl bs_pow; steps })

let arb_kdesc = QCheck.make ~print:(Fmt.str "%a" pp_kdesc) gen_kdesc

(* ------------------------------------------------------------------ *)
(* The differential property                                           *)
(* ------------------------------------------------------------------ *)

let run_configured (m : Instr.modul) ~optimize ~specs ~fixed nb =
  let opts =
    { (Pipeline.default_options Descriptor.a100) with Pipeline.optimize; coarsen_specs = specs }
  in
  let m', _ = Pipeline.compile opts m in
  let config =
    { (Runtime.default_config Descriptor.a100) with Runtime.fixed_choice = fixed; tune = false }
  in
  let results, _ = Runtime.run config m' [ Exec.UI nb ] in
  Runtime.buffer_contents (List.hd results)

let agree a b =
  List.length a = List.length b
  && List.for_all2 (fun x y -> Float.abs (x -. y) <= 1e-6 *. (1. +. Float.abs x)) a b

let prop_coarsening_preserves_semantics =
  QCheck.Test.make ~name:"random kernels: coarsening preserves semantics" ~count:60
    ~long_factor:10
    (QCheck.pair arb_kdesc (QCheck.pair (QCheck.int_range 1 5) (QCheck.int_range 0 3)))
    (fun (d, (bf, te)) ->
      let tf = 1 lsl te in
      let m = build_module d in
      Verify.check_exn m;
      let baseline = run_configured m ~optimize:false ~specs:[] ~fixed:0 d.nblocks in
      let specs =
        Pipeline.specs_of_totals [ (1, 1); (bf, tf) ]
      in
      (* region 0 = identity, region 1 = coarsened (may be pruned; then
         fixed_choice clamps back to a surviving region) *)
      let coarsened = run_configured m ~optimize:true ~specs ~fixed:1 d.nblocks in
      let optimized = run_configured m ~optimize:true ~specs:[] ~fixed:0 d.nblocks in
      agree baseline coarsened && agree baseline optimized)

let prop_retarget_preserves_semantics =
  QCheck.Test.make ~name:"random kernels: AMD retargeting preserves semantics" ~count:20
    arb_kdesc
    (fun d ->
      let m = build_module d in
      let run target =
        let config = Runtime.default_config target in
        let results, _ = Runtime.run config m [ Exec.UI d.nblocks ] in
        Runtime.buffer_contents (List.hd results)
      in
      agree (run Descriptor.a100) (run Descriptor.rx6800))

let suite =
  [
    ( "random-kernels",
      [
        QCheck_alcotest.to_alcotest prop_coarsening_preserves_semantics;
        QCheck_alcotest.to_alcotest prop_retarget_preserves_semantics;
      ] );
  ]

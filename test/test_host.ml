(** Compiled host code against its oracle: random host-only programs
    run through [Runtime.run] and through the host half of the
    tree-walker ([Interp.run_host]) must give the same results and the
    same composite seconds, bit for bit. Fixed cases pin a yield that
    swaps its loop's iter-args, and errors raised when the faulty
    instruction executes. *)

open Pgpu_ir
module Runtime = Pgpu_runtime.Runtime
module Exec = Pgpu_gpusim.Exec
module Memory = Pgpu_gpusim.Memory
module Descriptor = Pgpu_target.Descriptor
module B = Builder

(* ------------------------------------------------------------------ *)
(* Random host programs                                                *)
(* ------------------------------------------------------------------ *)

(** Values in scope, by kind; every buffer has 8 elements. *)
type scope = {
  ints : Value.t list;
  floats : Value.t list;
  fbufs : Value.t list;
  ibufs : Value.t list;
}

let pick rs l = List.nth l (Random.State.int rs (List.length l))
let chance rs k = Random.State.int rs k = 0

let int_binops = Ops.[ Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr; Min; Max ]
let float_binops = Ops.[ Add; Sub; Mul; Div; Rem; Min; Max; Pow ]
let int_unops = Ops.[ Neg; Not; Abs ]
let float_unops = Ops.[ Neg; Sqrt; Exp; Log; Sin; Cos; Abs; Floor; Ceil; Rsqrt ]
let cmpops = Ops.[ Eq; Ne; Lt; Le; Gt; Ge ]

(* an operand read as an int: now and then a float, which the host
   program coerces *)
let int_operand rs sc = if chance rs 8 then pick rs sc.floats else pick rs sc.ints
let float_operand rs sc = if chance rs 8 then pick rs sc.ints else pick rs sc.floats

(* an index in [0, 8) *)
let index rs b sc = B.let_ b Types.I32 (Instr.Binop (Ops.And, pick rs sc.ints, B.const_i b 7))

let fill rs b sc =
  if chance rs 2 then
    let buf = pick rs sc.fbufs and seed = B.const_i b (Random.State.int rs 100) in
    match Random.State.int rs 3 with
    | 0 -> ignore (B.intrinsic b "fill_rand" [] [ buf; seed ])
    | 1 -> ignore (B.intrinsic b "fill_rand_range" [] [ buf; seed; pick rs sc.floats; pick rs sc.floats ])
    | _ -> ignore (B.intrinsic b "fill_const" [] [ buf; float_operand rs sc ])
  else
    let buf = pick rs sc.ibufs in
    match Random.State.int rs 3 with
    | 0 ->
        let bound = B.const_i b (1 + Random.State.int rs 50) in
        ignore (B.intrinsic b "fill_int_rand" [] [ buf; B.const_i b (Random.State.int rs 100); bound ])
    | 1 -> ignore (B.intrinsic b "fill_seq" [] [ buf ])
    | _ -> ignore (B.intrinsic b "fill_const" [] [ buf; int_operand rs sc ])

(** Yields of [tys] from [sc]: each an in-scope value of its type, or,
    when [args] are given, often one of them of the same type, so
    that a loop's yield permutes its iter-args. *)
let yields rs sc ?(args = []) tys =
  List.map
    (fun ty ->
      let same = List.filter (fun (a : Value.t) -> Types.equal a.Value.ty ty) args in
      if same <> [] && not (chance rs 3) then pick rs same
      else if Types.is_float ty then pick rs sc.floats
      else pick rs sc.ints)
    tys

let rand_ty rs = if chance rs 2 then Types.F32 else Types.I32

let add_values sc vs =
  List.fold_left
    (fun sc (v : Value.t) ->
      if Types.is_float v.Value.ty then { sc with floats = v :: sc.floats }
      else { sc with ints = v :: sc.ints })
    sc vs

let rec stmts rs b sc depth n = if n = 0 then sc else stmts rs b (stmt rs b sc depth) depth (n - 1)

and stmt rs b sc depth =
  match Random.State.int rs (if depth >= 2 then 9 else 12) with
  | 0 | 1 ->
      let op = pick rs int_binops in
      add_values sc [ B.let_ b Types.I32 (Instr.Binop (op, int_operand rs sc, int_operand rs sc)) ]
  | 2 ->
      let op = pick rs float_binops in
      add_values sc
        [ B.let_ b Types.F32 (Instr.Binop (op, float_operand rs sc, float_operand rs sc)) ]
  | 3 ->
      if chance rs 2 then
        add_values sc [ B.let_ b Types.I32 (Instr.Unop (pick rs int_unops, int_operand rs sc)) ]
      else
        add_values sc [ B.let_ b Types.F32 (Instr.Unop (pick rs float_unops, float_operand rs sc)) ]
  | 4 ->
      let op = pick rs cmpops in
      let c =
        if chance rs 2 then B.cmp b op (pick rs sc.ints) (int_operand rs sc)
        else B.cmp b op (pick rs sc.floats) (float_operand rs sc)
      in
      let sc = add_values sc [ c ] in
      (* a select of scalars, or of the buffers a later access uses *)
      if chance rs 3 then
        { sc with fbufs = B.select b c (pick rs sc.fbufs) (pick rs sc.fbufs) :: sc.fbufs }
      else if chance rs 2 then add_values sc [ B.select b c (pick rs sc.ints) (pick rs sc.ints) ]
      else add_values sc [ B.select b c (pick rs sc.floats) (pick rs sc.floats) ]
  | 5 ->
      if chance rs 2 then add_values sc [ B.cast b Types.F32 (pick rs sc.ints) ]
      else add_values sc [ B.cast b Types.I32 (pick rs sc.floats) ]
  | 6 ->
      let i = index rs b sc in
      if chance rs 2 then add_values sc [ B.load b (pick rs sc.fbufs) i ]
      else add_values sc [ B.load b (pick rs sc.ibufs) i ]
  | 7 ->
      let i = index rs b sc in
      if chance rs 2 then B.store b (pick rs sc.fbufs) i (float_operand rs sc)
      else B.store b (pick rs sc.ibufs) i (int_operand rs sc);
      sc
  | 8 ->
      fill rs b sc;
      sc
  | 9 ->
      (* nested if with 0-2 results *)
      let tys = List.init (Random.State.int rs 3) (fun _ -> rand_ty rs) in
      let branch inner =
        let sc' = stmts rs inner sc (depth + 1) (Random.State.int rs 4) in
        yields rs sc' tys
      in
      add_values sc (B.if_ b (pick rs sc.ints) tys branch branch)
  | 10 ->
      (* for with 1-3 iter-args, yielding them permuted *)
      let inits = List.init (1 + Random.State.int rs 3) (fun _ ->
          if chance rs 2 then pick rs sc.floats else pick rs sc.ints) in
      let lb = B.const_i b (Random.State.int rs 2) and ub = B.const_i b (Random.State.int rs 5) in
      let step = B.const_i b (1 + Random.State.int rs 2) in
      add_values sc
        (B.for_ b lb ub step inits (fun inner iv args ->
             let sc' = stmts rs inner (add_values sc (iv :: args)) (depth + 1) (Random.State.int rs 4) in
             yields rs sc' ~args (List.map (fun (a : Value.t) -> a.Value.ty) args)))
  | _ ->
      (* while whose condition is an iter-arg: [go] stays true while a
         counter from at most 3 is still positive *)
      let go0 = B.const_i b 1 and k0 = B.const_i b (Random.State.int rs 4) in
      let extra = List.init (Random.State.int rs 3) (fun _ ->
          if chance rs 2 then pick rs sc.floats else pick rs sc.ints) in
      let inits = go0 :: k0 :: extra in
      let iter_args = List.map Value.rebirth inits in
      let go, k, args = match iter_args with g :: k :: r -> (g, k, r) | _ -> assert false in
      let inner = B.create () in
      let sc' = stmts rs inner (add_values sc iter_args) (depth + 1) (Random.State.int rs 4) in
      let k' = B.sub_ inner k (B.const_i inner 1) in
      let go' = B.cmp inner Ops.Gt k' (B.const_i inner 0) in
      let rest = yields rs sc' ~args (List.map (fun (a : Value.t) -> a.Value.ty) args) in
      B.add inner (Instr.Yield_while (go, go' :: k' :: rest));
      let results = List.map Value.rebirth inits in
      B.add b (Instr.While { iter_args; inits; results; body = B.finish inner });
      add_values sc results

(** A host-only [main(n)] returning its three buffers, an int and a
    float. *)
let random_program seed =
  let rs = Random.State.make [| seed |] in
  let n = Value.fresh ~hint:"n" Types.I32 in
  let f =
    B.func "main" [ n ] [] (fun b ->
        let eight = B.const_i b 8 in
        let fbufs = [ B.alloc b Types.Host Types.F32 eight; B.alloc b Types.Host Types.F32 eight ] in
        let ibufs = [ B.alloc b Types.Host Types.I32 eight ] in
        let sc =
          {
            ints = [ n; eight; B.const_i b (-3) ];
            floats = [ B.const_f b 1.5; B.const_f b (-0.25) ];
            fbufs;
            ibufs;
          }
        in
        fill rs b sc;
        let sc = stmts rs b sc 0 (5 + Random.State.int rs 20) in
        B.return b (fbufs @ ibufs @ [ pick rs sc.ints; pick rs sc.floats ]))
  in
  { Instr.funcs = [ f ] }

(* results as bits: buffers by contents, scalars by value *)
let result_bits = function
  | Exec.UB b -> List.map Int64.bits_of_float (Memory.to_float_list b)
  | Exec.UI x -> [ Int64.of_int x ]
  | Exec.UF x -> [ Int64.bits_of_float x ]
  | _ -> Alcotest.fail "per-lane host result"

let outcome f =
  match f () with
  | results, seconds -> Ok (List.map result_bits results, Int64.bits_of_float seconds)
  | exception Runtime.Host_error msg -> Error msg

let prop_host_oracle =
  QCheck.Test.make ~name:"compiled host code = host oracle (results, composite bits)" ~count:200
    ~long_factor:10
    QCheck.(make ~print:(fun (seed, n) ->
                Printf.sprintf "n = %d\n%s" n (Instr.modul_to_string (random_program seed)))
              Gen.(pair (int_bound 1_000_000) (int_range (-2) 5)))
    (fun (seed, n) ->
      let m = random_program seed in
      let args = [ Exec.UI n ] in
      let compiled =
        outcome (fun () ->
            let results, st = Runtime.run (Runtime.default_config Descriptor.a100) m args in
            (results, Runtime.composite_seconds st))
      in
      let oracle = outcome (fun () -> Interp.run_host m args) in
      match (compiled, oracle) with
      | Ok a, Ok b when a = b -> true
      | Error _, Error _ -> true
      | _ -> QCheck.Test.fail_report "compiled host code and the oracle disagree")

(* ------------------------------------------------------------------ *)
(* Fixed cases                                                         *)
(* ------------------------------------------------------------------ *)

(** The yield of [(b, a)] into iter-args [(a, b)]: copying in order
    would leave both at [b]'s old value. *)
let swap_source =
  {|
float* main(int n) {
  float* h = (float*)malloc(n * sizeof(float));
  int a = 1;
  int b = 2;
  for (int i = 0; i < n; i++) {
    int t = a;
    a = b;
    b = t;
    h[i] = a * 10 + b + 1;
  }
  return h;
}
|}

let test_swap () =
  let c = Pgpu_core.Polygeist_gpu.compile ~target:Descriptor.a100 ~source:swap_source () in
  let r = Pgpu_core.Polygeist_gpu.run c ~args:[ 4 ] in
  Alcotest.(check (list (float 0.))) "swapped each iteration" [ 22.; 13.; 22.; 13. ]
    (List.hd r.Pgpu_core.Polygeist_gpu.outputs);
  let results, _ = Interp.run_host c.Pgpu_core.Polygeist_gpu.modul [ Exec.UI 4 ] in
  Alcotest.(check (list (float 0.))) "oracle" [ 22.; 13.; 22.; 13. ]
    (Runtime.buffer_contents (List.hd results))

(** [main(n, go)] runs [faulty] only when [go] is non-zero. *)
let guarded faulty =
  let n = Value.fresh ~hint:"n" Types.I32 and go = Value.fresh ~hint:"go" Types.I32 in
  let f =
    B.func "main" [ n; go ] [] (fun b ->
        B.if0 b go (fun ib -> faulty ib n);
        B.return b [ n ])
  in
  { Instr.funcs = [ f ] }

let expect_host_error_when_run what m ~n =
  let run go = Runtime.run (Runtime.default_config Descriptor.a100) m [ Exec.UI n; Exec.UI go ] in
  (match run 0 with
  | _ -> ()
  | exception Runtime.Host_error msg -> Alcotest.failf "%s: raised before it ran: %s" what msg);
  match run 1 with
  | _ -> Alcotest.failf "%s: no host error" what
  | exception Runtime.Host_error _ -> ()

let test_faults_when_run () =
  expect_host_error_when_run "for with step 0" ~n:4
    (guarded (fun b n ->
         let zero = B.const_i b 0 in
         ignore (B.for_ b zero n zero [] (fun _ _ _ -> []))));
  expect_host_error_when_run "alloc of a negative count" ~n:(-1)
    (guarded (fun b n -> ignore (B.alloc b Types.Host Types.F32 n)))

(** A host-only [main] that allocates [n] elements of [ty] as [h] and
    fills them with [fill]. *)
let fill_source ty fill =
  Printf.sprintf "%s* main(int n) { %s* h = (%s*)malloc(n * sizeof(%s)); %s; return h; }" ty ty
    ty ty fill

(** [fill_int_rand] over [n] elements with [bound]. *)
let fill_int_rand_source bound = fill_source "int" (Printf.sprintf "fill_int_rand(h, 1, %d)" bound)

let compile_host source =
  (Pgpu_core.Polygeist_gpu.compile ~target:Descriptor.a100 ~source ()).Pgpu_core.Polygeist_gpu.modul

(* a bound of 0 or less has nothing to draw from: a host error once an
   element would be drawn, in the compiled code and in the oracle *)
let test_fill_int_rand_bound () =
  List.iter
    (fun bound ->
      let m = compile_host (fill_int_rand_source bound) in
      let what = Printf.sprintf "bound %d over 4 elements" bound in
      (match Runtime.run (Runtime.default_config Descriptor.a100) m [ Exec.UI 4 ] with
      | _ -> Alcotest.failf "%s: no host error" what
      | exception Runtime.Host_error _ -> ());
      (match Interp.run_host m [ Exec.UI 4 ] with
      | _ -> Alcotest.failf "%s: no host error in the oracle" what
      | exception Runtime.Host_error _ -> ());
      let results, _ = Runtime.run (Runtime.default_config Descriptor.a100) m [ Exec.UI 0 ] in
      Alcotest.(check (list (list (float 0.))))
        (Printf.sprintf "bound %d over an empty buffer" bound)
        [ [] ]
        (List.map Runtime.buffer_contents results))
    [ 0; -3 ]

(* the draws of a fill allocate nothing: what a 1 M-element fill
   allocates on the minor heap is the run's fixed cost *)
let test_fill_allocation () =
  let n = 1_000_000 in
  let config = Runtime.default_config Descriptor.a100 in
  List.iter
    (fun (name, source) ->
      let m = compile_host source in
      ignore (Runtime.run config m [ Exec.UI 16 ]);
      let w0 = Gc.minor_words () in
      ignore (Runtime.run config m [ Exec.UI n ]);
      let words = Gc.minor_words () -. w0 in
      if words >= float_of_int n then
        Alcotest.failf "a %d-element %s allocated %.0f minor words" n name words)
    [
      ("fill_int_rand", fill_int_rand_source 1000);
      ("fill_rand", fill_source "float" "fill_rand(h, 1)");
      ("fill_rand_range", fill_source "float" "fill_rand_range(h, 1, -0.5f, 0.5f)");
    ]

let suite =
  [
    ( "host",
      [
        QCheck_alcotest.to_alcotest prop_host_oracle;
        Alcotest.test_case "a yield that swaps its iter-args" `Quick test_swap;
        Alcotest.test_case "faults raise when the instruction executes" `Quick
          test_faults_when_run;
        Alcotest.test_case "fill_int_rand with a bound of 0 or less" `Quick
          test_fill_int_rand_bound;
        Alcotest.test_case "a 1M-element fill allocates under a word per element" `Quick
          test_fill_allocation;
      ] );
  ]

(** Trial == commit: the timing-driven optimization commits, at each
    launch site, the alternative whose trial ran fastest, so a trial
    must time exactly what the commit then executes.

    Runs are timing-only ([functional = false]), so trials and commits
    sample the same blocks. A timing-only run adopts each winning
    trial, so its own trace holds no re-executed commit: each program
    runs cold, then warm, on one TDO store. The cold pass searches
    every site; the warm pass finds every choice in the store and
    executes the chosen region. For every site the cold pass searched,
    the winning trial's seconds (its [tdo:choice] event's) must equal,
    bitwise, the summed simulated seconds of the launches the warm
    pass commits after the matching cached choice — the next kernel
    spans of its trace, one per grid-level parallel of that region.
    The suite covers the AMD shared-memory demotion (nw on rx6800) and
    CPU regions whose thread extents their own host prelude computes
    (lud on cpu), and a kernel whose read and written arguments are
    one buffer: a trial that gave them separate copies would branch
    differently from the commit. The last case runs tuned with every
    block executed, where the winning trial is adopted too, and holds
    its output to the untuned run's. *)

module P = Pgpu_core.Polygeist_gpu
module Bench_def = Pgpu_rodinia.Bench_def
module Descriptor = Pgpu_target.Descriptor
module Tracer = Pgpu_trace.Tracer
module Cache = Pgpu_cache.Cache
module Json = Pgpu_trace.Json
open Pgpu_ir

let benches = [ "lud"; "gaussian"; "nw"; "hotspot"; "nn"; "pathfinder"; "conv1d" ]

let find name = try P.Rodinia.find name with Failure _ -> P.Hecbench.find name

(** Grid-level parallels of region [alt] of the tuned wrapper [name]. *)
let region_launches (m : Instr.modul) name alt =
  let n = ref None in
  List.iter
    (fun (f : Instr.func) ->
      Instr.iter_deep
        (fun i ->
          match i with
          | Instr.Gpu_wrapper { name = w; body = [ Instr.Alternatives { regions; _ } ]; _ }
            when String.equal w name ->
              let launches =
                List.filter
                  (function Instr.Parallel { level = Instr.Blocks; _ } -> true | _ -> false)
                  (List.nth regions alt)
              in
              n := Some (List.length launches)
          | _ -> ())
        f.Instr.body)
    m.Instr.funcs;
  match !n with Some n -> n | None -> Alcotest.failf "no tuned wrapper named %s" name

let arg args key =
  match List.assoc_opt key args with
  | Some v -> v
  | None -> Alcotest.failf "event lacks %S" key

let float_arg args key =
  match arg args key with Json.Float f -> f | _ -> Alcotest.failf "%S is not a float" key

let specs = P.specs_of_totals [ (1, 1); (2, 1); (1, 2) ]

(** Run [c] tuned and timing-only, cold and then warm on one TDO
    store, and check every site the cold pass searched against the
    warm pass's commit of it; [what] names the run in failures. *)
let check_tuned_sites ~what (c : P.compiled) ~args =
  let cache = Cache.create () in
  let pass () =
    let tracer = Tracer.create () in
    ignore (P.run ~tune:true ~functional:false ~tracer ~cache c ~args);
    Tracer.events tracer
  in
  let cold = pass () in
  let warm = pass () in
  let choices =
    List.filter_map
      (function Tracer.Instant { name = "tdo:choice"; args; _ } -> Some args | _ -> None)
      cold
  in
  let is_kernel = function Tracer.Span { cat = "kernel"; _ } -> true | _ -> false in
  let rec take n acc = function
    | _ when n = 0 -> List.rev acc
    | [] -> Alcotest.failf "%s: the warm trace ends before a committed launch" what
    | (Tracer.Span { args; _ } as e) :: rest when is_kernel e ->
        take (n - 1) (float_arg args "seconds" :: acc) rest
    | _ :: rest -> take n acc rest
  in
  let site args = (arg args "kernel", arg args "signature", arg args "alternative") in
  let sites = ref 0 in
  let rec scan choices = function
    | [] -> if choices <> [] then Alcotest.failf "%s: the warm pass makes fewer choices" what
    | Tracer.Instant { name = "tdo:choice"; args; _ } :: rest -> (
        if not (List.mem_assoc "cached" args) then
          Alcotest.failf "%s: the warm pass searched a site" what;
        match choices with
        | [] -> Alcotest.failf "%s: the warm pass makes more choices" what
        | cold :: choices ->
            if site cold <> site args then
              Alcotest.failf "%s: the warm pass chose differently" what;
            (* a cold choice the store answered holds another site's trial *)
            if not (List.mem_assoc "cached" cold) then begin
              incr sites;
              let kernel = match arg args "kernel" with Json.Str s -> s | _ -> "?" in
              let alt = match arg args "alternative" with Json.Int k -> k | _ -> -1 in
              let trial = float_arg cold "seconds" in
              let committed =
                List.fold_left ( +. ) 0. (take (region_launches c.P.modul kernel alt) [] rest)
              in
              if Int64.bits_of_float trial <> Int64.bits_of_float committed then
                Alcotest.failf "%s: %s alternative %d: trial %.17g s, commit %.17g s" what kernel
                  alt trial committed
            end;
            scan choices rest)
    | _ :: rest -> scan choices rest
  in
  scan choices warm;
  if !sites = 0 then Alcotest.failf "%s: no site was tuned" what

let test_trial_is_commit (target : Descriptor.t) () =
  List.iter
    (fun name ->
      let b = find name in
      let c = P.compile ~specs ~target ~source:b.Bench_def.source () in
      check_tuned_sites ~what:(name ^ "/" ^ target.Descriptor.name) c ~args:b.Bench_def.args)
    benches

(* ------------------------------------------------------------------ *)
(* Aliased arguments                                                    *)
(* ------------------------------------------------------------------ *)

(** Each thread halves its element in place while it exceeds 1, at
    most 8 times, reading through [in] what it stored through [out] —
    one buffer — then adds 1. Inputs stay below 16, so every lane
    leaves the branch within 4 iterations, while a trial that copied
    [in] and [out] apart would take it all 8 times; and running the
    kernel twice changes the output. *)
let aliased_source =
  {|
#define BS 64

__global__ void halve(float* in, float* out, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    for (int k = 0; k < 8; k++) {
      if (in[i] > 1.0f) {
        out[i] = in[i] * 0.5f;
      }
    }
    out[i] = in[i] + 1.0f;
  }
}

float* main(int n) {
  float* h = (float*)malloc(n * sizeof(float));
  fill_rand_range(h, 7, 0.0f, 16.0f);
  float* d;
  cudaMalloc((void**)&d, n * sizeof(float));
  cudaMemcpy(d, h, n * sizeof(float), cudaMemcpyHostToDevice);
  int grid = (n + BS - 1) / BS;
  halve<<<grid, BS>>>(d, d, n);
  cudaMemcpy(h, d, n * sizeof(float), cudaMemcpyDeviceToHost);
  return h;
}
|}

(** The same program built by hand, except that the written argument
    is [e = n > 0 ? d : spare]: the frontend lowers [(d, d, n)] to one
    value, while here two host values hold one buffer, so the trial's
    copies must be shared by buffer id. *)
let aliased_select_module () =
  let f32 = Types.F32 in
  let n = Value.fresh ~hint:"n" Types.I32 in
  let f =
    Builder.func "main" [ n ] [ Types.Memref (Types.Host, f32) ] (fun b ->
        let h = Builder.alloc b Types.Host f32 n in
        let seed = Builder.const_i b 7 in
        let lo = Builder.const_f b 0. and hi = Builder.const_f b 16. in
        ignore (Builder.intrinsic b "fill_rand_range" [] [ h; seed; lo; hi ]);
        let d = Builder.alloc b Types.Global f32 n in
        let spare = Builder.alloc b Types.Global f32 n in
        Builder.add b (Instr.Memcpy { dst = d; src = h; count = n });
        let zero = Builder.const_i b 0 in
        let e = Builder.select b (Builder.cmp b Ops.Gt n zero) d spare in
        Builder.gpu_wrapper b "halve" (fun wb ->
            let c64 = Builder.const_i wb 64 in
            let grid = Builder.div_ wb (Builder.add_ wb n (Builder.const_i wb 63)) c64 in
            ignore
              (Builder.parallel wb Instr.Blocks [ grid ] (fun bb _ bivs ->
                   ignore
                     (Builder.parallel bb Instr.Threads [ c64 ] (fun tb _ tivs ->
                          let base = Builder.mul_ tb (List.hd bivs) c64 in
                          let i = Builder.add_ tb base (List.hd tivs) in
                          Builder.if0 tb (Builder.cmp tb Ops.Lt i n) (fun ib ->
                              let c0 = Builder.const_i ib 0 and c1 = Builder.const_i ib 1 in
                              let c8 = Builder.const_i ib 8 and one = Builder.const_f ib 1. in
                              ignore
                                (Builder.for_ ib c0 c8 c1 [] (fun lb _ _ ->
                                     let x = Builder.load lb d i in
                                     Builder.if0 lb (Builder.cmp lb Ops.Gt x one) (fun sb ->
                                         let half = Builder.const_f sb 0.5 in
                                         Builder.store sb e i (Builder.mul_ sb x half));
                                     []));
                              let y = Builder.load ib d i in
                              Builder.store ib e i (Builder.add_ ib y one)))))));
        Builder.add b (Instr.Memcpy { dst = h; src = d; count = n });
        Builder.return b [ h ])
  in
  { Instr.funcs = [ f ] }

(** The output of either program, halving in place. *)
let aliased_expected n =
  List.map
    (fun x ->
      let v = ref (16. *. x) in
      for _ = 1 to 8 do
        if !v > 1. then v := !v *. 0.5
      done;
      !v +. 1.)
    (Array.to_list (Pgpu_runtime.Runtime.rand_array 7 n))

(** On both programs: every tuned site's winning trial equals its
    commit; the untuned output is the in-place halving; the tuned
    output equals it bitwise, so no trial wrote the live buffer. *)
let test_aliased (target : Descriptor.t) () =
  let n = 3000 in
  let args = [ n ] in
  let select =
    let modul, report =
      P.Pipeline.compile
        { (P.Pipeline.default_options target) with P.Pipeline.coarsen_specs = specs }
        (aliased_select_module ())
    in
    { P.target; modul; report }
  in
  List.iter
    (fun (what, c) ->
      let what = what ^ "/" ^ target.Descriptor.name in
      check_tuned_sites ~what c ~args;
      let untuned = P.run c ~args in
      Kernels.check_floats ~tol:1e-6 what (aliased_expected n) (List.hd untuned.P.outputs);
      let bits (r : P.run_result) = List.map (List.map Int64.bits_of_float) r.P.outputs in
      if bits (P.run ~tune:true c ~args) <> bits untuned then
        Alcotest.failf "%s: tuned output differs from untuned" what)
    [
      ("aliased CUDA", P.compile ~specs ~target ~source:aliased_source ());
      ("aliased select", select);
    ]

(* ------------------------------------------------------------------ *)
(* Buffers written through a picked memref                              *)
(* ------------------------------------------------------------------ *)

(** Where the written buffer is picked: in the kernel region, by a
    select or by an if that yields it, or in [main] by a select before
    the wrapper. *)
type pick = By_select | By_yield | In_main

(** Two device buffers hold the same inputs; one of them is picked
    (see {!pick}) and the kernel updates it in place through the pick:
    [x <- x * 0.5 + 1]. [main] then copies the first buffer back
    through its own value. Neither free buffer of a region that picks
    is stored to directly, yet both can be written, so a trial must
    copy both: one that wrote the live buffer would leave the commit
    updating its sampled blocks twice. A region whose buffer [main]
    picked reaches it only through the pick, so a trial adopted in
    its commit's place must rebind the buffer in the first buffer's
    slot too. *)
let picked_module pick =
  let f32 = Types.F32 in
  let n = Value.fresh ~hint:"n" Types.I32 in
  let f =
    Builder.func "main" [ n ] [ Types.Memref (Types.Host, f32) ] (fun b ->
        let h = Builder.alloc b Types.Host f32 n in
        let seed = Builder.const_i b 7 in
        let lo = Builder.const_f b 0. and hi = Builder.const_f b 16. in
        ignore (Builder.intrinsic b "fill_rand_range" [] [ h; seed; lo; hi ]);
        let a = Builder.alloc b Types.Global f32 n and other = Builder.alloc b Types.Global f32 n in
        Builder.add b (Instr.Memcpy { dst = a; src = h; count = n });
        Builder.add b (Instr.Memcpy { dst = other; src = h; count = n });
        let picked_in_main =
          match pick with
          | In_main -> Some (Builder.select b (Builder.cmp b Ops.Gt n (Builder.const_i b 0)) a other)
          | By_select | By_yield -> None
        in
        Builder.gpu_wrapper b "update_picked" (fun wb ->
            let c () = Builder.cmp wb Ops.Gt n (Builder.const_i wb 0) in
            let e =
              match (pick, picked_in_main) with
              | In_main, Some e -> e
              | By_yield, _ ->
                  List.hd (Builder.if_ wb (c ()) [ a.Value.ty ] (fun _ -> [ a ]) (fun _ -> [ other ]))
              | _ -> Builder.select wb (c ()) a other
            in
            let c64 = Builder.const_i wb 64 in
            let grid = Builder.div_ wb (Builder.add_ wb n (Builder.const_i wb 63)) c64 in
            ignore
              (Builder.parallel wb Instr.Blocks [ grid ] (fun bb _ bivs ->
                   ignore
                     (Builder.parallel bb Instr.Threads [ c64 ] (fun tb _ tivs ->
                          let i = Builder.add_ tb (Builder.mul_ tb (List.hd bivs) c64) (List.hd tivs) in
                          Builder.if0 tb (Builder.cmp tb Ops.Lt i n) (fun ib ->
                              let x = Builder.load ib e i in
                              let half = Builder.const_f ib 0.5 and one = Builder.const_f ib 1. in
                              Builder.store ib e i (Builder.add_ ib (Builder.mul_ ib x half) one)))))));
        Builder.add b (Instr.Memcpy { dst = h; src = a; count = n });
        Builder.return b [ h ])
  in
  { Instr.funcs = [ f ] }

(** On the program of [pick] over [n] elements: every tuned site's
    winning trial equals its commit, the untuned output is one update
    of the inputs, and the tuned output equals it bitwise. *)
let check_picked ~what ~n pick (target : Descriptor.t) =
  let args = [ n ] in
  let expected =
    List.map (fun x -> (16. *. x *. 0.5) +. 1.) (Array.to_list (Pgpu_runtime.Runtime.rand_array 7 n))
  in
  let what = what ^ "/" ^ target.Descriptor.name in
  let modul, report =
    P.Pipeline.compile
      { (P.Pipeline.default_options target) with P.Pipeline.coarsen_specs = specs }
      (picked_module pick)
  in
  let c = { P.target; modul; report } in
  check_tuned_sites ~what c ~args;
  let untuned = P.run c ~args in
  Kernels.check_floats ~tol:1e-6 what expected (List.hd untuned.P.outputs);
  let bits (r : P.run_result) = List.map (List.map Int64.bits_of_float) r.P.outputs in
  if bits (P.run ~tune:true c ~args) <> bits untuned then
    Alcotest.failf "%s: tuned output differs from untuned" what

(** Picked in the region, over 3000 elements: a tuned run samples its
    trials (47 blocks at (1,1)) and executes every commit. *)
let test_picked (target : Descriptor.t) () =
  check_picked ~what:"selected" ~n:3000 By_select target;
  check_picked ~what:"yielded" ~n:3000 By_yield target

(** Picked in [main], over 1000 elements: no grid holds more than 16
    blocks, so a tuned run adopts each winning trial. *)
let test_picked_in_main (target : Descriptor.t) () =
  check_picked ~what:"picked in main" ~n:1000 In_main target

let suite =
  let targets = [ Descriptor.a100; Descriptor.rx6800; Descriptor.cpu ] in
  let cases name test =
    List.map
      (fun (t : Descriptor.t) -> Alcotest.test_case (name ^ t.Descriptor.name) `Quick (test t))
      targets
  in
  [
    ( "tdo",
      cases "trial time = committed time on " test_trial_is_commit
      @ cases "aliased arguments: trial = commit on " test_aliased
      @ cases "a buffer written through a picked memref: trial = commit on " test_picked
      @ cases "a buffer main picks, adopted from the trial: tuned = untuned on "
          test_picked_in_main );
  ]

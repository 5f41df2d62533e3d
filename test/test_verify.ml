(** The verifier against its oracle ([Reference_verify], the verifier
    before its scopes became one table and an undo log): both must give
    the same verdict and the same first message, on generated kernels
    at each pipeline stage, on mutants of them that break single
    definition, scoping or terminator placement, and on the bundled
    programs as the composite sweep compiles them. *)

open Pgpu_ir
module Pipeline = Pgpu_transforms.Pipeline
module Descriptor = Pgpu_target.Descriptor
module Frontend = Pgpu_frontend.Frontend
module P = Pgpu_core.Polygeist_gpu
module E = Pgpu_core.Experiments
module Bench_def = Pgpu_rodinia.Bench_def

let targets = [ Descriptor.a100; Descriptor.rx6800; Descriptor.cpu ]

(** The modules a compile verifies: its input, the scalar pipeline's
    output, and the compiled module without and with [specs]. *)
let stages target ~specs m =
  let compile specs =
    fst (Pipeline.compile { (Pipeline.default_options target) with Pipeline.coarsen_specs = specs } m)
  in
  [ m; Pipeline.scalar_pipeline m; compile []; compile specs ]

(* ------------------------------------------------------------------ *)
(* Mutants                                                             *)
(* ------------------------------------------------------------------ *)

(** [i] with its regions replaced, in {!Instr.regions} order. *)
let with_regions (i : Instr.instr) rs =
  match (i, rs) with
  | Instr.If r, [ then_; else_ ] -> Instr.If { r with then_; else_ }
  | Instr.For r, [ body ] -> Instr.For { r with body }
  | Instr.While r, [ body ] -> Instr.While { r with body }
  | Instr.Parallel r, [ body ] -> Instr.Parallel { r with body }
  | Instr.Gpu_wrapper r, [ body ] -> Instr.Gpu_wrapper { r with body }
  | Instr.Alternatives r, regions -> Instr.Alternatives { r with regions }
  | i, _ -> i

(** [x] inserted before position [p] of [l] (appended past its end). *)
let rec insert p x l =
  match l with y :: tl when p > 0 -> y :: insert (p - 1) x tl | l -> x :: l

let remove p l = List.filteri (fun j _ -> j <> p) l

(** A fresh value read from [v]: a cast checks nothing of its operand's
    type, so the only fault it can raise is [v]'s scope. *)
let use (v : Value.t) = Instr.Let (Value.fresh ~hint:"use" Types.I32, Instr.Cast v)

let deep_defs block =
  let acc = ref [] in
  Instr.iter_deep (fun i -> acc := List.rev_append (Instr.defs i) !acc) block;
  List.rev !acc

(* Each mutation lists the rewrites it offers in one block, as thunks
   returning the rewritten block. *)

(** A [Let] copied right after itself, or after the region it sits in,
    where its value is defined but no longer visible. *)
let duplicated_let b =
  List.concat
    (List.mapi
       (fun p i ->
         let lets = ref [] in
         Instr.iter_deep (function Instr.Let _ as l -> lets := l :: !lets | _ -> ()) [ i ];
         List.rev_map (fun l () -> insert (p + 1) l b) !lets)
       b)

let moved_above_def b =
  List.concat
    (List.mapi
       (fun p i ->
         let uses = Instr.deep_uses i in
         List.concat
           (List.mapi
              (fun q d ->
                if q < p && List.exists (fun v -> List.exists (Value.equal v) uses) (Instr.defs d) then
                  [ (fun () -> insert q i (remove p b)) ]
                else [])
              b))
       b)

let local_used_after b =
  List.concat
    (List.mapi
       (fun p i ->
         List.concat_map
           (fun (_, r) -> List.map (fun v () -> insert (p + 1) (use v) b) (deep_defs r))
           (Instr.regions i))
       b)

let used_in_sibling b =
  List.concat
    (List.mapi
       (fun p i ->
         match i with
         | Instr.Alternatives { regions; _ } ->
             List.concat
               (List.mapi
                  (fun a ra ->
                    List.concat
                      (List.mapi
                         (fun c _ ->
                           if a = c then []
                           else
                             List.map
                               (fun v () ->
                                 let regions = List.mapi (fun j r -> if j = c then use v :: r else r) regions in
                                 List.mapi (fun j x -> if j = p then with_regions i regions else x) b)
                               (deep_defs ra))
                         regions))
                  regions)
         | _ -> [])
       b)

let loop_var_after b =
  List.concat
    (List.mapi
       (fun p i ->
         let vars =
           match i with
           | Instr.For { iv; iter_args; _ } -> iv :: iter_args
           | Instr.While { iter_args; _ } -> iter_args
           | _ -> []
         in
         List.map (fun v () -> insert (p + 1) (use v) b) vars)
       b)

let terminator_mid_block b =
  match List.rev b with
  | (Instr.Yield _ | Instr.Yield_while _ | Instr.Return _) as t :: rest ->
      List.init (List.length rest) (fun p () -> insert p t (List.rev rest))
  | _ -> []

let mutations =
  [
    ("none", fun _ -> []);
    ("duplicated let", duplicated_let);
    ("moved above a definition it uses", moved_above_def);
    ("region-local value used after its region", local_used_after);
    ("value used in a sibling alternatives region", used_in_sibling);
    ("loop iv or iter_arg used after the loop", loop_var_after);
    ("terminator mid-block", terminator_mid_block);
  ]

(** [m] with the [n]-th rewrite (mod their number, blocks in pre-order)
    that [site] offers applied; [m] itself when it offers none. *)
let mutate site n (m : Instr.modul) =
  let rec count b =
    List.length (site b)
    + List.fold_left (fun k i -> List.fold_left (fun k (_, r) -> k + count r) k (Instr.regions i)) 0 b
  in
  let total = List.fold_left (fun k f -> k + count f.Instr.body) 0 m.Instr.funcs in
  if total = 0 then m
  else begin
    let left = ref (n mod total) in
    let rec block b =
      if !left < 0 then b
      else
        let here = site b in
        if !left < List.length here then begin
          let b = (List.nth here !left) () in
          left := -1;
          b
        end
        else begin
          left := !left - List.length here;
          List.map (fun i -> with_regions i (List.map (fun (_, r) -> block r) (Instr.regions i))) b
        end
    in
    { Instr.funcs = List.map (fun f -> { f with Instr.body = block f.Instr.body }) m.Instr.funcs }
  end

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let pp_result ppf = function Ok () -> Fmt.string ppf "Ok ()" | Error msg -> Fmt.pf ppf "Error %S" msg

let prop_same_verdicts =
  QCheck.Test.make ~name:"verify: same verdicts and messages as the reference" ~count:300
    ~long_factor:10
    (QCheck.pair Test_random_kernels.arb_kdesc
       (QCheck.triple
          (QCheck.make ~print:(fun (t : Descriptor.t) -> t.Descriptor.name) (QCheck.Gen.oneofl targets))
          (QCheck.make ~print:fst (QCheck.Gen.oneofl mutations))
          QCheck.small_nat))
    (fun (d, (target, (_, site), n)) ->
      List.for_all
        (fun m ->
          let m = mutate site n m in
          let got = Verify.check m and want = Reference_verify.check m in
          got = want
          || QCheck.Test.fail_reportf "verify: %a, reference: %a" pp_result got pp_result want)
        (stages target ~specs:E.obs_specs (Test_random_kernels.build_module d)))

let test_bundled () =
  List.iter
    (fun (b : Bench_def.t) ->
      let m = Frontend.compile_string b.Bench_def.source in
      List.iter
        (fun (target : Descriptor.t) ->
          List.iteri
            (fun k m ->
              let what = Fmt.str "%s on %s, stage %d" b.Bench_def.name target.Descriptor.name k in
              Alcotest.(check (result unit string)) (what ^ ", reference") (Ok ()) (Reference_verify.check m);
              Alcotest.(check (result unit string)) what (Ok ()) (Verify.check m))
            (stages target ~specs:E.composite_specs m))
        targets)
    (P.Rodinia.all @ P.Hecbench.all)

let suite =
  [
    ( "verify",
      [
        Alcotest.test_case "bundled programs verify, as under the reference" `Quick test_bundled;
        QCheck_alcotest.to_alcotest prop_same_verdicts;
      ] );
  ]

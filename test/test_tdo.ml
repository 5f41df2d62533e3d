(** Trial == commit: the timing-driven optimization commits, at each
    launch site, the alternative whose trial ran fastest, so a trial
    must time exactly what the commit then executes.

    Runs are timing-only ([functional = false]), so trials and commits
    sample the same blocks. For every freshly tuned site (a
    [tdo:choice] event not answered from the cache) the winning
    trial's seconds must equal, bitwise, the summed simulated seconds
    of the committed region's launches — the next kernel spans of the
    trace, one per grid-level parallel of that region. The suite
    covers the AMD shared-memory demotion (nw on rx6800) and CPU
    regions whose thread extents their own host prelude computes (lud
    on cpu). *)

module P = Pgpu_core.Polygeist_gpu
module Bench_def = Pgpu_rodinia.Bench_def
module Descriptor = Pgpu_target.Descriptor
module Tracer = Pgpu_trace.Tracer
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

let check_trial_is_commit (target : Descriptor.t) name =
  let b = find name in
  let c = P.compile ~specs:(P.specs_of_totals [ (1, 1); (2, 1); (1, 2) ]) ~target
      ~source:b.Bench_def.source ()
  in
  let tracer = Tracer.create () in
  ignore (P.run ~tune:true ~functional:false ~tracer c ~args:b.Bench_def.args);
  let is_kernel = function Tracer.Span { cat = "kernel"; _ } -> true | _ -> false in
  let rec take n acc = function
    | _ when n = 0 -> List.rev acc
    | [] -> Alcotest.failf "%s/%s: trace ends before a committed launch" name target.Descriptor.name
    | (Tracer.Span { args; _ } as e) :: rest when is_kernel e -> take (n - 1) (float_arg args "seconds" :: acc) rest
    | _ :: rest -> take n acc rest
  in
  let sites = ref 0 in
  let rec scan = function
    | [] -> ()
    | Tracer.Instant { name = "tdo:choice"; args; _ } :: rest when not (List.mem_assoc "cached" args)
      ->
        incr sites;
        let kernel = match arg args "kernel" with Json.Str s -> s | _ -> "?" in
        let alt = match arg args "alternative" with Json.Int k -> k | _ -> -1 in
        let trial = float_arg args "seconds" in
        let committed =
          List.fold_left ( +. ) 0. (take (region_launches c.P.modul kernel alt) [] rest)
        in
        if Int64.bits_of_float trial <> Int64.bits_of_float committed then
          Alcotest.failf "%s/%s: %s alternative %d: trial %.17g s, commit %.17g s" name
            target.Descriptor.name kernel alt trial committed;
        scan rest
    | _ :: rest -> scan rest
  in
  scan (Tracer.events tracer);
  if !sites = 0 then Alcotest.failf "%s/%s: no site was tuned" name target.Descriptor.name

let test_trial_is_commit target () = List.iter (check_trial_is_commit target) benches

let suite =
  [
    ( "tdo",
      List.map
        (fun (t : Descriptor.t) ->
          Alcotest.test_case ("trial time = committed time on " ^ t.Descriptor.name) `Quick
            (test_trial_is_commit t))
        [ Descriptor.a100; Descriptor.rx6800; Descriptor.cpu ] );
  ]

(** Compile-time multi-versioning with alternative code paths
    (Section VI).

    Each kernel (gpu_wrapper) region is replicated once per coarsening
    configuration; every replica is coarsened and cleaned up
    independently, then filtered through the static decision points:

    - early pruning for static shared-memory usage;
    - backend statistics: register allocation is run per replica, and
      replicas that introduce *new* spilling relative to the baseline
      are discarded;
    - occupancy feasibility on the target (block size limits).

    Surviving replicas are packed into an [Alternatives] op; the final
    choice is made by the runtime's timing-driven optimization, or
    pinned by the [fixed_choice] runtime configuration. *)

open Pgpu_ir
module Descriptor = Pgpu_target.Descriptor
module Backend = Pgpu_target.Backend
module Occupancy = Pgpu_target.Occupancy
module Tracer = Pgpu_trace.Tracer
module Json = Pgpu_trace.Json
module Pool = Pgpu_support.Pool
module Analysis = Pgpu_analysis

type decision =
  | Kept
  | Rejected_illegal of string  (** coarsening itself was illegal *)
  | Rejected_shmem of int  (** bytes demanded *)
  | Rejected_spill of int  (** new spills *)
  | Rejected_occupancy of string
  | Rejected_racy of string
      (** the static checker proved a shared-memory race or barrier
          divergence the coarsening would ship *)
  | Rejected_duplicate of string
      (** never produced; kept for the host benchmark's decision keys *)

type candidate = {
  spec : Coarsen.spec;
  desc : string;
  decision : decision;
  stats : Backend.kernel_stats option;
}

let pp_decision ppf = function
  | Kept -> Fmt.string ppf "kept"
  | Rejected_illegal m -> Fmt.pf ppf "illegal: %s" m
  | Rejected_shmem b -> Fmt.pf ppf "rejected: %d B of shared memory" b
  | Rejected_spill n -> Fmt.pf ppf "rejected: %d new spills" n
  | Rejected_occupancy m -> Fmt.pf ppf "rejected: %s" m
  | Rejected_racy m -> Fmt.pf ppf "rejected racy: %s" m
  | Rejected_duplicate d -> Fmt.pf ppf "duplicate of %s" d

(** Scalar cleanup run on every replica after coarsening. *)
let cleanup (region : Instr.block) =
  region |> Canonicalize.run_block |> Cse.run_block |> Licm.run_block |> Cse.run_block
  |> Dce.run_block |> Barrier_elim.run_block

(** Always [(0, 0)]: expansion keeps no memo tables. Kept for the
    host benchmark's [cache.memo.*] metrics until it next changes. *)
let memo_counters () = (0, 0)

(** Static block size of a kernel region if fully constant. *)
let static_block_size ~const_of region =
  let r = ref None in
  Instr.iter_deep
    (fun i ->
      match i with
      | Instr.Parallel { level = Instr.Threads; ubs; _ } ->
          let dims = List.map const_of ubs in
          if List.for_all Option.is_some dims then
            r := Some (List.fold_left (fun acc d -> acc * Option.get d) 1 dims)
      | _ -> ())
    region;
  !r

(** One trace event per candidate: the spec, the decision (with the
    exact rejection reason) and the backend statistics the decision
    consulted. *)
let trace_candidate tracer (c : candidate) =
  if Tracer.enabled tracer then
    let stat_args =
      match c.stats with
      | None -> []
      | Some s ->
          [
            ("regs", Json.Int s.Backend.regs_per_thread);
            ("spilled", Json.Int s.Backend.spilled);
            ("shmem", Json.Int s.Backend.static_shmem);
            ("ilp", Json.Float s.Backend.ilp);
            ("mlp", Json.Float s.Backend.mlp);
          ]
    in
    Tracer.instant tracer ~cat:"alternatives"
      ~args:
        (("spec", Json.Str c.desc)
        :: ("decision", Json.Str (Fmt.str "%a" pp_decision c.decision))
        :: ("kept", Json.Bool (c.decision = Kept))
        :: stat_args)
      ("candidate:" ^ c.desc)

(** Expand one kernel region into alternatives for the given coarsening
    specs. The first spec should be the identity so a baseline always
    survives. Returns the new region together with the pruning report.
    A spec that coarsens nothing (both resolved factors 1) reuses the
    cleaned baseline and its statistics; with [jobs > 1], candidates are
    evaluated on a pool of domains. *)
let expand (t : Descriptor.t) ?(tracer = Tracer.disabled) ?(jobs = 1)
    ?(outer_const = fun _ -> None) ~(specs : Coarsen.spec list) (region : Instr.block) :
    Instr.block * candidate list =
  let with_outer local v = match local v with Some n -> Some n | None -> outer_const v in
  let baseline = cleanup region in
  let baseline_stats = Backend.analyze t baseline in
  let eval_spec memo spec =
    let desc = Fmt.str "%a" Coarsen.pp_spec spec in
    let fresh = Clone.block region in
    let consts = Coarsen.const_tbl [ fresh ] in
    let const_of = with_outer (Coarsen.lookup_const consts) in
    match Coarsen.coarsen_region ~const_of spec fresh with
    | Error m -> ({ spec; desc; decision = Rejected_illegal m; stats = None }, None)
    | Ok coarsened -> (
        (* coarsening hands its input back unchanged exactly when it
           has nothing to do: that replica is the cleaned baseline *)
        let coarsened, stats =
          if coarsened == fresh then (baseline, baseline_stats)
          else
            let cleaned = cleanup coarsened in
            (cleaned, Backend.analyze t cleaned)
        in
        if stats.Backend.static_shmem > t.Descriptor.max_shmem_per_block then
          ( { spec; desc; decision = Rejected_shmem stats.Backend.static_shmem; stats = Some stats },
            None )
        else if stats.Backend.spilled > baseline_stats.Backend.spilled then
          ( {
              spec;
              desc;
              decision = Rejected_spill (stats.Backend.spilled - baseline_stats.Backend.spilled);
              stats = Some stats;
            },
            None )
        else begin
          (* coarsening introduced fresh block-dimension constants: top
             up the replica's environment instead of rebuilding it *)
          Coarsen.add_consts consts [ coarsened ];
          let occ_ok =
            match static_block_size ~const_of coarsened with
            | None -> Ok ()
            | Some threads ->
                Result.map_error
                  (fun e -> Fmt.str "%a" Occupancy.pp_rejection e)
                  (Occupancy.check t
                     {
                       Occupancy.threads_per_block = threads;
                       regs_per_thread = stats.Backend.regs_per_thread;
                       shmem_per_block = stats.Backend.static_shmem;
                     })
          in
          match occ_ok with
          | Error m -> ({ spec; desc; decision = Rejected_occupancy m; stats = Some stats }, None)
          | Ok () -> (
              (* last gate: the static race/barrier checker. Only
                 proven races ([Error] severity) reject a candidate;
                 warnings are conservative and would prune legal code. *)
              match
                Analysis.Report.errors
                  (Analysis.Check.check_region ~memo ~const_of ~kernel:desc coarsened)
              with
              | d :: _ ->
                  ( {
                      spec;
                      desc;
                      decision = Rejected_racy d.Analysis.Report.message;
                      stats = Some stats;
                    },
                    None )
              | [] -> ({ spec; desc; decision = Kept; stats = Some stats }, Some coarsened))
        end)
  in
  (* the race gate's verdict memo: one per worker slot, so candidates
     share solver answers without a lock, and all die with the call *)
  let specs = Array.of_list specs in
  let memos = Array.init (max 1 (min jobs (Array.length specs))) (fun _ -> Analysis.Affine.memo ()) in
  let results = Array.make (Array.length specs) None in
  Pool.run (Pool.get ()) ~jobs (Array.length specs) (fun ~slot i ->
      results.(i) <- Some (eval_spec memos.(slot) specs.(i)));
  let candidates = Array.to_list (Array.map Option.get results) in
  let report = List.map fst candidates in
  List.iter (trace_candidate tracer) report;
  (* a repeated identity spec keeps the baseline more than once: copy
     it after the first so SSA ids stay unique across the alternatives *)
  let baseline_kept = ref false in
  let kept =
    List.filter_map
      (fun (c, r) ->
        Option.map
          (fun r ->
            if r != baseline then (c.desc, r)
            else if !baseline_kept then (c.desc, Clone.block r)
            else begin
              baseline_kept := true;
              (c.desc, r)
            end)
          r)
      candidates
  in
  match kept with
  | [] ->
      (* always keep the (cleaned) baseline *)
      (baseline, report)
  | [ (_, only) ] -> (only, report)
  | _ ->
      let descs = List.map fst kept and regions = List.map snd kept in
      ([ Instr.Alternatives { aid = Instr.fresh_region_id (); descs; regions } ], report)

(** Compile-time multi-versioning with alternative code paths
    (Section VI of the paper): each kernel region is replicated once
    per coarsening configuration, cleaned up, and filtered through the
    static decision points (shared-memory capacity, new spilling
    relative to the baseline, occupancy feasibility). Survivors are
    packed into an [Alternatives] op for the runtime's timing-driven
    selection. *)

open Pgpu_ir
module Descriptor = Pgpu_target.Descriptor
module Backend = Pgpu_target.Backend

type decision =
  | Kept
  | Rejected_illegal of string  (** the coarsening itself was illegal *)
  | Rejected_shmem of int  (** bytes demanded *)
  | Rejected_spill of int  (** new spills vs the baseline *)
  | Rejected_occupancy of string
  | Rejected_racy of string
      (** the static checker proved a shared-memory race or barrier
          divergence in the coarsened replica *)
  | Rejected_duplicate of string
      (** never produced: expansion prunes no duplicates. Kept only for
          the host benchmark's decision keys until it next changes. *)

type candidate = {
  spec : Coarsen.spec;
  desc : string;
  decision : decision;
  stats : Backend.kernel_stats option;
}

val pp_decision : decision Fmt.t

(** The scalar cleanup run on every replica after coarsening
    (canonicalize, CSE, LICM, CSE, DCE, barrier elimination). *)
val cleanup : Instr.block -> Instr.block

(** Always [(0, 0)]: expansion keeps no memo tables. Kept only for the
    host benchmark's [cache.memo.*] metrics until it next changes. *)
val memo_counters : unit -> int * int

(** Expand one kernel region into alternatives for the given specs.
    [outer_const] resolves constants defined outside the region (e.g.
    block dimensions deduplicated into the host code by CSE). With a
    [tracer], one instant event is emitted per candidate carrying the
    spec, the decision (including the exact rejection reason) and the
    backend statistics consulted. Every candidate is cleaned up and
    analyzed once, except one that coarsens nothing (both resolved
    factors 1): it reuses the cleaned baseline and its statistics. With
    [jobs > 1], candidates are evaluated concurrently on that many
    domains; results are reported in spec order either way. Returns the
    new region and the pruning report; when at most one candidate
    survives, no [Alternatives] op is introduced. *)
val expand :
  Descriptor.t ->
  ?tracer:Pgpu_trace.Tracer.t ->
  ?jobs:int ->
  ?outer_const:(Value.t -> int option) ->
  specs:Coarsen.spec list ->
  Instr.block ->
  Instr.block * candidate list

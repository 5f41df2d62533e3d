(** The Polygeist-GPU optimization pipeline (Fig. 4 of the paper):
    scalar cleanups run across the host/device boundary of the
    combined module, then every gpu_wrapper is multi-versioned with
    the requested coarsening configurations. *)

open Pgpu_ir
module Descriptor = Pgpu_target.Descriptor

(** Per-subsystem log source ("pgpu.transforms"), for scoping [-v]
    debug output to the pipeline. *)
val src : Logs.src

type options = {
  target : Descriptor.t;
  optimize : bool;  (** scalar optimizations (CSE, LICM, canonicalize, DCE, barriers) *)
  coarsen_specs : Coarsen.spec list;  (** configurations to version; empty = none *)
  tracer : Pgpu_trace.Tracer.t;
      (** pass/pruning telemetry sink; [Tracer.disabled] (the default) = off *)
  cache : Pgpu_cache.Cache.t;
      (** accepted and ignored: compilation consults no cache. Kept only
          for the host benchmark until it next changes. *)
  jobs : int;
      (** domains for parallel candidate expansion; 1 (the default) =
          sequential *)
}

val default_options : Descriptor.t -> options

type kernel_report = { kernel : string; wid : int; candidates : Alternatives.candidate list }
type report = { kernels : kernel_report list }

(** The scalar pass pipeline alone (the paper's "Polygeist-GPU without
    parallel optimizations" configuration). With a [tracer], each pass
    runs under a span recording op-count deltas and its rewrite
    counter. *)
val scalar_pipeline : ?tracer:Pgpu_trace.Tracer.t -> Instr.modul -> Instr.modul

(** Compile a module: scalar optimization, then kernel
    multi-versioning, verifying the module before, between and after
    them. Raises [Verify.Invalid] if an internal pass breaks the IR. *)
val compile : options -> Instr.modul -> Instr.modul * report

(** Specs from (block_total, thread_total) pairs — the paper's "total
    factor" interface, balanced per kernel when applied. *)
val specs_of_totals : (int * int) list -> Coarsen.spec list

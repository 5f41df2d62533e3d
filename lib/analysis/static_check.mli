(** Static barrier-safety and shared-memory race checking over the IR
    (in the spirit of GPUVerify, scaled to this IR's structured
    regions). The thread-parallel body is partitioned into barrier
    epochs; per-epoch shared accesses are summarized as
    thread-index-affine indices plus guard stacks and discharged
    pairwise with the {!Affine} decision procedures over two renamed
    thread instances. Sound direction: diagnostics may over-report
    (warnings for unknown indices), never under-report races the
    affine domain can express. *)

open Pgpu_ir

(** Check one GPU wrapper region. [const_of] resolves opaque SSA
    values to compile-time constants where the host code pins them
    (e.g. CSE'd sizes); [kernel] names the diagnostics. Solver verdicts
    go through [memo], which the caller may share across regions (the
    race gate shares one across the candidates of an expansion). A
    region with no [Alloc_shared] and no [Barrier] returns [[]]
    unchecked: every diagnostic needs a shared buffer or a
    barrier. *)
val check_region :
  memo:Affine.memo ->
  ?const_of:(Value.t -> int option) ->
  kernel:string ->
  Instr.block ->
  Report.diagnostic list

(** Check every kernel launch region of a module, resolving host
    constants per wrapper, through one memo of its own. *)
val check_modul : Instr.modul -> Report.diagnostic list

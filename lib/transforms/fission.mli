(** Barrier fission: split synchronizing thread-level parallels into
    barrier-free *epochs* so a kernel can run as sequential per-thread
    loops on a CPU. Synchronizing structured control flow ([For]/[If]
    with thread-invariant bounds/condition) is interchanged to block
    level; values live across a split are rematerialized when their
    defining chain is pure and thread-id-derived, and scalar-expanded
    into per-thread shared scratch otherwise. *)

open Pgpu_ir

exception Failure_ of string

type stats = {
  epochs : int;  (** thread-level epoch loops emitted *)
  expanded : int;  (** values demoted to per-thread scratch arrays *)
  recomputed : int;  (** cross-epoch rematerialization sites *)
  hoisted : int;  (** uniform instructions moved to block level *)
}

type lowered = { region : Instr.block; stats : stats }

(** Statically-known integer values of a block (usually a whole
    function body), folding pure integer chains. Useful as
    [const_of_ext] when lowering a kernel region whose thread extents
    are defined by the enclosing host code. *)
val const_tbl : Instr.block -> Value.t -> int option

(** Lower every synchronizing thread-level parallel of a kernel region
    to barrier-free epochs. [Error] reports the first construct
    fission cannot handle (barrier in a [While], thread-dependent
    interchange operand, non-static thread extent, loop-carried
    values across a sync, buffer live across a barrier) — callers
    then run the region unfissioned on the compiled engine, each
    block in lockstep on its core, which is always correct.

    [const_of_ext] resolves integer values the region itself does not
    define to constants — typically host-computed thread extents looked
    up in the runtime environment at first launch. Scratch arrays are
    sized from these, so a caller memoizing the lowered region must key
    its cache on the resolved extents. *)
val lower_region :
  ?const_of_ext:(Value.t -> int option) -> Instr.block -> (lowered, string) result

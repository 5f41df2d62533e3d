(** Common subexpression elimination, including redundant-load
    elimination and store-to-load forwarding.

    Load CSE is what lets block coarsening deduplicate global loads of
    tiles shared between merged blocks (the L2→L1 traffic reduction of
    the paper's Table II): after unroll-and-interleave, the copies of
    such loads have identical operands and no intervening stores or
    barriers, so they fold into one.

    Value tables are scoped per region by an undo log: what a nested
    region adds is removed when it ends, and an effect (store, barrier,
    memcpy, intrinsic, alternatives) inside it clears the enclosing
    load knowledge. A [for] or [while] body that deeply contains such
    an effect starts with no load knowledge; a body without one
    inherits it. Expressions are equal when operator, resolved
    operands (commutative ones ordered by id) and, for constants,
    binops, unops and casts, result type agree; float constants
    compare by bits, all NaNs of one sign being one constant. *)

val run_block : Pgpu_ir.Instr.block -> Pgpu_ir.Instr.block
val run_func : Pgpu_ir.Instr.func -> Pgpu_ir.Instr.func
val run_modul : Pgpu_ir.Instr.modul -> Pgpu_ir.Instr.modul

(** Rewrites performed by the last [run_*] call (pass telemetry). *)
val rewrite_count : unit -> int

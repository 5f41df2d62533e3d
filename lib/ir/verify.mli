(** IR well-formedness verifier: SSA scoping and single definition,
    terminator discipline per region kind, expression typing, barrier
    scopes referencing enclosing parallel loops, placement of GPU
    constructs (shared allocations inside blocks, host memory ops
    outside wrappers). Runs between pipeline stages, in the spirit of
    the MLIR verifier, in one walk of the module: each function keeps
    one table of the values it has defined, and each region an undo
    log of what it defined, hidden again when the region ends. *)

exception Invalid of string

val func : Instr.func -> unit
val modul : Instr.modul -> unit

(** @raise Invalid with a diagnostic if the module is malformed. *)
val check_exn : Instr.modul -> unit

val check : Instr.modul -> (unit, string) result

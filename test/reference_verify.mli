(** The verifier before its scopes became one table and an undo log:
    the oracle of [Pgpu_ir.Verify], which must give the same verdict
    and the same first message on every module. *)

open Pgpu_ir

exception Invalid of string

val func : Instr.func -> unit
val modul : Instr.modul -> unit
val check_exn : Instr.modul -> unit
val check : Instr.modul -> (unit, string) result

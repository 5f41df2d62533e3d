(** Entry points tying the static checker and the simulator-backed
    dynamic race detector into one diagnostic report. *)

open Pgpu_ir
module Racecheck = Pgpu_gpusim.Racecheck

(** Re-exports of {!Static_check}. *)
val check_modul : Instr.modul -> Report.diagnostic list

val check_region :
  memo:Affine.memo ->
  ?const_of:(Value.t -> int option) ->
  kernel:string ->
  Instr.block ->
  Report.diagnostic list

(** Convert the conflicts recorded by an instrumented execution into
    ["dynamic-race"] error diagnostics ([kernel] defaults to
    ["kernel"]). *)
val diagnostics_of_racecheck : ?kernel:string -> Racecheck.t -> Report.diagnostic list

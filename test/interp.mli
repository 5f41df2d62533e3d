(** The tree-walking reference interpreter, kept in the tests as the
    oracle for the compiled engine. *)

open Pgpu_gpusim

(** [runner ~env p] is the interpreter's per-block runner for the
    grid-level parallel [p], a drop-in for {!Compile.runner}: each
    machine it is readied on binds block indices and kernel values in
    a table of its own layered over [env], which it only reads, so
    shards never share a table. Pass it to {!Exec.run_grid} or
    [Runtime.run ~reference:Interp.runner].
    @raise Exec.Device_error when [p] is not a blocks-level parallel. *)
val runner : env:Exec.env -> Pgpu_ir.Instr.instr -> Exec.runner

(** [run_host m args] runs function [fname] (default ["main"]) of a
    module without launches or memcpys on the host half of the
    tree-walker, the oracle of [Runtime.run]: the results, and the
    composite seconds its host instructions charge.
    @raise Pgpu_runtime.Runtime.Host_error where the runtime raises it. *)
val run_host : ?fname:string -> Pgpu_ir.Instr.modul -> Exec.rv list -> Exec.rv list * float

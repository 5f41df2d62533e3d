(** Frontend facade: mini-CUDA source to IR module. Kernels are
    inlined at their launch sites as gpu_wrapper regions, so host and
    device code share one module (the representation of Fig. 5 of the
    paper). *)

exception Error of string

(** Parse and lower a mini-CUDA translation unit.
    @raise Error with a diagnostic on invalid input. *)
val compile_string : string -> Pgpu_ir.Instr.modul

(** Frontend facade: mini-CUDA source to IR module. *)

exception Error of string

(** Parse and lower a mini-CUDA translation unit. Host and device code
    end up in a single IR module (kernels inlined at launch sites as
    gpu_wrapper regions). Raises [Error] with a diagnostic on invalid
    input. *)
let compile_string (src : string) : Pgpu_ir.Instr.modul =
  try Lower.lower_program (Parser.parse_program src) with
  | Lexer.Error m -> raise (Error m)
  | Lower.Error m -> raise (Error m)

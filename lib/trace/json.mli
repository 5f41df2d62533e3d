(** Minimal JSON tree, writer and reader — the single serialization
    point for every machine-readable output the stack produces (Chrome
    traces, flat metrics, profiler reports). The writer escapes
    strings properly and never emits trailing commas; the reader is a
    small recursive-descent parser used to validate emitted output. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val str : string -> t
val int : int -> t
val float : float -> t
val bool : bool -> t
val list : t list -> t
val obj : (string * t) list -> t

(** Compact (single-line) serialization. Non-finite floats are written
    as [null] so the output is always valid JSON. *)
val to_string : t -> string

(** Indented serialization for human-inspected files. *)
val to_string_pretty : t -> string

val write : Buffer.t -> t -> unit
val pp : t Fmt.t

(** Write the pretty form to a file, creating its missing parent
    directories ({!Pgpu_support.Util.write_file}). *)
val to_file : string -> t -> unit

(** Parse a JSON document; rejects trailing garbage. *)
val of_string : string -> (t, string) result

(** Field lookup on objects; [None] on other values. *)
val member : string -> t -> t option

(** Structural equality; [Int n] and [Float f] compare equal when
    numerically equal, NaNs compare equal to each other. *)
val equal : t -> t -> bool

(** Small shared helpers used across the Polygeist-GPU reproduction. *)

val failf : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** [ceil_div a b] is [a / b] rounded towards positive infinity. *)
val ceil_div : int -> int -> int

(** [round_up a b] rounds [a] up to the next multiple of [b]. *)
val round_up : int -> int -> int

(** Integer log2 rounded down; [ilog2 1 = 0]. *)
val ilog2 : int -> int

(** All divisors of [n] in increasing order. *)
val divisors : int -> int list

(** Prime factorization as an increasing list with multiplicity. *)
val factorize : int -> int list

(** Split a total coarsening factor across dimensions, most work
    first, skipping unusable dimensions — the paper's balancing rule
    (footnote 4): 16 over 3 dims gives (4, 2, 2); 6 gives (3, 2, 1). *)
val balance_factor : usable:bool list -> int -> int list

val take : int -> 'a list -> 'a list
val drop : int -> 'a list -> 'a list
val transpose : 'a list list -> 'a list list

(** Create directory [dir] and its missing parents (mode 0o755); an
    existing directory is left as it is. *)
val mkdir_p : string -> unit

(** [write_file path contents] writes [contents] to [path], replacing
    the file, after creating its missing parent directories: every
    file the tools write goes through here. *)
val write_file : string -> string -> unit

(** Worker count for parallel compilation phases: the available
    cores, capped at 4 (min 1). *)
val default_jobs : unit -> int

(** Deterministic splitmix64 PRNG. All workload generators and the
    autotuner draw from this generator so every experiment is
    bit-reproducible across runs. *)

type t

val create : int -> t

(** Uniform int in [0, bound). *)
val int : t -> int -> int

(** Uniform float in [0, 1). *)
val float : t -> float

val bool : t -> bool

(** Fisher-Yates shuffle, in place. *)
val shuffle : t -> 'a array -> unit

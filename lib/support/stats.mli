(** Summary statistics used when reporting experiment results, matching
    the paper's methodology (medians of repeated runs, geometric means
    of per-benchmark speedups). *)

val mean : float list -> float
val median : float list -> float

(** Geometric mean; all inputs must be positive. *)
val geomean : float list -> float

val minimum : float list -> float
val maximum : float list -> float

(** Speedup of [baseline] over [candidate] runtimes: > 1 means the
    candidate is faster. *)
val speedup : baseline:float -> candidate:float -> float

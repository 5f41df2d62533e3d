(** The list-based query builder of the race checker before queries
    were built from unrenamed expressions: the oracle of
    [Pgpu_analysis.Affine.query]. *)

module A = Pgpu_analysis.Affine

(** The dense query of a system at a depth: symbols sorted by [sid]. *)
val query : depth:int -> A.system -> int array

(** Fresh symbols made on first encounter, with [sid]s counting up from
    [first]. *)
type renamer

val renamer : first:int -> renamer

(** An expression under an instance, its per-instance symbols renamed
    in term order (made fresh when first met) and its terms re-sorted
    by [sid]. *)
val rename : renamer -> A.instance -> A.t -> A.t

(** A row's parts renamed in order and summed. *)
val row : renamer -> A.row -> A.t

(** Thread and block coarsening (Section V of the paper), built on
    unroll-and-interleave.

    Thread coarsening unrolls the thread-level parallel loop (factors
    restricted to divisors of the static block size); block coarsening
    unrolls the grid-level loop with *epilogue kernels* covering the
    remainder blocks, so any factor is legal — including the prime
    factors at which the paper finds lud's peak. *)

open Pgpu_ir

type factors = { x : int; y : int; z : int }

val no_coarsening : factors
val total : factors -> int
val factor_list : factors -> int list

(** Build factors from a 1-3 element list (x, y, z order). *)
val of_list : int list -> factors

val pp_factors : factors Fmt.t

(** Balance a total factor over the usable dimensions by distributing
    its prime factors, largest first (the paper's footnote 4: 16 over
    three dims gives (4, 2, 2); 6 gives (3, 2, 1)). *)
val balance : usable:bool list -> int -> factors

(** Statically-known constants of a set of blocks, by scanning for
    constant [Let]s; used for divisor checks and epilogue elision. *)
val const_env : Instr.block list -> Value.t -> int option

(** Table-backed form of [const_env], so one environment can be built
    per coarsening replica and extended in place with the constants
    the transformation introduces ([add_consts]). *)
val const_tbl : Instr.block list -> int Value.Tbl.t

val add_consts : int Value.Tbl.t -> Instr.block list -> unit
val lookup_const : int Value.Tbl.t -> Value.t -> int option

(** A coarsening request per level: explicit per-dimension factors, or
    a *total* factor balanced over the usable dimensions of the
    specific kernel (Section IV-C). *)
type request = Explicit of factors | Total of int

type spec = {
  block : request;
  thread : request;
  block_mapping : Interleave.mapping;
  thread_mapping : Interleave.mapping;
}

val spec :
  ?block:request ->
  ?thread:request ->
  ?block_mapping:Interleave.mapping ->
  ?thread_mapping:Interleave.mapping ->
  unit ->
  spec

val pp_request : request Fmt.t
val pp_spec : spec Fmt.t

(** Split a kernel (gpu_wrapper) region into its host prefix and the
    unique grid-level parallel loop. *)
val split_region : Instr.block -> (Instr.block * Instr.instr, string) result

(** Coarsen the thread-level loop of a kernel region; each factor must
    statically divide the corresponding block dimension. *)
val coarsen_threads :
  ?mapping:Interleave.mapping ->
  const_of:(Value.t -> int option) ->
  factors ->
  Instr.block ->
  (Instr.block, string) result

(** Coarsen the grid-level loop; dimensions whose size is not
    statically divisible get an epilogue kernel covering the remainder
    at the current granularity. *)
val coarsen_blocks :
  ?mapping:Interleave.mapping ->
  const_of:(Value.t -> int option) ->
  factors ->
  Instr.block ->
  (Instr.block, string) result

(** Apply thread then block coarsening to a kernel region (the body of
    a gpu_wrapper), resolving [Total] requests against the kernel's
    actual dimensions. A total or explicit factor below 1 is an
    [Error]. *)
val coarsen_region :
  const_of:(Value.t -> int option) -> spec -> Instr.block -> (Instr.block, string) result

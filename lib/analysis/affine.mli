(** Thread-index-affine expressions and the integer (in)feasibility
    procedures behind the static race checker. Race queries become
    conjunctive systems of affine equalities/inequalities over two
    renamed instances of the thread symbols. The decision stack:
    equality substitution (every equality with a ±1 coefficient is
    solved and substituted, exactly; the rest become two
    inequalities), then Fourier–Motzkin elimination with integer
    tightening over one deduplicated set of dense rows (the variable
    with the fewest pos × neg combinations goes first, the lowest
    symbol index on a tie), then a modulus-interval test per equality
    (subsuming the GCD test), then a congruence rule for modulo
    guards. All procedures answer [true] only when infeasibility is
    certain — [false] means "not proven", which is also the answer when
    a product or sum the procedure forms would leave the native int
    range. *)

type kind =
  | Thread of int  (** thread induction variable, dimension index *)
  | Local  (** per-thread-instance (counter of a barrier-free loop) *)
  | Shared  (** uniform across the threads of a block *)

type sym = {
  sid : int;
  name : string;  (** printing hint, not an identity *)
  kind : kind;
  lo : int option;  (** weak constant bounds, inclusive *)
  hi : int option;
}

(** [const + sum coeff * sym]; terms sorted by [sid], coefficients
    nonzero. *)
type t = { const : int; terms : (sym * int) list }

val const : int -> t
val of_sym : sym -> t
val is_const : t -> bool
val add : t -> t -> t
val scale : int -> t -> t
val neg : t -> t
val sub : t -> t -> t
val add_const : int -> t -> t

(** [a * b] when one side is a constant; [None] otherwise. *)
val mul : t -> t -> t option

val equal : t -> t -> bool
val syms : t -> sym list

(** No per-instance symbols: every term is [Shared]. *)
val is_uniform : t -> bool

val is_thread_dep : t -> bool

(** Mentions an actual thread-index symbol (as opposed to a local loop
    counter, which is per-instance but not a thread index). *)
val has_thread : t -> bool

val pp : t Fmt.t

(** Raised by {!mul_c} instead of wrapping. *)
exception Overflow

(** [a * b], checked: raises {!Overflow} when the product leaves the
    native int range. *)
val mul_c : int -> int -> int

(** Weak constant interval of an affine expression from its symbols'
    intervals ([None] side = unbounded, also when that side's value
    leaves the native int range). *)
val interval : t -> int option * int option

(** A conjunctive system: every [eqs] member is [= 0], every [ges]
    member is [>= 0]. *)
type system = { eqs : t list; ges : t list }

val empty : system
val with_eq : t -> system -> system
val with_ge : t -> system -> system

(** A verdict memo: the answers of the queries asked through it, keyed
    by the procedure's exact input. A query is densified once — the
    depth, each symbol's [(lo, hi)], then every equality row and every
    inequality row in order, over the symbols numbered 0..n-1 — and that
    one int array is both the memo key and, on a miss, the procedure's
    input. Names, kinds and raw [sid]s stay out of it, so two systems
    that differ only there share one entry; the modulus-interval case
    splits go through the memo as well. Verdicts are a function of the
    array alone, so a memo may be shared by any set of queries; it is
    not synchronized: one domain at a time. The race gate of
    [Alternatives.expand] keeps one per expansion (one per worker slot
    under [--jobs]), [pgpu check] one per module. *)
type memo

val memo : unit -> memo

(** Number of decided queries stored. *)
val memo_entries : memo -> int

(** {2 Queries over two instances}

    The race checker asks about two instances of a thread: the
    per-instance symbols ([Thread] and [Local]) of each are renamed
    apart, the [Shared] ones are common. A query is built straight from
    the unrenamed expressions. *)

(** How a row takes an expression's symbols: [Orig] as they are,
    [First] and [Second] with every per-instance symbol renamed to that
    instance ([Shared] symbols stay as they are). *)
type instance = Orig | First | Second

(** A row: the sum of its expressions, each under its instance. *)
type row = (instance * t) list

(** The renamed symbols of one pair, numbered in the order they are
    met — the order in which fresh symbols would have been made for
    them. *)
type numbering

val numbering : unit -> numbering

(** Number the renamed symbols of an expression under an instance that
    are not numbered yet, in term order. *)
val number : numbering -> instance -> t -> unit

(** A built query. *)
type query

(** The query of the system [eqs] = 0, [ges] >= 0 at [depth] (the
    modulus case-split depth). Its symbols are those with a nonzero
    coefficient in some row: the ones taken as they are first, in
    [sid] order, then the renamed ones in numbering order (renamed
    symbols the numbering has not met are numbered as the rows meet
    them). This is the array a system renamed with fresh [sid]s, in
    numbering order, would give. Symbols with one [sid] must agree on
    their bounds. *)
val query : numbering -> depth:int -> eqs:row list -> ges:row list -> query

(** [b] with one more inequality, in front of [b]'s, at [depth]
    (default [b]'s). When [b] has every symbol of the row, the row is
    inserted into a copy of [b]'s array; else the longer system is
    built. Either way the array is the one {!query} builds. *)
val and_ge : ?depth:int -> query -> row -> query

(** [b] with one more equality, in front of [b]'s; as {!and_ge}. *)
val and_eq : ?depth:int -> query -> row -> query

(** The dense array: the memo key and the procedure's input. *)
val dense : query -> int array

(** [true] iff the query's system is certainly infeasible over the
    integers, through [memo]. *)
val decide : memo -> query -> bool

(** The congruence rule ({!mod_guard_infeasible}) on a built query,
    [d] a row: the three queries are derived from [b] at [depth]
    (default 1). *)
val mod_guard : memo -> ?depth:int -> query -> d:row -> m:t -> bool

(** {2 Systems} *)

(** [true] iff the system is certainly infeasible over the integers.
    [depth] (default 2) bounds the recursive modulus-interval case
    splits. Its query takes every symbol as it is. *)
val infeasible : memo -> ?depth:int -> system -> bool

(** The congruence rule for a pair of modulo guards: both instances
    satisfy [e ≡ 0 (mod m)] for the same uniform [m], so
    [d = e1 - e2 ≡ 0 (mod m)]. [true] when [d >= m], [d <= -m] and
    [d = 0] are all infeasible under [sys] — which makes [sys] itself
    infeasible. *)
val mod_guard_infeasible : memo -> ?depth:int -> system -> d:t -> m:t -> bool

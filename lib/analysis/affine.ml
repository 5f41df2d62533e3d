(** Thread-index-affine expressions and the integer (in)feasibility
    procedures behind the static race checker.

    Every value the checker can reason about precisely is an affine
    combination over a set of {e symbols}: thread induction variables,
    per-thread-instance loop counters, and opaque-but-uniform
    quantities (kernel parameters, lockstep loop counters, results of
    non-affine uniform arithmetic such as [1 << k]). A symbol carries
    an optional constant interval from a small abstract interpretation
    (loop-bound propagation, monotone shift arithmetic), which feeds
    the solver as weak bounds.

    Race queries become conjunctive systems of affine equalities and
    inequalities over two renamed instances of the thread symbols. The
    decision stack, from cheap to precise:

    - equality substitution: the system's symbols are numbered in
      [sid] order and every row becomes a dense coefficient vector;
      each equality with a ±1 coefficient is solved for that symbol
      and substituted into every other row, which is exact over the
      integers (an equality whose gcd does not divide its constant has
      no integer point); only equalities without a unit coefficient
      become two inequalities;
    - Fourier–Motzkin elimination over the rationals with integer
      tightening (every row is divided by the gcd of its coefficients,
      flooring the constant), which is a sound infeasibility test over
      the integers. Input and derived rows live in one set that keeps
      the tightest constant per coefficient vector. Each step
      eliminates the variable with the fewest pos × neg combinations,
      the lowest index on a tie, so the verdict depends only on the
      system;
    - a modulus-interval test for each equality [E = 0]: for a
      candidate modulus [m] dividing some coefficients, the
      non-divisible residue [S] must be a multiple of [m]; its weak
      interval either contains no multiple (infeasible) or finitely
      many, which are counted first and, when at most 8, each
      re-checked as [S = q*m] — subsuming the classical GCD test and
      deciding tiled-index disjointness such as [16*tx + i = 17*i];
    - a congruence rule for modulo guards ([e % m == 0] on both
      instances forces [e1 - e2 ≡ 0 (mod m)]; if the system bounds
      [|e1 - e2| < m], the difference must be exactly 0), which
      decides strided tree reductions like backprop's
      [if (ty % (2*s) == 0)].

    Each query is put in dense form once: one int array holding the
    case-split depth, every symbol's bounds and every equality and
    inequality row over the dense numbering. That array is the whole
    input of the stack and also the key of a verdict memo the caller
    owns and passes in ({!memo}): equal arrays get equal verdicts, and
    systems that differ only in symbol names, kinds or [sid]s — the
    renamed instances of coarsened replicas, say — share one entry. The
    modulus-interval case splits are queries of the same memo, and one
    lookup hashes its array once.

    The race checker's queries are built straight from the expressions
    of one pair of accesses ({!query}): a row is a sum of expressions,
    each taken under an {!instance}, and the per-instance symbols of the
    two instances are numbered in the order the checker meets them
    ({!numbering}), as if each had been renamed to a fresh symbol at
    that moment. Nothing is renamed or sorted: the array comes out as
    the one the renamed system would give, with the symbols taken as
    they are first, in [sid] order, and the renamed ones after them in
    numbering order. A query one row longer than a built one is derived
    from it by inserting the row ({!and_ge}, {!and_eq}) when the row has
    no new symbol. *)

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

let const n = { const = n; terms = [] }
let of_sym s = { const = 0; terms = [ (s, 1) ] }
let is_const a = a.terms = []

let rec merge_terms ts1 ts2 =
  match (ts1, ts2) with
  | [], ts | ts, [] -> ts
  | (s1, c1) :: r1, (s2, c2) :: r2 ->
      if s1.sid < s2.sid then (s1, c1) :: merge_terms r1 ts2
      else if s1.sid > s2.sid then (s2, c2) :: merge_terms ts1 r2
      else
        let c = c1 + c2 in
        if c = 0 then merge_terms r1 r2 else (s1, c) :: merge_terms r1 r2

let add a b = { const = a.const + b.const; terms = merge_terms a.terms b.terms }

let scale k a =
  if k = 0 then const 0
  else { const = k * a.const; terms = List.map (fun (s, c) -> (s, k * c)) a.terms }

let neg a = scale (-1) a
let sub a b = add a (neg b)
let add_const n a = { a with const = a.const + n }

(** [a * b] when one side is a constant. *)
let mul a b =
  if is_const a then Some (scale a.const b)
  else if is_const b then Some (scale b.const a)
  else None

let equal a b = a.const = b.const && List.equal (fun (s1, c1) (s2, c2) -> s1.sid = s2.sid && c1 = c2) a.terms b.terms

let syms a = List.map fst a.terms
let is_uniform a = List.for_all (fun (s, _) -> s.kind = Shared) a.terms
let is_thread_dep a = not (is_uniform a)

(** Mentions an actual thread-index symbol (as opposed to a local loop
    counter, which is per-instance but not a thread index). *)
let has_thread a =
  List.exists (fun (s, _) -> match s.kind with Thread _ -> true | Local | Shared -> false) a.terms

let pp ppf a =
  let pp_term first ppf (s, c) =
    if c = 1 then Fmt.pf ppf "%s%s" (if first then "" else " + ") s.name
    else if c = -1 then Fmt.pf ppf "%s%s" (if first then "-" else " - ") s.name
    else if c >= 0 then Fmt.pf ppf "%s%d*%s" (if first then "" else " + ") c s.name
    else Fmt.pf ppf "%s%d*%s" (if first then "" else " - ") (-c) s.name
  in
  match a.terms with
  | [] -> Fmt.int ppf a.const
  | t0 :: rest ->
      pp_term true ppf t0;
      List.iter (pp_term false ppf) rest;
      if a.const > 0 then Fmt.pf ppf " + %d" a.const
      else if a.const < 0 then Fmt.pf ppf " - %d" (-a.const)

(* Checked arithmetic for the decision procedure. Symbol bounds from
   shift intervals reach 2^61, so a product or sum of coefficients,
   constants and bounds can leave the native range; a wrapped row could
   turn a feasible system "infeasible". Every such operation raises
   [Overflow] instead, and the procedure then gives up ("not
   proven"). *)
exception Overflow

let[@inline] add_c a b =
  let s = a + b in
  (* wrapped iff both operands have the sign the sum lacks *)
  if (a lxor s) land (b lxor s) < 0 then raise Overflow;
  s

let[@inline] sub_c a b =
  let d = a - b in
  if (a lxor b) land (a lxor d) < 0 then raise Overflow;
  d

let neg_c a = if a = min_int then raise Overflow else -a

let mul_wide a b =
  if a = 0 || b = 0 then 0
  else begin
    let p = a * b in
    if a = min_int || b = min_int || p / b <> a then raise Overflow;
    p
  end

(* operands below 2^30 in magnitude cannot wrap, nor can a sum of
   two of their products: the inlined fast paths *)
let[@inline] small x = x > -0x4000_0000 && x < 0x4000_0000
let[@inline] mul_c a b = if small a && small b then a * b else mul_wide a b

(** [b * x + a * y], checked. *)
let[@inline] comb b x a y =
  if small b && small x && small a && small y then (b * x) + (a * y)
  else add_c (mul_wide b x) (mul_wide a y)

(** Weak constant interval of an affine expression from its symbols'
    intervals; a side whose value leaves the native range is
    unbounded. *)
let interval a =
  let side lower =
    List.fold_left
      (fun acc (s, c) ->
        match (acc, if (c > 0) = lower then s.lo else s.hi) with
        | Some v, Some b -> ( try Some (add_c v (mul_c c b)) with Overflow -> None)
        | _ -> None)
      (Some a.const) a.terms
  in
  (side true, side false)

(* ------------------------------------------------------------------ *)
(* The decision procedure                                              *)
(* ------------------------------------------------------------------ *)

(** A conjunctive system: every [eqs] member is [= 0], every [ges]
    member is [>= 0]. *)
type system = { eqs : t list; ges : t list }

let empty = { eqs = []; ges = [] }
let with_eq a sys = { sys with eqs = a :: sys.eqs }
let with_ge a sys = { sys with ges = a :: sys.ges }

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

(* Division rounding down and up, for a positive divisor. *)
let fdiv a b =
  let q = a / b in
  if a mod b < 0 then q - 1 else q

let cdiv a b =
  let q = a / b in
  if a mod b > 0 then q + 1 else q

(* Solver rows are dense. The symbols of one system are numbered
   0..n-1 in [sid] order; a row is a coefficient vector [c] plus a
   constant [k], read as [k + sum c.(i) * x_i >= 0] (or [= 0] for an
   equality). [Rows] keys the row set of an elimination by [c]; the
   verdict memo keys a whole query the same way. *)
let rec equal_from (a : int array) (b : int array) i =
  i = Array.length a || (a.(i) = b.(i) && equal_from a b (i + 1))

let equal_arrays (a : int array) b = Array.length a = Array.length b && equal_from a b 0

let hash_array (a : int array) =
  let h = ref 0 in
  for i = 0 to Array.length a - 1 do
    h := (!h * 31) + a.(i)
  done;
  !h land max_int

module Rows = Hashtbl.Make (struct
  type t = int array

  let equal = equal_arrays
  let hash = hash_array
end)

(* A cap on the rows of one elimination step: systems here are tiny
   (two instances of a handful of symbols), so hitting the cap means
   something pathological — give up and treat the system as (possibly)
   feasible, which is the conservative direction. *)
let max_rows = 4096

exception Infeasible
exception Too_big

(** Add [k + c.x >= 0] to the row set: tightened by the gcd of [c]
    (floor division of the constant, sound for integer-valued
    variables), and kept only when no row with the same coefficients
    is at least as tight. *)
let add_ge (set : int Rows.t) c k =
  let g = Array.fold_left gcd 0 c in
  if g = 0 then (if k < 0 then raise Infeasible)
  else begin
    let c, k = if g = 1 then (c, k) else (Array.map (fun x -> x / g) c, fdiv k g) in
    match Rows.find_opt set c with
    | Some k' when k' <= k -> ()
    | Some _ -> Rows.replace set c k
    | None -> Rows.add set c k
  end

(** One Fourier–Motzkin step: eliminate the variable with the fewest
    pos × neg combinations, the lowest index on a tie. [None] once no
    variable is left. *)
let eliminate n (set : int Rows.t) : int Rows.t option =
  let pos = Array.make n 0 and neg = Array.make n 0 in
  Rows.iter
    (fun c _ ->
      for i = 0 to n - 1 do
        if c.(i) > 0 then pos.(i) <- pos.(i) + 1 else if c.(i) < 0 then neg.(i) <- neg.(i) + 1
      done)
    set;
  let v = ref (-1) and cost = ref max_int in
  for i = 0 to n - 1 do
    if pos.(i) + neg.(i) > 0 && pos.(i) * neg.(i) < !cost then begin
      v := i;
      cost := pos.(i) * neg.(i)
    end
  done;
  if !v < 0 then None
  else begin
    let v = !v in
    let next = Rows.create (2 * Rows.length set) in
    let ps = ref [] and ns = ref [] in
    Rows.iter
      (fun c k ->
        if c.(v) > 0 then ps := (c, k) :: !ps
        else if c.(v) < 0 then ns := (c, k) :: !ns
        else Rows.add next c k (* keys of [set] are distinct *))
      set;
    List.iter
      (fun (cp, kp) ->
        let a = cp.(v) in
        List.iter
          (fun (cn, kn) ->
            let b = neg_c cn.(v) in
            let k = comb b kp a kn and c = Array.make n 0 in
            for i = 0 to n - 1 do
              c.(i) <- comb b cp.(i) a cn.(i)
            done;
            add_ge next c k;
            if Rows.length next > max_rows then raise Too_big)
          !ns)
      !ps;
    Some next
  end

(** An equality divided by the gcd of its coefficients; [None] when it
    is trivially true. Raises [Infeasible] when the gcd does not divide
    the constant (no integer point). *)
let normalize_eq (c, k) =
  let g = Array.fold_left gcd 0 c in
  if g = 0 then if k <> 0 then raise Infeasible else None
  else if k mod g <> 0 then raise Infeasible
  else if g = 1 then Some (c, k)
  else Some (Array.map (fun x -> x / g) c, k / g)

(** Substitute away every equality with a ±1 coefficient (the first
    such equality, at its lowest such index, each time). Exact over
    the integers. Returns the equalities left, none with a unit
    coefficient, and the rewritten inequalities. *)
let rec substitute eqs ges =
  let eqs = List.filter_map normalize_eq eqs in
  match
    List.find_map
      (fun (c, k) -> Option.map (fun j -> (c, k, j)) (Array.find_index (fun x -> abs x = 1) c))
      eqs
  with
  | None -> (eqs, ges)
  | Some (c, k, j) ->
      (* x_j = -s * (k + sum_{i <> j} c_i x_i) with s = c_j = ±1; the
         equality itself becomes 0 = 0 and is dropped next round *)
      let s = c.(j) in
      let elim ((c', k') as r) =
        let f = mul_c c'.(j) s in
        if f = 0 then r
        else (Array.mapi (fun i x -> sub_c x (mul_c f c.(i))) c', sub_c k' (mul_c f k))
      in
      substitute (List.map elim eqs) (List.map elim ges)

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

(* A query is the procedure's whole input in dense form, one int
   array:

     [| depth; n; e; g;
        flags_0; lo_0; hi_0; ...; flags_(n-1); lo_(n-1); hi_(n-1);
        e equality rows; g inequality rows |]

   The system's symbols are numbered 0..n-1 in [sid] order; bit 0
   (bit 1) of [flags_i] is set when symbol [i] has a lower (upper)
   bound, and a row is its [n] coefficients followed by its constant.
   The procedures below read nothing else — no name, kind or raw
   [sid] — so the array is also the memo key: equal queries get equal
   verdicts. *)

let header = 4
let rows_start q = header + (3 * q.(1))
let row_at q r = rows_start q + (r * (q.(1) + 1))
let lo_of q i = if q.(header + (3 * i)) land 1 <> 0 then Some q.(header + (3 * i) + 1) else None
let hi_of q i = if q.(header + (3 * i)) land 2 <> 0 then Some q.(header + (3 * i) + 2) else None

type instance = Orig | First | Second
type row = (instance * t) list

(* The key of symbol [s] under [inst]: [3 * sid] when the symbol is
   taken as it is (every [Shared] one, and any under [Orig]), [3 * sid
   + 1] or [3 * sid + 2] when it is renamed to the first or second
   instance. *)
let key inst (s : sym) =
  match (s.kind, inst) with
  | Shared, _ | _, Orig -> 3 * s.sid
  | (Thread _ | Local), First -> (3 * s.sid) + 1
  | (Thread _ | Local), Second -> (3 * s.sid) + 2

let renamed k = k mod 3 <> 0

type numbering = { mutable keys : int array; mutable count : int }

let numbering () = { keys = Array.make 16 0; count = 0 }

let rec find_key (keys : int array) count k i =
  if i = count then -1 else if keys.(i) = k then i else find_key keys count k (i + 1)

(* The rank of renamed key [k], which is numbered now if it is new. *)
let rank num k =
  match find_key num.keys num.count k 0 with
  | -1 ->
      if num.count = Array.length num.keys then begin
        let keys = Array.make (2 * num.count) 0 in
        Array.blit num.keys 0 keys 0 num.count;
        num.keys <- keys
      end;
      num.keys.(num.count) <- k;
      num.count <- num.count + 1;
      num.count - 1
  | r -> r

let rec number_terms num inst = function
  | [] -> ()
  | (s, _) :: rest ->
      let k = key inst s in
      if renamed k then ignore (rank num k);
      number_terms num inst rest

let number num inst (a : t) = number_terms num inst a.terms

type query = {
  q : int array;
  keys : int array;  (** the key of each dense symbol *)
  num : numbering;
  eqs : row list;
  ges : row list;
}

let dense b = b.q

let no_sym = { sid = 0; name = ""; kind = Shared; lo = None; hi = None }

(* The scratch of one build: a column per key met, in order of first
   meeting, and the column of every term in row order. *)
type scratch = {
  ckey : int array;
  csym : sym array;
  tcol : int array;
  mutable ncol : int;
  mutable t : int;
}

let rec count_row acc = function
  | [] -> acc
  | ((_, a) : instance * t) :: rest -> count_row (acc + List.length a.terms) rest

let rec count_rows acc = function [] -> acc | row :: rest -> count_rows (count_row acc row) rest

let rec meet_terms sc inst = function
  | [] -> ()
  | (s, _) :: rest ->
      let k = key inst s in
      let j = find_key sc.ckey sc.ncol k 0 in
      let j =
        if j >= 0 then j
        else begin
          sc.ckey.(sc.ncol) <- k;
          sc.csym.(sc.ncol) <- s;
          sc.ncol <- sc.ncol + 1;
          sc.ncol - 1
        end
      in
      sc.tcol.(sc.t) <- j;
      sc.t <- sc.t + 1;
      meet_terms sc inst rest

let rec meet_rows sc = function
  | [] -> ()
  | [] :: rows -> meet_rows sc rows
  | (((inst, a) : instance * t) :: parts) :: rows ->
      meet_terms sc inst a.terms;
      meet_rows sc (parts :: rows)

(* Sum the terms into row offset [o] of [q], column [pos] of each
   term's column. *)
let rec put_terms q o pos sc = function
  | [] -> ()
  | (_, c) :: rest ->
      let i = o + pos.(sc.tcol.(sc.t)) in
      q.(i) <- q.(i) + c;
      sc.t <- sc.t + 1;
      put_terms q o pos sc rest

let rec put_rows q r pos sc = function
  | [] -> ()
  | [] :: rows -> put_rows q (r + 1) pos sc rows
  | (((_, a) : instance * t) :: parts) :: rows ->
      let o = row_at q r in
      q.(o + q.(1)) <- q.(o + q.(1)) + a.const;
      put_terms q o pos sc a.terms;
      put_rows q r pos sc (parts :: rows)

let rec used q i r = r < q.(2) + q.(3) && (q.(row_at q r + i) <> 0 || used q i (r + 1))

(* [q] without the symbols of [drop]: their columns are all zeros *)
let compact q n (drop : bool array) =
  let kept = List.filter (fun i -> not drop.(i)) (List.init n Fun.id) in
  let n' = List.length kept and rows = q.(2) + q.(3) in
  let q' = Array.make (header + (3 * n') + (rows * (n' + 1))) 0 in
  Array.blit q 0 q' 0 header;
  q'.(1) <- n';
  for r = 0 to rows - 1 do
    let o = row_at q r and o' = row_at q' r in
    List.iteri (fun i' i -> q'.(o' + i') <- q.(o + i)) kept;
    q'.(o' + n') <- q.(o + n)
  done;
  (q', kept)

(** The query of the system [eqs] = 0, [ges] >= 0 at [depth]. A first
    pass gives every key a column, in order of first meeting, and notes
    each term's column; the second sums the rows straight into the
    array, its columns in dense order. A column whose terms all cancel
    names no symbol and is dropped. Renamed keys not numbered yet are
    numbered in meeting order. *)
let query num ~depth ~(eqs : row list) ~(ges : row list) : query =
  let e = List.length eqs and g = List.length ges in
  let cap = count_rows (count_rows 0 eqs) ges in
  let sc =
    { ckey = Array.make cap 0; csym = Array.make cap no_sym; tcol = Array.make cap 0; ncol = 0; t = 0 }
  in
  meet_rows sc eqs;
  meet_rows sc ges;
  let n = sc.ncol in
  (* dense order: the keys taken as they are by [sid], then the renamed
     ones by rank; [cols] lists the columns in that order *)
  let ord = Array.make n 0 in
  for j = 0 to n - 1 do
    let k = sc.ckey.(j) in
    ord.(j) <- (if renamed k then rank num k else k)
  done;
  let cols = Array.make n 0 in
  for j = 0 to n - 1 do
    let rj = renamed sc.ckey.(j) in
    let i = ref j in
    while
      !i > 0
      &&
      let c = cols.(!i - 1) in
      let rc = renamed sc.ckey.(c) in
      (rc && not rj) || (rc = rj && ord.(j) < ord.(c))
    do
      cols.(!i) <- cols.(!i - 1);
      decr i
    done;
    cols.(!i) <- j
  done;
  let pos = Array.make n 0 in
  for i = 0 to n - 1 do
    pos.(cols.(i)) <- i
  done;
  let q = Array.make (header + (3 * n) + ((e + g) * (n + 1))) 0 in
  q.(0) <- depth;
  q.(1) <- n;
  q.(2) <- e;
  q.(3) <- g;
  sc.t <- 0;
  put_rows q 0 pos sc eqs;
  put_rows q e pos sc ges;
  let drop = Array.init n (fun i -> not (used q i 0)) in
  let q, cols =
    if Array.exists Fun.id drop then
      let q', kept = compact q n drop in
      (q', Array.of_list (List.map (fun i -> cols.(i)) kept))
    else (q, cols)
  in
  let n = q.(1) in
  let keys = Array.make n 0 in
  for i = 0 to n - 1 do
    let s = sc.csym.(cols.(i)) and o = header + (3 * i) in
    keys.(i) <- sc.ckey.(cols.(i));
    (match s.lo with Some lo -> q.(o) <- 1; q.(o + 1) <- lo | None -> ());
    match s.hi with Some hi -> q.(o) <- q.(o) lor 2; q.(o + 2) <- hi | None -> ()
  done;
  { q; keys; num; eqs; ges }

(* Sum the row's terms into [q] at [at], the columns of [keys];
   [false] when some key is not among them. *)
let rec sum_terms q at keys inst = function
  | [] -> true
  | (s, c) :: rest ->
      let i = find_key keys (Array.length keys) (key inst s) 0 in
      i >= 0
      && begin
           q.(at + i) <- q.(at + i) + c;
           sum_terms q at keys inst rest
         end

let rec sum_row q at keys = function
  | [] -> true
  | ((inst, a) : instance * t) :: parts ->
      let n = Array.length keys in
      q.(at + n) <- q.(at + n) + a.const;
      sum_terms q at keys inst a.terms && sum_row q at keys parts

(* [b] with [row] in front of its equalities ([eq]) or inequalities, at
   [depth]. When every key of the row is a symbol of [b], the row goes
   straight into a copy of [b]'s array; otherwise the longer system is
   built afresh. *)
let extend ~eq ~depth (b : query) (row : row) : query =
  let q = b.q in
  let n = q.(1) and len = Array.length q in
  let at = if eq then rows_start q else row_at q q.(2) in
  let q' = Array.make (len + n + 1) 0 in
  let eqs, ges = if eq then (row :: b.eqs, b.ges) else (b.eqs, row :: b.ges) in
  if sum_row q' at b.keys row then begin
    Array.blit q 0 q' 0 at;
    Array.blit q at q' (at + n + 1) (len - at);
    q'.(0) <- depth;
    if eq then q'.(2) <- q.(2) + 1 else q'.(3) <- q.(3) + 1;
    { b with q = q'; eqs; ges }
  end
  else query b.num ~depth ~eqs ~ges

let and_ge ?depth b row = extend ~eq:false ~depth:(Option.value depth ~default:b.q.(0)) b row
let and_eq ?depth b row = extend ~eq:true ~depth:(Option.value depth ~default:b.q.(0)) b row

(** Equality substitution, then Fourier–Motzkin elimination over the
    rationals with integer tightening on one deduplicated row set.
    [true] means the query is certainly infeasible over the integers;
    [false] means "not proven infeasible". The symbols' weak bounds
    enter as rows. *)
let fm_infeasible q : bool =
  let n = q.(1) and e = q.(2) in
  let row r =
    let o = row_at q r in
    (Array.sub q o n, q.(o + n))
  in
  try
    let bounds =
      List.concat
        (List.init n (fun i ->
             let unit x k = (Array.init n (fun j -> if j = i then x else 0), k) in
             Option.to_list (Option.map (fun lo -> unit 1 (neg_c lo)) (lo_of q i))
             @ Option.to_list (Option.map (fun hi -> unit (-1) hi) (hi_of q i))))
    in
    let eqs, ges = substitute (List.init e row) (List.init q.(3) (fun r -> row (e + r)) @ bounds) in
    let set = Rows.create 32 in
    List.iter
      (fun (c, k) ->
        add_ge set c k;
        add_ge set (Array.map neg_c c) (neg_c k))
      eqs;
    List.iter (fun (c, k) -> add_ge set c k) ges;
    let rec loop set = match eliminate n set with None -> false | Some set -> loop set in
    loop set
  with
  | Infeasible -> true
  | Too_big | Overflow -> false

(** Candidate moduli for the modulus-interval test on the equality at
    offset [o]: the distinct absolute coefficient values above 1. *)
let moduli q o =
  let ms = ref [] in
  for i = 0 to q.(1) - 1 do
    let c = abs q.(o + i) in
    if c > 1 then ms := c :: !ms
  done;
  List.sort_uniq Int.compare !ms

(** Weak interval of the residue [S] of the equality at offset [o]:
    its constant plus the terms whose coefficient [m] does not divide
    (as {!interval}, in symbol order). *)
let residue_interval q o m =
  let n = q.(1) in
  let side lower =
    let acc = ref (Some q.(o + n)) in
    for i = 0 to n - 1 do
      let c = q.(o + i) in
      if c mod m <> 0 then
        acc :=
          match (!acc, if (c > 0) = lower then lo_of q i else hi_of q i) with
          | Some v, Some b -> ( try Some (add_c v (mul_c c b)) with Overflow -> None)
          | _ -> None
    done;
    !acc
  in
  (side true, side false)

(** [q] one level deeper, with [S = j*m] put in front of its
    equalities, [S] the residue of the equality at offset [o] modulo
    [m]. *)
let with_residue q o m j =
  let n = q.(1) and base = rows_start q in
  let k = sub_c q.(o + n) (mul_c j m) in
  let q' = Array.make (Array.length q + n + 1) 0 in
  Array.blit q 0 q' 0 base;
  q'.(0) <- q.(0) - 1;
  q'.(2) <- q.(2) + 1;
  for i = 0 to n - 1 do
    let c = q.(o + i) in
    if c mod m <> 0 then q'.(base + i) <- c
  done;
  q'.(base + n) <- k;
  Array.blit q base q' (base + n + 1) (Array.length q - base);
  q'

(* The memo keys a query by its array and the array's hash, so that a
   lookup and the insertion after a miss hash the array once. *)
type memo_key = { hash : int; arr : int array }

module Memo = Hashtbl.Make (struct
  type t = memo_key

  let equal a b = a.hash = b.hash && equal_arrays a.arr b.arr
  let hash k = k.hash
end)

type memo = bool Memo.t

let memo () : memo = Memo.create 64
let memo_entries (memo : memo) = Memo.length memo

let rec decide_array (memo : memo) q =
  let k = { hash = hash_array q; arr = q } in
  match Memo.find_opt memo k with
  | Some v -> v
  | None ->
      (* the case splits are one level shallower, so none of them is
         [q] itself: [q] is still absent when [v] is known *)
      let v = fm_infeasible q || (q.(0) > 0 && modulus_infeasible memo q) in
      Memo.add memo k v;
      v

(* For each equality [E = 0] and candidate modulus [m]: S = the part
   of [E] not divisible by [m] (never all of it, [m] being one of its
   coefficients), so S ≡ 0 (mod m). *)
and modulus_infeasible memo q =
  let rec from r =
    r < q.(2)
    && (let o = row_at q r in
        List.exists
          (fun m ->
            match residue_interval q o m with
            | Some lo, Some hi -> (
                (* the multiples of m in [lo, hi] are j*m for j in
                   [first, last]; counted before they are listed,
                   since intervals from shifts reach 2^61 *)
                let first = cdiv lo m and last = fdiv hi m in
                try
                  sub_c last first < 8
                  && List.for_all
                       (fun j -> decide_array memo (with_residue q o m j))
                       (List.init (max 0 (last - first + 1)) (fun i -> first + i))
                with Overflow -> false)
            | _ -> false)
          (moduli q o)
       || from (r + 1))
  in
  from 0

let decide memo b = decide_array memo b.q

(** The congruence rule for a pair of modulo guards: both instances
    satisfy [e ≡ 0 (mod m)] for the same uniform [m], so
    [d = e1 - e2 ≡ 0 (mod m)]. If the system proves [d >= m] and
    [d <= -m] and [d = 0] all infeasible, the system itself is
    infeasible. Requires [m >= 1] to be implied by the system (symbol
    intervals). *)
let mod_guard memo ?(depth = 1) b ~(d : row) ~(m : t) =
  let less_m = (Orig, neg m) in
  decide memo (and_ge ~depth b (less_m :: d))
  && decide memo (and_ge ~depth b (less_m :: List.map (fun (inst, a) -> (inst, neg a)) d))
  && decide memo (and_eq ~depth b d)

let of_system ~depth (sys : system) =
  let rows = List.map (fun a -> [ (Orig, a) ]) in
  query (numbering ()) ~depth ~eqs:(rows sys.eqs) ~ges:(rows sys.ges)

let infeasible memo ?(depth = 2) (sys : system) : bool = decide memo (of_system ~depth sys)

let mod_guard_infeasible memo ?(depth = 1) (sys : system) ~(d : t) ~(m : t) : bool =
  mod_guard memo ~depth (of_system ~depth sys) ~d:[ (Orig, d) ] ~m

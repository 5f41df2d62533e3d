(** The list-based query builder the race checker used before it built
    queries straight from a pair's unrenamed expressions: the oracle of
    [Affine.query]. A system's per-instance symbols are first renamed
    to fresh ones, then every symbol is collected and sorted by [sid]
    and each row is placed by one scan of its [sid]-sorted terms. *)

module A = Pgpu_analysis.Affine

let header = 4

(** The query of [sys] at [depth], as {!A.dense} lays it out. *)
let query ~depth (sys : A.system) : int array =
  let syms =
    List.sort_uniq
      (fun (s1 : A.sym) (s2 : A.sym) -> Int.compare s1.A.sid s2.A.sid)
      (List.concat_map A.syms sys.A.eqs @ List.concat_map A.syms sys.A.ges)
    |> Array.of_list
  in
  let n = Array.length syms and e = List.length sys.A.eqs and g = List.length sys.A.ges in
  let q = Array.make (header + (3 * n) + ((e + g) * (n + 1))) 0 in
  q.(0) <- depth;
  q.(1) <- n;
  q.(2) <- e;
  q.(3) <- g;
  Array.iteri
    (fun i (s : A.sym) ->
      let o = header + (3 * i) in
      Option.iter (fun lo -> q.(o) <- 1; q.(o + 1) <- lo) s.A.lo;
      Option.iter (fun hi -> q.(o) <- q.(o) lor 2; q.(o + 2) <- hi) s.A.hi)
    syms;
  let put r (a : A.t) =
    let o = header + (3 * n) + (r * (n + 1)) in
    let rec go i = function
      | [] -> ()
      | ((s : A.sym), x) :: rest as terms ->
          if syms.(i).A.sid = s.A.sid then begin
            q.(o + i) <- q.(o + i) + x;
            go i rest
          end
          else go (i + 1) terms
    in
    go 0 a.A.terms;
    q.(o + n) <- a.A.const
  in
  List.iteri put sys.A.eqs;
  List.iteri (fun r a -> put (e + r) a) sys.A.ges;
  q

(** Renaming to fresh symbols, made on first encounter: the fresh
    [sid]s count up from [first], above every [sid] in use. *)
type renamer = { mutable next : int; fresh : (A.instance * int, A.sym) Hashtbl.t }

let renamer ~first = { next = first; fresh = Hashtbl.create 16 }

let rename_sym rn inst (s : A.sym) =
  match (s.A.kind, inst) with
  | A.Shared, _ | _, A.Orig -> s
  | (A.Thread _ | A.Local), (A.First | A.Second) -> (
      match Hashtbl.find_opt rn.fresh (inst, s.A.sid) with
      | Some s' -> s'
      | None ->
          let s' = { s with A.sid = rn.next } in
          rn.next <- rn.next + 1;
          Hashtbl.add rn.fresh (inst, s.A.sid) s';
          s')

(** [a] under [inst], its terms renamed in order and re-sorted. *)
let rename rn inst (a : A.t) =
  let terms = List.map (fun (s, c) -> (rename_sym rn inst s, c)) a.A.terms in
  { a with A.terms = List.sort (fun ((s1 : A.sym), _) ((s2 : A.sym), _) -> Int.compare s1.A.sid s2.A.sid) terms }

(** A row as one expression: the sum of its renamed parts. *)
let row rn (r : A.row) = List.fold_left (fun acc (inst, a) -> A.add acc (rename rn inst a)) (A.const 0) r

(** Summary statistics used when reporting experiment results, matching
    the paper's methodology (medians of repeated runs, geometric means
    of per-benchmark speedups). *)

let mean = function
  | [] -> nan
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let median l =
  match List.sort compare l with
  | [] -> nan
  | sorted ->
      let n = List.length sorted in
      let a = List.nth sorted ((n - 1) / 2) and b = List.nth sorted (n / 2) in
      (a +. b) /. 2.

(** Geometric mean; all inputs must be positive. *)
let geomean = function
  | [] -> nan
  | l ->
      let logs = List.map log l in
      exp (List.fold_left ( +. ) 0. logs /. float_of_int (List.length l))

let minimum l = List.fold_left min infinity l
let maximum l = List.fold_left max neg_infinity l

(** Speedup of [baseline] over [candidate] runtimes: > 1 means the
    candidate is faster. *)
let speedup ~baseline ~candidate = baseline /. candidate

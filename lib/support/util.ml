(** Small shared helpers used across the Polygeist-GPU reproduction. *)

let failf fmt = Fmt.kstr failwith fmt

(** [ceil_div a b] is [a / b] rounded towards positive infinity, for
    [b > 0]. Used pervasively for grid sizing and occupancy math. *)
let ceil_div a b =
  assert (b > 0);
  (a + b - 1) / b

(** [round_up a b] rounds [a] up to the next multiple of [b]. *)
let round_up a b = ceil_div a b * b

(** Integer log2 rounded down; [ilog2 1 = 0]. *)
let ilog2 n =
  assert (n > 0);
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

(** All divisors of [n] in increasing order. *)
let divisors n =
  assert (n > 0);
  let rec go d acc = if d > n then List.rev acc else go (d + 1) (if n mod d = 0 then d :: acc else acc) in
  go 1 []

(** [factorize n] is the prime factorization of [n] as an increasing
    list of primes with multiplicity, e.g. [factorize 12 = [2;2;3]]. *)
let factorize n =
  assert (n > 0);
  let rec go n d acc =
    if n = 1 then List.rev acc
    else if d * d > n then List.rev (n :: acc)
    else if n mod d = 0 then go (n / d) d (d :: acc)
    else go n (d + 1) acc
  in
  go n 2 []

(** Split a total coarsening factor across [dims] dimensions, most work
    to the first dimension, skipping dimensions whose extent is 1.
    Mirrors the paper's balancing rule: total factor 16 over 3 usable
    dims gives (4, 2, 2); 6 gives (3, 2, 1). *)
let balance_factor ~usable total =
  let n = List.length usable in
  let facs = Array.make n 1 in
  let primes = List.rev (factorize total) in
  (* Distribute largest primes round-robin over usable dims so that the
     product per dim stays as balanced as possible. *)
  let usable_idx =
    List.mapi (fun i u -> (i, u)) usable |> List.filter_map (fun (i, u) -> if u then Some i else None)
  in
  (match usable_idx with
  | [] -> if total > 1 then facs.(0) <- total
  | _ ->
      List.iter
        (fun p ->
          (* put p on the usable dim with currently smallest factor,
             earliest dim wins ties *)
          let best =
            List.fold_left
              (fun best i -> match best with Some j when facs.(j) <= facs.(i) -> Some j | _ -> Some i)
              None usable_idx
          in
          match best with Some i -> facs.(i) <- facs.(i) * p | None -> ())
        primes);
  Array.to_list facs

let rec take n = function [] -> [] | x :: tl -> if n <= 0 then [] else x :: take (n - 1) tl

let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: tl -> drop (n - 1) tl

let rec transpose = function
  | [] | [] :: _ -> []
  | rows -> List.map List.hd rows :: transpose (List.map List.tl rows)

exception Write_error of string

(* the [Write_error] of [path]'s [Sys_error] message [m] *)
let write_error path m =
  Write_error (if String.starts_with ~prefix:path m then m else path ^ ": " ^ m)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    (* another process may have made it since the check *)
    try Sys.mkdir dir 0o755
    with Sys_error m ->
      if not (Sys.file_exists dir && Sys.is_directory dir) then raise (write_error dir m)
  end

let write_file path contents =
  mkdir_p (Filename.dirname path);
  try Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents)
  with Sys_error m -> raise (write_error path m)

(** Default worker count for parallel compilation phases: the number
    of available cores, capped at 4 (candidate expansion saturates well
    before that on the small kernels of the evaluation suite). *)
let default_jobs () = max 1 (min 4 (Domain.recommended_domain_count ()))

(** Deterministic splitmix64 PRNG.

    All workload generators and the autotuner use this generator so
    that every experiment in the reproduction is bit-reproducible
    across runs, independent of the OCaml stdlib [Random] state.

    The 64-bit state lives unboxed in 8 bytes, and each draw is
    inlined into [int], [float] and [bool], so a draw allocates
    nothing: the [int64] intermediates stay in registers. A [float]
    returned to another module is boxed, so [fill_uniform] draws a
    whole buffer here, straight into its unboxed array. *)

type t = Bytes.t

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 (Int64.of_int seed);
  t

let golden = 0x9E3779B97F4A7C15L

let[@inline] draw t =
  let z = Int64.add (Bytes.get_int64_ne t 0) golden in
  Bytes.set_int64_ne t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(** Uniform int in [0, bound). *)
let int t bound =
  assert (bound > 0);
  let v = Int64.to_int (Int64.shift_right_logical (draw t) 2) in
  v mod bound

(** Uniform float in [0, 1). *)
let[@inline] float t =
  let v = Int64.to_float (Int64.shift_right_logical (draw t) 11) in
  v /. 9007199254740992. (* 2^53 *)

let fill_uniform t arr n ~lo ~span =
  for k = 0 to n - 1 do
    arr.(k) <- lo +. (span *. float t)
  done

let bool t = Int64.logand (draw t) 1L = 1L

(** Fisher-Yates shuffle, in place. *)
let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

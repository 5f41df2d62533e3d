(** Unit and property tests for the support library. *)

open Pgpu_support

let test_ceil_div () =
  Alcotest.(check int) "7/2" 4 (Util.ceil_div 7 2);
  Alcotest.(check int) "8/2" 4 (Util.ceil_div 8 2);
  Alcotest.(check int) "1/256" 1 (Util.ceil_div 1 256);
  Alcotest.(check int) "0/3" 0 (Util.ceil_div 0 3)

let test_divisors () =
  Alcotest.(check (list int)) "12" [ 1; 2; 3; 4; 6; 12 ] (Util.divisors 12);
  Alcotest.(check (list int)) "1" [ 1 ] (Util.divisors 1);
  Alcotest.(check (list int)) "7" [ 1; 7 ] (Util.divisors 7)

let test_factorize () =
  Alcotest.(check (list int)) "12" [ 2; 2; 3 ] (Util.factorize 12);
  Alcotest.(check (list int)) "1" [] (Util.factorize 1);
  Alcotest.(check (list int)) "97" [ 97 ] (Util.factorize 97);
  Alcotest.(check (list int)) "64" [ 2; 2; 2; 2; 2; 2 ] (Util.factorize 64)

let test_balance_factor () =
  (* the paper's rule: 16 over three usable dims -> (4, 2, 2); 6 -> (3, 2, 1) *)
  Alcotest.(check (list int)) "16 over 3" [ 4; 2; 2 ]
    (Util.balance_factor ~usable:[ true; true; true ] 16);
  Alcotest.(check (list int)) "6 over 3" [ 3; 2; 1 ]
    (Util.balance_factor ~usable:[ true; true; true ] 6);
  Alcotest.(check (list int)) "8 over dim0 only" [ 8; 1; 1 ]
    (Util.balance_factor ~usable:[ true; false; false ] 8);
  Alcotest.(check (list int)) "skip size-1 dims" [ 4; 1; 2 ]
    (Util.balance_factor ~usable:[ true; false; true ] 8)

let test_stats () =
  Alcotest.(check (float 1e-9)) "median odd" 2. (Stats.median [ 3.; 1.; 2. ]);
  Alcotest.(check (float 1e-9)) "median even" 2.5 (Stats.median [ 4.; 1.; 2.; 3. ]);
  Alcotest.(check (float 1e-9)) "geomean" 2. (Stats.geomean [ 1.; 4. ]);
  Alcotest.(check (float 1e-9)) "mean" 2. (Stats.mean [ 1.; 2.; 3. ])

(* missing parents are created, and a second call on the existing
   directory is a no-op *)
let test_mkdir_p () =
  let root = Filename.temp_file "pgpu-mkdir-" "" in
  Sys.remove root;
  let dir = Filename.concat (Filename.concat root "a") "b" in
  Util.mkdir_p dir;
  Util.mkdir_p dir;
  Alcotest.(check bool) "nested directory exists" true (Sys.is_directory dir);
  List.iter Sys.rmdir [ dir; Filename.dirname dir; root ]

(* every file the tools write goes through [Util.write_file], which
   creates the missing directories above it; [Json.to_file] too *)
let test_write_file () =
  let root = Filename.temp_file "pgpu-write-" "" in
  Sys.remove root;
  let path = Filename.concat (Filename.concat root "a") "f.txt" in
  Util.write_file path "one";
  Util.write_file path "two";
  Alcotest.(check string)
    "replaced contents" "two"
    (In_channel.with_open_bin path In_channel.input_all);
  let json = Filename.concat (Filename.concat root "b") "g.json" in
  Pgpu_trace.Json.to_file json (Pgpu_trace.Json.Int 1);
  Alcotest.(check bool) "json file written" true (Sys.file_exists json);
  List.iter Sys.remove [ path; json ];
  List.iter Sys.rmdir [ Filename.dirname path; Filename.dirname json; root ]

let test_rng_deterministic () =
  let a = Pgpu_support.Rng.create 42 and b = Pgpu_support.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check (float 0.)) "same stream" (Rng.float a) (Rng.float b)
  done;
  let c = Rng.create 43 in
  let differs = ref false in
  for _ = 1 to 10 do
    let x = Rng.float (Rng.create 42) in
    ignore x;
    if Rng.float c <> Rng.float (Rng.create 42) then differs := true
  done;
  Alcotest.(check bool) "different seed differs" true !differs

(* MD5 of the first 1000 draws of [int _ max_int], of [float] (as IEEE
   bits) and of [bool], each from a fresh generator, recorded from the
   generator with a boxed [int64] state *)
let rng_streams =
  [
    (0, "95b05b8fed0b0194514e3c0558c87e61", "91d5c1b1202dbbd6c9839c1e8dcb81b9",
      "f7c4d94b044fcf7a23d586696c9927c7");
    (1, "6699d8025e6ef85abe07680acdc6f778", "23ab70ef780f49e86cde810acfb2cba6",
      "00d932f8eb76f2cd486c5341d80f6348");
    (42, "811e4438e7c0d20ee43bb9e78db0231b", "5ec2ae1eb7a92c504f13f6d52fe0ef7c",
      "93bd0665be657fd7ec4301fb616cfcc1");
    (-7, "cfbb3a2d312a9a7f3b50a999bffe6c43", "b02cb3fb99a50030d88b447c61f01085",
      "7e30c9a4aca3855fff44c8ddde5cc26a");
    (max_int, "9391a3357314a25e275dbcc273b62ec1", "bf227671594f4d5407fc54c034b7f25a",
      "e9046d2855bbfb87e85e1a0681d37d57");
  ]

let test_rng_streams () =
  let digest seed draw =
    let r = Rng.create seed in
    Digest.to_hex (Digest.string (String.concat " " (List.init 1000 (fun _ -> draw r))))
  in
  List.iter
    (fun (seed, ints, floats, bools) ->
      let what kind = Printf.sprintf "seed %d: %s" seed kind in
      Alcotest.(check string) (what "int") ints
        (digest seed (fun r -> string_of_int (Rng.int r max_int)));
      Alcotest.(check string) (what "float") floats
        (digest seed (fun r -> Int64.to_string (Int64.bits_of_float (Rng.float r))));
      Alcotest.(check string) (what "bool") bools
        (digest seed (fun r -> string_of_bool (Rng.bool r))))
    rng_streams

let prop_balance_product =
  QCheck.Test.make ~name:"balance_factor preserves the total factor" ~count:200
    QCheck.(pair (int_range 1 64) (triple bool bool bool))
    (fun (total, (a, b, c)) ->
      let usable = [ a; b; c ] in
      let fs = Pgpu_support.Util.balance_factor ~usable total in
      List.fold_left ( * ) 1 fs = total)

let prop_divisors =
  QCheck.Test.make ~name:"divisors divide" ~count:200
    QCheck.(int_range 1 500)
    (fun n -> List.for_all (fun d -> n mod d = 0) (Pgpu_support.Util.divisors n))

let prop_rng_range =
  QCheck.Test.make ~name:"rng float in [0,1)" ~count:100 QCheck.int (fun seed ->
      let rng = Pgpu_support.Rng.create seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let f = Pgpu_support.Rng.float rng in
        if f < 0. || f >= 1. then ok := false
      done;
      !ok)

let suite =
  [
    ( "support",
      [
        Alcotest.test_case "ceil_div" `Quick test_ceil_div;
        Alcotest.test_case "divisors" `Quick test_divisors;
        Alcotest.test_case "factorize" `Quick test_factorize;
        Alcotest.test_case "balance_factor" `Quick test_balance_factor;
        Alcotest.test_case "stats" `Quick test_stats;
        Alcotest.test_case "mkdir_p creates missing parents" `Quick test_mkdir_p;
        Alcotest.test_case "write_file creates missing parents" `Quick test_write_file;
        Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "rng streams pinned" `Quick test_rng_streams;
        QCheck_alcotest.to_alcotest prop_balance_product;
        QCheck_alcotest.to_alcotest prop_divisors;
        QCheck_alcotest.to_alcotest prop_rng_range;
      ] );
  ]

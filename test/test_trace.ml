(** Tests for the tracing stack: the JSON writer/reader, span nesting
    invariants of the tracer and the Chrome trace-event exporter. *)

module Json = Pgpu_trace.Json
module Tracer = Pgpu_trace.Tracer
module Chrome = Pgpu_trace.Chrome

(* ------------------------------------------------------------------ *)
(* JSON writer: escaping and shape                                     *)
(* ------------------------------------------------------------------ *)

let test_json_escaping () =
  Alcotest.(check string)
    "quotes and backslashes" {|"a\"b\\c"|}
    (Json.to_string (Json.Str {|a"b\c|}));
  Alcotest.(check string)
    "newline, tab, control char" {|"x\ny\tz\u0001"|}
    (Json.to_string (Json.Str "x\ny\tz\001"));
  Alcotest.(check string)
    "no trailing commas" {|{"k":[1,2],"e":[],"o":{}}|}
    (Json.to_string
       (Json.Obj [ ("k", Json.List [ Json.Int 1; Json.Int 2 ]); ("e", Json.List []); ("o", Json.Obj []) ]))

let test_json_floats () =
  Alcotest.(check string) "integral float" "2.0" (Json.to_string (Json.Float 2.));
  Alcotest.(check string) "fraction" "1.5" (Json.to_string (Json.Float 1.5));
  Alcotest.(check string) "nan is null" "null" (Json.to_string (Json.Float Float.nan));
  Alcotest.(check string) "inf is null" "null" (Json.to_string (Json.Float Float.infinity))

let test_json_parse () =
  (match Json.of_string {| {"a": [1, 2.5, "xA", true, null]} |} with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok v ->
      Alcotest.(check bool) "parsed shape" true
        (Json.equal v
           (Json.Obj
              [
                ( "a",
                  Json.List
                    [ Json.Int 1; Json.Float 2.5; Json.Str "xA"; Json.Bool true; Json.Null ] );
              ])));
  (match Json.of_string "{\"a\": 1} trailing" with
  | Ok _ -> Alcotest.fail "accepted trailing garbage"
  | Error _ -> ());
  match Json.of_string "{broken" with
  | Ok _ -> Alcotest.fail "accepted malformed input"
  | Error _ -> ()

(* Arbitrary JSON trees. Strings draw from arbitrary bytes to stress
   the escaper; floats stay finite because non-finite values serialize
   to null by design. *)
let gen_json =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        let leaf =
          oneof
            [
              return Json.Null;
              map Json.bool bool;
              map Json.int int;
              map (fun f -> Json.Float f) (map (fun f -> if Float.is_finite f then f else 0.) float);
              map Json.str (string_size (int_bound 12));
            ]
        in
        if n <= 0 then leaf
        else
          frequency
            [
              (2, leaf);
              (1, map Json.list (list_size (int_bound 4) (self (n / 2))));
              ( 1,
                map Json.obj
                  (list_size (int_bound 4) (pair (string_size (int_bound 8)) (self (n / 2)))) );
            ]))

let arb_json = QCheck.make ~print:Json.to_string gen_json

let prop_json_roundtrip =
  QCheck.Test.make ~name:"writer output parses back to an equal tree" ~count:500 arb_json
    (fun j ->
      match Json.of_string (Json.to_string j) with
      | Ok j' -> Json.equal j j'
      | Error e -> QCheck.Test.fail_reportf "unparseable output: %s" e)

let prop_json_pretty_roundtrip =
  QCheck.Test.make ~name:"pretty writer output parses back too" ~count:200 arb_json (fun j ->
      match Json.of_string (Json.to_string_pretty j) with
      | Ok j' -> Json.equal j j'
      | Error e -> QCheck.Test.fail_reportf "unparseable pretty output: %s" e)

(* ------------------------------------------------------------------ *)
(* Tracer: nesting invariants                                          *)
(* ------------------------------------------------------------------ *)

type op = Begin of string | End | Instant of string

let pp_op ppf = function
  | Begin s -> Fmt.pf ppf "begin %S" s
  | End -> Fmt.string ppf "end"
  | Instant s -> Fmt.pf ppf "instant %S" s

(* names include quotes/backslashes/control characters on purpose *)
let gen_name =
  QCheck.Gen.(oneofl [ "plain"; "qu\"ote"; "back\\slash"; "new\nline"; "ctl\001"; "" ])

let gen_ops =
  QCheck.Gen.(
    list_size (int_bound 40)
      (frequency
         [
           (3, map (fun s -> Begin s) gen_name);
           (3, return End);
           (1, map (fun s -> Instant s) gen_name);
         ]))

let arb_ops = QCheck.make ~print:(Fmt.str "%a" (Fmt.Dump.list pp_op)) gen_ops

let apply_ops t ops =
  List.iter
    (fun op ->
      match op with
      | Begin s -> Tracer.begin_span t s
      | End -> Tracer.end_span t ()
      | Instant s -> Tracer.instant t s)
    ops

let spans t =
  List.filter_map
    (fun e ->
      match e with
      | Tracer.Span { ts; dur; _ } -> Some (ts, ts +. dur)
      | Tracer.Instant _ | Tracer.Counter _ -> None)
    (Tracer.events t)

(** Any begin/end sequence — balanced or not, with stray ends — yields
    spans whose intervals are pairwise nested or disjoint. *)
let prop_well_nested =
  QCheck.Test.make ~name:"arbitrary begin/end sequences produce well-nested spans" ~count:500
    arb_ops (fun ops ->
      let t = Tracer.create () in
      apply_ops t ops;
      Tracer.close_all t;
      if Tracer.depth t <> 0 then QCheck.Test.fail_reportf "close_all left open spans";
      let ivs = spans t in
      List.for_all
        (fun (lo, hi) ->
          List.for_all
            (fun (lo', hi') ->
              (lo = lo' && hi = hi')
              || hi < lo' || hi' < lo
              || (lo < lo' && hi' < hi)
              || (lo' < lo && hi < hi'))
            ivs)
        ivs)

let test_disabled_is_noop () =
  let t = Tracer.disabled in
  Tracer.begin_span t "a";
  Tracer.instant t "b";
  Tracer.counter t "c" 1.;
  Tracer.end_span t ();
  Tracer.close_all t;
  Alcotest.(check bool) "disabled" false (Tracer.enabled t);
  Alcotest.(check int) "no open spans" 0 (Tracer.depth t);
  Alcotest.(check int) "no events" 0 (List.length (Tracer.events t))

let test_with_span_on_exception () =
  let t = Tracer.create () in
  (try Tracer.with_span t "failing" (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "span closed on exception" 0 (Tracer.depth t);
  match Tracer.events t with
  | [ Tracer.Span { name = "failing"; args; _ } ] ->
      Alcotest.(check bool) "exception recorded" true (List.mem_assoc "exception" args)
  | _ -> Alcotest.fail "expected exactly one span"

(* ------------------------------------------------------------------ *)
(* Chrome exporter                                                     *)
(* ------------------------------------------------------------------ *)

let prop_chrome_parses =
  QCheck.Test.make ~name:"Chrome exporter emits parseable trace JSON" ~count:300 arb_ops
    (fun ops ->
      let t = Tracer.create () in
      apply_ops t ops;
      Tracer.counter t "ctr" 4.2;
      Tracer.close_all t;
      match Json.of_string (Chrome.to_string t) with
      | Error e -> QCheck.Test.fail_reportf "unparseable trace: %s" e
      | Ok j -> (
          match Json.member "traceEvents" j with
          | Some (Json.List evs) ->
              (* every event row has the mandatory Trace Event fields *)
              List.for_all
                (fun ev ->
                  match (Json.member "ph" ev, Json.member "name" ev) with
                  | Some (Json.Str _), Some (Json.Str _) -> true
                  | _ -> false)
                evs
          | _ -> QCheck.Test.fail_reportf "missing traceEvents list"))

let test_chrome_shape () =
  let t = Tracer.create () in
  Tracer.begin_span t ~cat:"compile" ~args:[ ("k", Json.Int 1) ] "outer";
  Tracer.instant t ~cat:"alternatives" "note";
  Tracer.end_span t ();
  Tracer.counter t "ops" 35.;
  let j = Chrome.json_of_events (Tracer.events t) in
  match Json.member "traceEvents" j with
  | Some (Json.List evs) ->
      let phs =
        List.filter_map
          (fun e -> match Json.member "ph" e with Some (Json.Str p) -> Some p | _ -> None)
          evs
      in
      (* process metadata, two thread names, X + i + C events *)
      Alcotest.(check bool) "has complete span" true (List.mem "X" phs);
      Alcotest.(check bool) "has instant" true (List.mem "i" phs);
      Alcotest.(check bool) "has counter" true (List.mem "C" phs);
      Alcotest.(check bool) "has metadata" true (List.mem "M" phs)
  | _ -> Alcotest.fail "missing traceEvents"

let suite =
  [
    ( "trace",
      [
        Alcotest.test_case "json: escaping" `Quick test_json_escaping;
        Alcotest.test_case "json: float forms" `Quick test_json_floats;
        Alcotest.test_case "json: parser" `Quick test_json_parse;
        QCheck_alcotest.to_alcotest prop_json_roundtrip;
        QCheck_alcotest.to_alcotest prop_json_pretty_roundtrip;
        QCheck_alcotest.to_alcotest prop_well_nested;
        Alcotest.test_case "tracer: disabled sink is a no-op" `Quick test_disabled_is_noop;
        Alcotest.test_case "tracer: with_span closes on exception" `Quick
          test_with_span_on_exception;
        QCheck_alcotest.to_alcotest prop_chrome_parses;
        Alcotest.test_case "chrome: event shapes" `Quick test_chrome_shape;
      ] );
  ]

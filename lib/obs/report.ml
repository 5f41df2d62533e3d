(** Cross-target performance report over a list of profiled runs.

    Reads the list of runs that every [bench/main.exe] experiment
    writes and the files under [bench/baselines] pin, each with its
    [Profile.json_of_report] (a run the compiler pruned has none and
    adds no row), and renders it as per-target tables: one row per
    (bench, kernel), with a cell per configuration holding its speedup
    against the reference configuration (["untuned"] when present),
    and a bottleneck breakdown per target. Three output forms from the
    same structure: text ([pp], one line per kernel and
    configuration), JSON ([to_json]) and a self-contained HTML
    dashboard ([to_html], inline CSS, no external assets). *)

module Json = Pgpu_trace.Json
module Bottleneck = Pgpu_gpusim.Bottleneck

type config_cell = {
  config : string;
  seconds : float;  (** simulated kernel seconds *)
  speedup : float;  (** reference config seconds / this config seconds *)
}

type kernel_row = {
  bench : string;
  kernel : string;
  cells : config_cell list;  (** one per configuration seen on this target *)
  best_config : string;  (** fastest configuration *)
  bottleneck : Bottleneck.t;  (** of the best configuration's run *)
  occupancy : float;
  alternative : int option;
}

type target_section = {
  target : string;
  reference : string;  (** config the speedups are relative to *)
  configs : string list;
  rows : kernel_row list;
  bottlenecks : (string * int) list;  (** label -> kernel count, by [rows] *)
}

type t = { sections : target_section list }

(* ------------------------------------------------------------------ *)
(* Reading the runs                                                    *)
(* ------------------------------------------------------------------ *)

(* one kernel of one run: the fields of [Profile.json_of_kernel] the
   report reads *)
type measured = {
  m_bench : string;
  m_target : string;
  m_config : string;
  m_kernel : string;
  m_seconds : float;
  m_alternative : int option;
  m_occupancy : float;
  m_bottleneck : Bottleneck.t;
}

let ( let* ) = Result.bind

(* field [k] of the object [j], when [get] accepts its value *)
let field what get k j =
  match Option.bind (Json.member k j) get with
  | Some v -> Ok v
  | None -> Error (Fmt.str "%S is missing or not %s" k what)

let str = field "a string" (function Json.Str s -> Some s | _ -> None)

let num =
  field "a number" (function
    | Json.Float f -> Some f
    | Json.Int i -> Some (float_of_int i)
    | _ -> None)

let alternative =
  field "an integer or null" (function
    | Json.Int a -> Some (Some a)
    | Json.Null -> Some None
    | _ -> None)

(* [f] over [xs], stopping at the first error, which names [what] and
   the element's index *)
let map_indexed what f xs =
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | x :: xs -> (
        match f x with
        | Ok y -> go (i + 1) (y :: acc) xs
        | Error e -> Error (Fmt.str "%s %d: %s" what i e))
  in
  go 0 [] xs

let measured_of_json ~bench ~target ~config j =
  let* m_kernel = str "kernel" j in
  let* m_seconds = num "seconds" j in
  let* m_alternative = alternative "alternative" j in
  let* m_occupancy = num "occupancy" j in
  let* name = str "bottleneck" j in
  let* limiter = str "bottleneck_limiter" j in
  let* headroom = num "bottleneck_headroom" j in
  match Bottleneck.label_of_name name with
  | None -> Error (Fmt.str "\"bottleneck\" is not a bottleneck label: %S" name)
  | Some label ->
      Ok
        {
          m_bench = bench;
          m_target = target;
          m_config = config;
          m_kernel;
          m_seconds;
          m_alternative;
          m_occupancy;
          m_bottleneck = { Bottleneck.label; limiter; headroom };
        }

let run_of_json j =
  let* bench = str "bench" j in
  let* target = str "target" j in
  let* config = str "config" j in
  match Json.member "pruned" j with
  | Some (Json.List _) -> Ok [] (* a configuration the compiler rejected ran nothing *)
  | _ ->
      let* kernels =
        field "a profile with a list of kernels"
          (fun p -> match Json.member "kernels" p with Some (Json.List ks) -> Some ks | _ -> None)
          "profile" j
      in
      map_indexed "kernel" (measured_of_json ~bench ~target ~config) kernels

(* ------------------------------------------------------------------ *)
(* Building                                                            *)
(* ------------------------------------------------------------------ *)

let uniq xs =
  List.fold_left (fun acc x -> if List.mem x acc then acc else acc @ [ x ]) [] xs

let build_section (measured : measured list) target : target_section =
  let of_target = List.filter (fun m -> String.equal m.m_target target) measured in
  let configs = uniq (List.map (fun m -> m.m_config) of_target) in
  let reference = if List.mem "untuned" configs then "untuned" else List.hd configs in
  let kernels = uniq (List.map (fun m -> (m.m_bench, m.m_kernel)) of_target) in
  let rows =
    List.map
      (fun (bench, kernel) ->
        let runs =
          List.filter_map
            (fun config ->
              List.find_opt
                (fun m ->
                  String.equal m.m_bench bench
                  && String.equal m.m_kernel kernel
                  && String.equal m.m_config config)
                of_target)
            configs
        in
        let ref_run =
          Option.value ~default:(List.hd runs)
            (List.find_opt (fun m -> String.equal m.m_config reference) runs)
        in
        let cells =
          List.map
            (fun m ->
              let seconds = m.m_seconds in
              {
                config = m.m_config;
                seconds;
                speedup = (if seconds > 0. then ref_run.m_seconds /. seconds else 1.);
              })
            runs
        in
        let best =
          List.fold_left
            (fun b m -> if m.m_seconds < b.m_seconds then m else b)
            (List.hd runs) (List.tl runs)
        in
        {
          bench;
          kernel;
          cells;
          best_config = best.m_config;
          bottleneck = best.m_bottleneck;
          occupancy = best.m_occupancy;
          alternative = best.m_alternative;
        })
      kernels
  in
  let bottlenecks =
    List.filter_map
      (fun label ->
        let name = Bottleneck.label_name label in
        match
          List.length
            (List.filter
               (fun r -> r.bottleneck.Bottleneck.label = label)
               rows)
        with
        | 0 -> None
        | n -> Some (name, n))
      Bottleneck.all_labels
  in
  { target; reference; configs; rows; bottlenecks }

let build json =
  match json with
  | Json.List runs ->
      let* runs = map_indexed "run" run_of_json runs in
      let measured = List.concat runs in
      let targets = uniq (List.map (fun m -> m.m_target) measured) in
      Ok { sections = List.map (build_section measured) targets }
  | _ -> Error "not a list of runs {bench, target, config, profile}"

(* ------------------------------------------------------------------ *)
(* Text                                                                *)
(* ------------------------------------------------------------------ *)

(* one line per kernel and configuration, so a sweep's report stays
   as wide as one configuration; the fastest configuration's line
   carries the kernel's bottleneck *)
let pp_section ppf (s : target_section) =
  Fmt.pf ppf "Target %s (%d kernel%s; speedups vs %S)@." s.target (List.length s.rows)
    (if List.length s.rows = 1 then "" else "s")
    s.reference;
  Fmt.pf ppf "  %-28s %-18s %12s %8s  %s@." "bench/kernel" "config" "seconds" "speedup"
    "bottleneck (fastest config)";
  List.iter
    (fun r ->
      List.iter
        (fun c ->
          Fmt.pf ppf "  %-28s %-18s %11.6fs %7.2fx" (r.bench ^ "/" ^ r.kernel) c.config c.seconds
            c.speedup;
          if String.equal c.config r.best_config then Fmt.pf ppf "  %a" Bottleneck.pp r.bottleneck;
          Fmt.pf ppf "@.")
        r.cells)
    s.rows;
  (* a literal separator: [Fmt.comma] is a break hint, which wraps
     the list after the table's overlong lines *)
  Fmt.pf ppf "  bottlenecks: %a@."
    Fmt.(list ~sep:(any ", ") (pair ~sep:(any " x") string int))
    s.bottlenecks

let pp ppf (r : t) =
  Fmt.pf ppf "== Performance observatory ==@.@.";
  List.iteri
    (fun i s ->
      if i > 0 then Fmt.pf ppf "@.";
      pp_section ppf s)
    r.sections

let to_string r = Fmt.str "%a" pp r

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let json_of_cell c =
  Json.Obj [ ("seconds", Json.Float c.seconds); ("speedup", Json.Float c.speedup) ]

let json_of_row (r : kernel_row) =
  Json.Obj
    [
      ("bench", Json.Str r.bench);
      ("kernel", Json.Str r.kernel);
      ("configs", Json.Obj (List.map (fun c -> (c.config, json_of_cell c)) r.cells));
      ("best_config", Json.Str r.best_config);
      ("bottleneck", Json.Str (Bottleneck.label_name r.bottleneck.Bottleneck.label));
      ("bottleneck_limiter", Json.Str r.bottleneck.Bottleneck.limiter);
      ("bottleneck_headroom", Json.Float r.bottleneck.Bottleneck.headroom);
      ("occupancy", Json.Float r.occupancy);
      ("alternative", match r.alternative with Some a -> Json.Int a | None -> Json.Null);
    ]

let json_of_section (s : target_section) =
  Json.Obj
    [
      ("target", Json.Str s.target);
      ("reference", Json.Str s.reference);
      ("configs", Json.List (List.map Json.str s.configs));
      ("kernels", Json.List (List.map json_of_row s.rows));
      ("bottlenecks", Json.Obj (List.map (fun (l, n) -> (l, Json.Int n)) s.bottlenecks));
    ]

let to_json (r : t) =
  Json.Obj [ ("targets", Json.List (List.map json_of_section r.sections)) ]

(* ------------------------------------------------------------------ *)
(* HTML                                                                *)
(* ------------------------------------------------------------------ *)

let html_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let style =
  {|body{font-family:system-ui,sans-serif;margin:2rem auto;max-width:72rem;color:#1f2430;background:#fafbfc}
h1{font-size:1.4rem}h2{font-size:1.1rem;margin-top:2rem}
table{border-collapse:collapse;width:100%;margin:.75rem 0;font-size:.9rem}
th,td{border:1px solid #d8dee6;padding:.35rem .6rem;text-align:right}
th{background:#eef1f5}td.name,th.name{text-align:left;font-family:ui-monospace,monospace}
.badge{display:inline-block;padding:.1rem .45rem;border-radius:.6rem;font-size:.8rem;color:#fff}
.memory-bound{background:#2563eb}.compute-bound{background:#059669}.latency-bound{background:#d97706}
.occupancy-limited{background:#7c3aed}.divergence-limited{background:#dc2626}
.speedup{font-weight:600}.meta{color:#6b7280;font-size:.85rem}|}

let to_html (r : t) =
  let buf = Buffer.create 8192 in
  let pf fmt = Fmt.kstr (Buffer.add_string buf) fmt in
  pf
    "<!doctype html>\n\
     <html><head><meta charset=\"utf-8\"><title>pgpu performance report</title>\n\
     <style>%s</style></head><body>\n"
    style;
  pf "<h1>Performance observatory</h1>\n";
  List.iter
    (fun (s : target_section) ->
      pf "<h2>Target <code>%s</code></h2>\n" (html_escape s.target);
      pf "<p class=\"meta\">speedups relative to configuration <code>%s</code>; bottlenecks: %s</p>\n"
        (html_escape s.reference)
        (String.concat ", "
           (List.map
              (fun (l, n) -> Fmt.str "<span class=\"badge %s\">%s</span> &times;%d" l l n)
              s.bottlenecks));
      pf "<table><tr><th class=\"name\">bench/kernel</th>";
      List.iter
        (fun c -> pf "<th colspan=\"2\">%s (s / speedup)</th>" (html_escape c))
        s.configs;
      pf "<th>occupancy</th><th>bottleneck</th></tr>\n";
      List.iter
        (fun (row : kernel_row) ->
          pf "<tr><td class=\"name\">%s/%s</td>" (html_escape row.bench) (html_escape row.kernel);
          List.iter
            (fun config ->
              match List.find_opt (fun c -> String.equal c.config config) row.cells with
              | Some c -> pf "<td>%.6f</td><td class=\"speedup\">%.2fx</td>" c.seconds c.speedup
              | None -> pf "<td>-</td><td>-</td>")
            s.configs;
          let b = row.bottleneck in
          let label = Bottleneck.label_name b.Bottleneck.label in
          pf
            "<td>%.0f%%</td><td class=\"name\"><span class=\"badge %s\">%s</span> limiter %s, \
             headroom %.0f%%</td></tr>\n"
            (100. *. row.occupancy) label label (html_escape b.Bottleneck.limiter)
            (100. *. b.Bottleneck.headroom))
        s.rows;
      pf "</table>\n")
    r.sections;
  pf "</body></html>\n";
  Buffer.contents buf

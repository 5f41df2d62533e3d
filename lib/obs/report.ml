(** Cross-target performance report over the run history.

    Renders each key's latest history entry ([Baseline.latest]) as
    per-target tables — one row per (bench, kernel), one column per
    configuration with its speedup against the reference
    configuration (["untuned"] when present) — plus a bottleneck
    breakdown per target, an optional baseline comparison, and an
    optional embedded bench [summary.json]. Three
    output forms from the same structure: text ([pp]), JSON
    ([to_json]) and a self-contained HTML dashboard ([to_html], inline
    CSS, no external assets). *)

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
  host_seconds : float;
      (** host wall-clock of the best configuration's whole process
          (compile + execute); 0 when the history predates the field *)
  host_throughput : float;
      (** simulated warp instructions retired per host second by that
          run — the engine's simulation speed; 0 when wall-clock was
          not recorded *)
}

type target_section = {
  target : string;
  reference : string;  (** config the speedups are relative to *)
  configs : string list;
  rows : kernel_row list;
  bottlenecks : (string * int) list;  (** label -> kernel count, by [rows] *)
}

type t = {
  n_entries : int;
  revs : string list;
  envs : string list;
  sections : target_section list;
  baseline : (Baseline.t * Baseline.result) option;
  summary : Json.t option;  (** bench harness summary.json, embedded verbatim *)
}

(* ------------------------------------------------------------------ *)
(* Building                                                            *)
(* ------------------------------------------------------------------ *)

let uniq xs =
  List.fold_left (fun acc x -> if List.mem x acc then acc else acc @ [ x ]) [] xs

(* [latest] holds one entry per (bench, kernel, target, config) key *)
let build_section (latest : History.entry list) target : target_section =
  let of_target = List.filter (fun (e : History.entry) -> String.equal e.History.target target) latest in
  let configs = uniq (List.map (fun (e : History.entry) -> e.History.config) of_target) in
  let reference = if List.mem "untuned" configs then "untuned" else List.hd configs in
  let kernels =
    uniq (List.map (fun (e : History.entry) -> (e.History.bench, e.History.kernel)) of_target)
  in
  let rows =
    List.map
      (fun (bench, kernel) ->
        let runs =
          List.filter_map
            (fun config ->
              List.find_opt
                (fun (e : History.entry) ->
                  String.equal e.History.bench bench
                  && String.equal e.History.kernel kernel
                  && String.equal e.History.config config)
                of_target)
            configs
        in
        let ref_run =
          Option.value ~default:(List.hd runs)
            (List.find_opt (fun (e : History.entry) -> String.equal e.History.config reference) runs)
        in
        let cells =
          List.map
            (fun (e : History.entry) ->
              let seconds = e.History.seconds in
              {
                config = e.History.config;
                seconds;
                speedup = (if seconds > 0. then ref_run.History.seconds /. seconds else 1.);
              })
            runs
        in
        let best =
          List.fold_left
            (fun (b : History.entry) (e : History.entry) ->
              if e.History.seconds < b.History.seconds then e else b)
            (List.hd runs) (List.tl runs)
        in
        {
          bench;
          kernel;
          cells;
          best_config = best.History.config;
          bottleneck = best.History.bottleneck;
          occupancy = best.History.occupancy;
          alternative = best.History.alternative;
          host_seconds = best.History.host_seconds;
          host_throughput =
            (if best.History.host_seconds > 0. then
               best.History.warp_insts /. best.History.host_seconds
             else 0.);
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

let build ?baseline ?summary (entries : History.entry list) : t =
  let latest = Baseline.latest entries in
  let targets = uniq (List.map (fun (e : History.entry) -> e.History.target) latest) in
  {
    n_entries = List.length entries;
    revs = uniq (List.map (fun (e : History.entry) -> e.History.rev) entries);
    envs = uniq (List.map (fun (e : History.entry) -> e.History.env) entries);
    sections = List.map (build_section latest) targets;
    baseline =
      Option.map (fun b -> (b, Baseline.compare_runs b entries)) baseline;
    summary;
  }

(* ------------------------------------------------------------------ *)
(* Text                                                                *)
(* ------------------------------------------------------------------ *)

let pp_section ppf (s : target_section) =
  Fmt.pf ppf "Target %s (%d kernel%s; speedups vs %S)@." s.target (List.length s.rows)
    (if List.length s.rows = 1 then "" else "s")
    s.reference;
  Fmt.pf ppf "  %-28s" "bench/kernel";
  List.iter (fun c -> Fmt.pf ppf " %22s" c) s.configs;
  Fmt.pf ppf " %14s" "host";
  Fmt.pf ppf "  %s@." "bottleneck";
  List.iter
    (fun r ->
      Fmt.pf ppf "  %-28s" (r.bench ^ "/" ^ r.kernel);
      List.iter
        (fun config ->
          match List.find_opt (fun c -> String.equal c.config config) r.cells with
          | Some c -> Fmt.pf ppf " %12.6fs %7.2fx" c.seconds c.speedup
          | None -> Fmt.pf ppf " %22s" "-")
        s.configs;
      (if r.host_throughput > 0. then Fmt.pf ppf " %10.3g i/s" r.host_throughput
       else Fmt.pf ppf " %14s" "-");
      Fmt.pf ppf "  %a@." Bottleneck.pp r.bottleneck)
    s.rows;
  Fmt.pf ppf "  bottlenecks: %a@."
    Fmt.(list ~sep:comma (pair ~sep:(any " x") string int))
    s.bottlenecks

let pp ppf (r : t) =
  Fmt.pf ppf "== Performance observatory: %d run record%s, rev %a ==@.@." r.n_entries
    (if r.n_entries = 1 then "" else "s")
    Fmt.(list ~sep:comma string)
    r.revs;
  List.iteri
    (fun i s ->
      if i > 0 then Fmt.pf ppf "@.";
      pp_section ppf s)
    r.sections;
  (match r.baseline with
  | None -> ()
  | Some (b, res) ->
      Fmt.pf ppf "@.Baseline %S (rev %s): %a@." b.Baseline.name b.Baseline.rev Baseline.pp_result
        res);
  match r.summary with
  | None -> ()
  | Some (Json.Obj fields) when List.mem_assoc "experiments" fields -> (
      match List.assoc "experiments" fields with
      | Json.Obj exps ->
          Fmt.pf ppf "@.Bench summary: %d experiment%s (%a)@." (List.length exps)
            (if List.length exps = 1 then "" else "s")
            Fmt.(list ~sep:comma string)
            (List.map fst exps)
      | _ -> ())
  | Some _ -> Fmt.pf ppf "@.Bench summary attached.@."

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
      ("host_seconds", Json.Float r.host_seconds);
      ("host_throughput", Json.Float r.host_throughput);
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
  Json.Obj
    [
      ("entries", Json.Int r.n_entries);
      ("revs", Json.List (List.map Json.str r.revs));
      ("envs", Json.List (List.map Json.str r.envs));
      ("targets", Json.List (List.map json_of_section r.sections));
      ( "baseline",
        match r.baseline with
        | None -> Json.Null
        | Some (b, res) -> (
            match Baseline.json_of_result res with
            | Json.Obj fields ->
                Json.Obj
                  (("name", Json.Str b.Baseline.name) :: ("rev", Json.Str b.Baseline.rev) :: fields)
            | j -> j) );
      ("summary", match r.summary with None -> Json.Null | Some s -> s);
    ]

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
.improved{color:#059669;font-weight:600}.regressed{color:#dc2626;font-weight:600}.unchanged{color:#6b7280}
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
  pf "<p class=\"meta\">%d run record(s) &middot; rev %s &middot; env %s</p>\n" r.n_entries
    (html_escape (String.concat ", " r.revs))
    (html_escape (String.concat ", " r.envs));
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
      pf "<th>host</th><th>occupancy</th><th>bottleneck</th></tr>\n";
      List.iter
        (fun (row : kernel_row) ->
          pf "<tr><td class=\"name\">%s/%s</td>" (html_escape row.bench) (html_escape row.kernel);
          List.iter
            (fun config ->
              match List.find_opt (fun c -> String.equal c.config config) row.cells with
              | Some c -> pf "<td>%.6f</td><td class=\"speedup\">%.2fx</td>" c.seconds c.speedup
              | None -> pf "<td>-</td><td>-</td>")
            s.configs;
          (if row.host_throughput > 0. then pf "<td>%.3g inst/s</td>" row.host_throughput
           else pf "<td>-</td>");
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
  (match r.baseline with
  | None -> ()
  | Some (b, res) ->
      pf "<h2>Baseline <code>%s</code> (rev %s)</h2>\n" (html_escape b.Baseline.name)
        (html_escape b.Baseline.rev);
      let reg = Baseline.regressions res and imp = Baseline.improvements res in
      pf "<p class=\"meta\">%d compared &middot; <span class=\"regressed\">%d regressed</span> \
          &middot; <span class=\"improved\">%d improved</span> &middot; %d missing &middot; %d \
          new</p>\n"
        (List.length res.Baseline.comparisons)
        (List.length reg) (List.length imp)
        (List.length res.Baseline.missing)
        (List.length res.Baseline.added);
      pf
        "<table><tr><th class=\"name\">key</th><th>baseline (s)</th><th>current \
         (s)</th><th>ratio</th><th>verdict</th></tr>\n";
      List.iter
        (fun (c : Baseline.comparison) ->
          let v = Baseline.verdict_name c.Baseline.verdict in
          pf
            "<tr><td class=\"name\">%s</td><td>%.6f</td><td>%.6f</td><td>%.3f</td><td \
             class=\"%s\">%s</td></tr>\n"
            (html_escape (Fmt.str "%a" Baseline.pp_key c.Baseline.key))
            c.Baseline.baseline c.Baseline.current
            c.Baseline.ratio v v)
        res.Baseline.comparisons;
      pf "</table>\n");
  (match r.summary with
  | None -> ()
  | Some s ->
      pf "<h2>Bench summary</h2>\n<details><summary>summary.json</summary><pre>%s</pre></details>\n"
        (html_escape (Json.to_string_pretty s)));
  pf "</body></html>\n";
  Buffer.contents buf

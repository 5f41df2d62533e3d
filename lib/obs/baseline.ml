(** Named performance baselines and the regression comparator.

    A baseline is a snapshot of the history: for every (bench, kernel,
    target, config) key, the simulated seconds of the last entry
    written for it ([latest]). The simulator is deterministic, so every
    repeat of a key on one tree is bit-identical and one entry speaks
    for all of them. The comparator takes the latest entries of a fresh
    batch the same way and classifies each shared key by the sign of
    the difference: equal seconds are unchanged, anything slower has
    regressed, anything faster has improved. Keys present on only one
    side are reported separately ([added] / [missing]) and never gate.

    The classification is antisymmetric by construction, so swapping
    baseline and current exactly swaps the two verdicts, and a run
    compared against itself is always [Unchanged]. Both properties are
    pinned by qcheck tests. *)

module Json = Pgpu_trace.Json

let ( let* ) = Result.bind

type key = { bench : string; kernel : string; target : string; config : string }
type t = { name : string; rev : string; entries : (key * float) list }

let compare_key (a : key) (b : key) =
  match String.compare a.bench b.bench with
  | 0 -> (
      match String.compare a.kernel b.kernel with
      | 0 -> (
          match String.compare a.target b.target with
          | 0 -> String.compare a.config b.config
          | c -> c)
      | c -> c)
  | c -> c

let pp_key ppf k = Fmt.pf ppf "%s/%s@@%s[%s]" k.bench k.kernel k.target k.config

(* ------------------------------------------------------------------ *)
(* Snapshot                                                            *)
(* ------------------------------------------------------------------ *)

let key_of_entry (e : History.entry) =
  {
    bench = e.History.bench;
    kernel = e.History.kernel;
    target = e.History.target;
    config = e.History.config;
  }

let latest (entries : History.entry list) : History.entry list =
  let last = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun (e : History.entry) ->
      let k = key_of_entry e in
      if not (Hashtbl.mem last k) then order := k :: !order;
      Hashtbl.replace last k e)
    entries;
  List.rev_map (Hashtbl.find last) !order

(* each key's latest seconds, in key order *)
let seconds_by_key entries =
  List.sort
    (fun (a, _) (b, _) -> compare_key a b)
    (List.map (fun (e : History.entry) -> (key_of_entry e, e.History.seconds)) (latest entries))

let snapshot ?(name = "baseline") (entries : History.entry list) : t =
  let rev =
    match entries with e :: _ -> e.History.rev | [] -> History.git_rev ()
  in
  { name; rev; entries = seconds_by_key entries }

(* ------------------------------------------------------------------ *)
(* Persistence                                                         *)
(* ------------------------------------------------------------------ *)

let json_of_t (b : t) =
  Json.Obj
    [
      ("schema", Json.Int History.schema_version);
      ("name", Json.Str b.name);
      ("rev", Json.Str b.rev);
      ( "entries",
        Json.List
          (List.map
             (fun (k, seconds) ->
               Json.Obj
                 [
                   ("bench", Json.Str k.bench);
                   ("kernel", Json.Str k.kernel);
                   ("target", Json.Str k.target);
                   ("config", Json.Str k.config);
                   ("seconds", Json.Float seconds);
                 ])
             b.entries) );
    ]

let save path (b : t) = Json.to_file path (json_of_t b)

let of_json j =
  let* name = History.str_field "name" j in
  let* rev = History.str_field "rev" j in
  let* entries =
    match Json.member "entries" j with
    | Some (Json.List es) ->
        List.fold_left
          (fun acc e ->
            let* acc = acc in
            let* bench = History.str_field "bench" e in
            let* kernel = History.str_field "kernel" e in
            let* target = History.str_field "target" e in
            let* config = History.str_field "config" e in
            let* seconds = History.num_field "seconds" e in
            Ok (({ bench; kernel; target; config }, seconds) :: acc))
          (Ok []) es
        |> Result.map List.rev
    | _ -> Error "missing field \"entries\""
  in
  Ok { name; rev; entries }

let load path =
  if not (Sys.file_exists path) then Error (Fmt.str "no baseline at %s" path)
  else
    let ic = open_in_bin path in
    let contents =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let* j = Json.of_string contents in
    of_json j

(* ------------------------------------------------------------------ *)
(* Comparator                                                          *)
(* ------------------------------------------------------------------ *)

type verdict = Improved | Regressed | Unchanged

let verdict_name = function
  | Improved -> "improved"
  | Regressed -> "regressed"
  | Unchanged -> "unchanged"

type comparison = {
  key : key;
  baseline : float;
  current : float;
  ratio : float;  (** current / baseline seconds *)
  verdict : verdict;
}

type result = {
  comparisons : comparison list;
  missing : key list;  (** in the baseline, absent from the current batch *)
  added : key list;  (** in the current batch, absent from the baseline *)
}

(* simulated time is deterministic: any difference is a move *)
let judge ~base ~cur =
  match Float.compare cur base with
  | 0 -> (1., Unchanged)
  | c -> (cur /. base, if c > 0 then Regressed else Improved)

let compare_runs (base : t) (entries : History.entry list) : result =
  let current = seconds_by_key entries in
  let comparisons =
    List.filter_map
      (fun (key, baseline) ->
        Option.map
          (fun cur ->
            let ratio, verdict = judge ~base:baseline ~cur in
            { key; baseline; current = cur; ratio; verdict })
          (List.assoc_opt key current))
      base.entries
  in
  let absent from (k, _) = if List.mem_assoc k from then None else Some k in
  {
    comparisons;
    missing = List.filter_map (absent current) base.entries;
    added = List.filter_map (absent base.entries) current;
  }

let regressions r = List.filter (fun c -> c.verdict = Regressed) r.comparisons
let improvements r = List.filter (fun c -> c.verdict = Improved) r.comparisons
let moved r = List.filter (fun c -> c.verdict <> Unchanged) r.comparisons

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let json_of_comparison c =
  Json.Obj
    [
      ("bench", Json.Str c.key.bench);
      ("kernel", Json.Str c.key.kernel);
      ("target", Json.Str c.key.target);
      ("config", Json.Str c.key.config);
      ("baseline_seconds", Json.Float c.baseline);
      ("current_seconds", Json.Float c.current);
      ("ratio", Json.Float c.ratio);
      ("verdict", Json.Str (verdict_name c.verdict));
    ]

let json_of_key k =
  Json.Obj
    [
      ("bench", Json.Str k.bench);
      ("kernel", Json.Str k.kernel);
      ("target", Json.Str k.target);
      ("config", Json.Str k.config);
    ]

let json_of_result (r : result) =
  Json.Obj
    [
      ("comparisons", Json.List (List.map json_of_comparison r.comparisons));
      ("missing", Json.List (List.map json_of_key r.missing));
      ("added", Json.List (List.map json_of_key r.added));
      ("regressions", Json.Int (List.length (regressions r)));
      ("improvements", Json.Int (List.length (improvements r)));
    ]

let pp_comparison ppf c =
  Fmt.pf ppf "%-10s %a  %.6fs -> %.6fs  (x%.3f)" (verdict_name c.verdict) pp_key c.key
    c.baseline c.current c.ratio

let pp_result ppf (r : result) =
  let reg = regressions r and imp = improvements r in
  Fmt.pf ppf "%d compared: %d regressed, %d improved, %d unchanged" (List.length r.comparisons)
    (List.length reg) (List.length imp)
    (List.length r.comparisons - List.length reg - List.length imp);
  if r.missing <> [] then Fmt.pf ppf "; %d missing" (List.length r.missing);
  if r.added <> [] then Fmt.pf ppf "; %d new" (List.length r.added);
  List.iter
    (fun c -> if c.verdict <> Unchanged then Fmt.pf ppf "@.  %a" pp_comparison c)
    r.comparisons

(** Append-only run database.

    One record per kernel x target x configuration, derived from the
    runtime's launch records, annotated with the git revision and an
    environment fingerprint so that entries written by different
    checkouts remain comparable (and attributable). Storage is a JSONL
    file ([runs.jsonl] under the observation directory): one compact
    JSON object per line, written with [O_APPEND] so concurrent bench
    processes interleave whole lines, never partial ones. Readers skip
    blank lines and report (rather than die on) malformed ones, so a
    truncated tail cannot brick the history. *)

module Json = Pgpu_trace.Json
module Descriptor = Pgpu_target.Descriptor
module Bottleneck = Pgpu_gpusim.Bottleneck
module Counters = Pgpu_gpusim.Counters

let src = Logs.Src.create "pgpu.obs" ~doc:"Polygeist-GPU performance observatory"

module Log = (val Logs.src_log src : Logs.LOG)

(** Bumped on any change to the record fields below; readers ignore
    entries from other schema versions instead of misparsing them. *)
let schema_version = 1

type entry = {
  bench : string;  (** benchmark (or source file) the kernel came from *)
  kernel : string;
  target : string;  (** target descriptor name, e.g. ["a100"] *)
  config : string;  (** compilation configuration, e.g. ["untuned"] or ["tdo"] *)
  rev : string;  (** git revision of the writing checkout *)
  env : string;  (** environment fingerprint of the writing process *)
  launches : int;
  alternative : int option;  (** TDO choice of the dominant launch *)
  seconds : float;  (** simulated kernel seconds, all launches *)
  composite_seconds : float;  (** whole-run composite the kernel was part of *)
  host_seconds : float;
      (** host wall-clock of the whole run (compile + execute), shared
          by every kernel of the run; 0 when the writer predates the
          field or did not measure it *)
  jobs : int;
      (** worker domains the run was executed with; 1 when the writer
          predates the field (results are jobs-invariant, so this only
          attributes host wall-clock differences) *)
  cycles : float;  (** simulated device cycles of the dominant launch *)
  occupancy : float;
  bottleneck : Bottleneck.t;
  warp_insts : float;
  dram_bytes : float;
  divergent_branches : float;
}

(* ------------------------------------------------------------------ *)
(* Environment                                                         *)
(* ------------------------------------------------------------------ *)

(* Resolve the current git revision without forking (no Unix library):
   walk up from the cwd to the repository root, then follow
   .git/HEAD -> refs/heads/<branch> or packed-refs. Best-effort:
   any failure yields "unknown" rather than an exception. *)
let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))
  with Sys_error _ -> None

let git_rev () =
  let rec find_git dir depth =
    if depth > 16 then None
    else
      let cand = Filename.concat dir ".git" in
      if Sys.file_exists cand then Some cand
      else
        let parent = Filename.dirname dir in
        if String.equal parent dir then None else find_git parent (depth + 1)
  in
  let resolve_ref git ref_name =
    match read_file (Filename.concat git ref_name) with
    | Some s -> Some (String.trim s)
    | None -> (
        (* packed refs: lines of "<hash> <refname>" *)
        match read_file (Filename.concat git "packed-refs") with
        | None -> None
        | Some packed ->
            String.split_on_char '\n' packed
            |> List.find_map (fun line ->
                   match String.index_opt line ' ' with
                   | Some i
                     when String.equal (String.sub line (i + 1) (String.length line - i - 1)) ref_name
                     ->
                       Some (String.sub line 0 i)
                   | _ -> None))
  in
  let rev =
    match find_git (Sys.getcwd ()) 0 with
    | None -> None
    | Some git -> (
        match read_file (Filename.concat git "HEAD") with
        | None -> None
        | Some head -> (
            let head = String.trim head in
            match String.length head with
            | n when n >= 5 && String.equal (String.sub head 0 5) "ref: " ->
                resolve_ref git (String.sub head 5 (n - 5))
            | _ -> Some head))
  in
  match rev with
  | Some r when String.length r >= 12 -> String.sub r 0 12
  | Some r when r <> "" -> r
  | _ -> "unknown"

let env_fingerprint () =
  Fmt.str "ocaml-%s/%s/%dbit" Sys.ocaml_version Sys.os_type Sys.word_size

(* ------------------------------------------------------------------ *)
(* Building entries from a run                                         *)
(* ------------------------------------------------------------------ *)

let entries_of_run ?rev ?env ?(host_seconds = 0.) ?(jobs = 1) ~bench ~config
    ~(target : Descriptor.t) ~composite_seconds records : entry list =
  let rev = match rev with Some r -> r | None -> git_rev () in
  let env = match env with Some e -> e | None -> env_fingerprint () in
  List.map
    (fun (k : Profile.kernel_profile) ->
      {
        bench;
        kernel = k.Profile.kernel;
        target = target.Descriptor.name;
        config;
        rev;
        env;
        launches = k.Profile.launches;
        alternative = k.Profile.alternative;
        seconds = k.Profile.seconds;
        composite_seconds;
        host_seconds;
        jobs;
        cycles = k.Profile.cycles;
        occupancy = k.Profile.occupancy;
        bottleneck = k.Profile.bottleneck;
        warp_insts = k.Profile.counters.Counters.warp_insts;
        dram_bytes =
          Counters.dram_read_bytes k.Profile.counters
          +. Counters.dram_write_bytes k.Profile.counters;
        divergent_branches = k.Profile.counters.Counters.divergent_branches;
      })
    (Profile.of_records records)

(* ------------------------------------------------------------------ *)
(* JSON codec                                                          *)
(* ------------------------------------------------------------------ *)

let json_of_bottleneck (b : Bottleneck.t) =
  Json.Obj
    [
      ("label", Json.Str (Bottleneck.label_name b.Bottleneck.label));
      ("limiter", Json.Str b.Bottleneck.limiter);
      ("headroom", Json.Float b.Bottleneck.headroom);
    ]

let json_of_entry (e : entry) =
  Json.Obj
    [
      ("schema", Json.Int schema_version);
      ("bench", Json.Str e.bench);
      ("kernel", Json.Str e.kernel);
      ("target", Json.Str e.target);
      ("config", Json.Str e.config);
      ("rev", Json.Str e.rev);
      ("env", Json.Str e.env);
      ("launches", Json.Int e.launches);
      ("alternative", match e.alternative with Some a -> Json.Int a | None -> Json.Null);
      ("seconds", Json.Float e.seconds);
      ("composite_seconds", Json.Float e.composite_seconds);
      ("host_seconds", Json.Float e.host_seconds);
      ("jobs", Json.Int e.jobs);
      ("cycles", Json.Float e.cycles);
      ("occupancy", Json.Float e.occupancy);
      ("bottleneck", json_of_bottleneck e.bottleneck);
      ("warp_insts", Json.Float e.warp_insts);
      ("dram_bytes", Json.Float e.dram_bytes);
      ("divergent_branches", Json.Float e.divergent_branches);
    ]

let str_field k j =
  match Json.member k j with
  | Some (Json.Str s) -> Ok s
  | _ -> Error (Fmt.str "missing string field %S" k)

let num_field k j =
  match Json.member k j with
  | Some (Json.Float f) -> Ok f
  | Some (Json.Int i) -> Ok (float_of_int i)
  | _ -> Error (Fmt.str "missing numeric field %S" k)

let int_field k j =
  match Json.member k j with
  | Some (Json.Int i) -> Ok i
  | Some (Json.Float f) when Float.is_integer f -> Ok (int_of_float f)
  | _ -> Error (Fmt.str "missing integer field %S" k)

let ( let* ) = Result.bind

let bottleneck_of_json j =
  let* label_s = str_field "label" j in
  let* limiter = str_field "limiter" j in
  let* headroom = num_field "headroom" j in
  match Bottleneck.label_of_name label_s with
  | Some label -> Ok { Bottleneck.label; limiter; headroom }
  | None -> Error (Fmt.str "unknown bottleneck label %S" label_s)

let entry_of_json j =
  let* schema = int_field "schema" j in
  if schema <> schema_version then Error (Fmt.str "unsupported schema version %d" schema)
  else
    let* bench = str_field "bench" j in
    let* kernel = str_field "kernel" j in
    let* target = str_field "target" j in
    let* config = str_field "config" j in
    let* rev = str_field "rev" j in
    let* env = str_field "env" j in
    let* launches = int_field "launches" j in
    let alternative =
      match Json.member "alternative" j with Some (Json.Int a) -> Some a | _ -> None
    in
    let* seconds = num_field "seconds" j in
    let* composite_seconds = num_field "composite_seconds" j in
    (* absent in records written before the field existed: default 0
       rather than rejecting the whole entry *)
    let host_seconds = Result.value ~default:0. (num_field "host_seconds" j) in
    let jobs = Result.value ~default:1 (int_field "jobs" j) in
    let* cycles = num_field "cycles" j in
    let* occupancy = num_field "occupancy" j in
    let* bottleneck =
      match Json.member "bottleneck" j with
      | Some b -> bottleneck_of_json b
      | None -> Error "missing field \"bottleneck\""
    in
    let* warp_insts = num_field "warp_insts" j in
    let* dram_bytes = num_field "dram_bytes" j in
    let* divergent_branches = num_field "divergent_branches" j in
    Ok
      {
        bench;
        kernel;
        target;
        config;
        rev;
        env;
        launches;
        alternative;
        seconds;
        composite_seconds;
        host_seconds;
        jobs;
        cycles;
        occupancy;
        bottleneck;
        warp_insts;
        dram_bytes;
        divergent_branches;
      }

(* ------------------------------------------------------------------ *)
(* Storage                                                             *)
(* ------------------------------------------------------------------ *)

let file ~dir = Filename.concat dir "runs.jsonl"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if not (String.equal parent dir) then mkdir_p parent;
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let append ~dir entries =
  if entries <> [] then begin
    mkdir_p dir;
    let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 (file ~dir) in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        let buf = Buffer.create 4096 in
        List.iter
          (fun e ->
            Json.write buf (json_of_entry e);
            Buffer.add_char buf '\n')
          entries;
        (* advisory write lock around the single buffered write:
           O_APPEND already keeps one write atomic on local
           filesystems, but the lock also covers NFS-style mounts and
           any future multi-write append, so concurrent bench processes
           can never interleave partial records. Released implicitly
           when the descriptor closes; a filesystem that refuses locks
           degrades to plain O_APPEND semantics. *)
        let fd = Unix.descr_of_out_channel oc in
        let locked = try Unix.lockf fd Unix.F_LOCK 0; true with Unix.Unix_error _ -> false in
        Fun.protect
          ~finally:(fun () ->
            if locked then try Unix.lockf fd Unix.F_ULOCK 0 with Unix.Unix_error _ -> ())
          (fun () ->
            output_string oc (Buffer.contents buf);
            flush oc));
    Log.info (fun m -> m "appended %d run record(s) to %s" (List.length entries) (file ~dir))
  end

let load ~dir =
  match read_file (file ~dir) with
  | None -> Error (Fmt.str "no history at %s" (file ~dir))
  | Some contents ->
      let entries = ref [] and errors = ref [] in
      List.iteri
        (fun i line ->
          if String.trim line <> "" then
            match Json.of_string line with
            | Ok j -> (
                match entry_of_json j with
                | Ok e -> entries := e :: !entries
                | Error e -> errors := Fmt.str "line %d: %s" (i + 1) e :: !errors)
            | Error e -> errors := Fmt.str "line %d: %s" (i + 1) e :: !errors)
        (String.split_on_char '\n' contents);
      List.iter (fun e -> Log.warn (fun m -> m "%s: skipped entry: %s" (file ~dir) e)) (List.rev !errors);
      Ok (List.rev !entries)

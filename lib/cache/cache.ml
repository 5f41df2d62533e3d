(** The autotuner's persistent choice store: a namespaced,
    string-keyed store of {!Json} values, loaded from and flushed to
    [<dir>/<namespace>.json] when a cache directory is configured, and
    purely in-memory otherwise. Its one namespace, ["tdo"], holds the
    TDO choices.

    Keys follow a content-addressed scheme: an alpha-invariant region
    hash ([Instr.hash_block]) joined with the target descriptor name
    and the launch parameters, so a cache directory can be shared
    across targets and programs — an entry is only ever found again for
    structurally identical code on the same target. Every operation on
    a [disabled] cache is a no-op, so instrumented call sites need no
    conditionals. All operations are thread-safe: a store may be
    consulted from several domains concurrently. *)

module Json = Pgpu_trace.Json

type stats = { mutable hits : int; mutable misses : int; mutable stores : int }

let stats_zero () = { hits = 0; misses = 0; stores = 0 }

(* ------------------------------------------------------------------ *)
(* Persistent namespaced store                                         *)
(* ------------------------------------------------------------------ *)

type namespace = {
  entries : (string, Json.t) Hashtbl.t;
  ns_stats : stats;
  mutable dirty : bool;
}

type t = {
  enabled : bool;
  dir : string option;
  mutable spaces : (string * namespace) list;
  lock : Mutex.t;
}

(** The shared no-op cache: never finds, never stores. *)
let disabled = { enabled = false; dir = None; spaces = []; lock = Mutex.create () }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(** A fresh cache. Without [dir] it is memory-only (still useful: a
    repeated tuned run in one process replays its TDO choices). With
    [dir] each namespace is backed by [<dir>/<namespace>.json], loaded
    lazily on first access and written back by {!flush}, which creates
    [dir] and its missing parents. *)
let create ?dir () = { enabled = true; dir; spaces = []; lock = Mutex.create () }

let enabled t = t.enabled

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let ns_path dir ns = Filename.concat dir (ns ^ ".json")

(* callers hold the lock *)
let namespace t ns =
  match List.assoc_opt ns t.spaces with
  | Some sp -> sp
  | None ->
      let sp = { entries = Hashtbl.create 64; ns_stats = stats_zero (); dirty = false } in
      (match t.dir with
      | Some dir ->
          let path = ns_path dir ns in
          if Sys.file_exists path then (
            match Json.of_string (read_file path) with
            | Ok (Json.Obj fields) ->
                List.iter (fun (k, v) -> Hashtbl.replace sp.entries k v) fields
            | Ok _ | Error _ -> () (* unreadable cache file: start empty *))
      | None -> ());
      t.spaces <- (ns, sp) :: t.spaces;
      sp

(** Look up [key] in [ns], counting a hit or a miss. Always [None] on
    a disabled cache (without counting). *)
let find t ~ns key =
  if not t.enabled then None
  else
    locked t (fun () ->
        let sp = namespace t ns in
        match Hashtbl.find_opt sp.entries key with
        | Some v ->
            sp.ns_stats.hits <- sp.ns_stats.hits + 1;
            Some v
        | None ->
            sp.ns_stats.misses <- sp.ns_stats.misses + 1;
            None)

let add t ~ns key v =
  if t.enabled then
    locked t (fun () ->
        let sp = namespace t ns in
        Hashtbl.replace sp.entries key v;
        sp.ns_stats.stores <- sp.ns_stats.stores + 1;
        sp.dirty <- true)

(** Write every dirty namespace back to its file (no-op without a
    cache directory). Entries are sorted by key so cache files are
    deterministic and diff-friendly. *)
let flush t =
  if t.enabled then
    locked t (fun () ->
        match t.dir with
        | None -> ()
        | Some dir ->
            List.iter
              (fun (ns, sp) ->
                if sp.dirty then begin
                  let fields = Hashtbl.fold (fun k v acc -> (k, v) :: acc) sp.entries [] in
                  let fields =
                    List.sort (fun (a, _) (b, _) -> String.compare a b) fields
                  in
                  Json.to_file (ns_path dir ns) (Json.Obj fields);
                  sp.dirty <- false
                end)
              t.spaces)

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let ns_stats t ns =
  locked t (fun () ->
      match List.assoc_opt ns t.spaces with
      | Some sp -> (sp.ns_stats.hits, sp.ns_stats.misses, sp.ns_stats.stores)
      | None -> (0, 0, 0))

let hits t ~ns = match ns_stats t ns with h, _, _ -> h

(** Machine-readable report: per-namespace entry counts and hit/miss/
    store counters, plus the backing directory. The CI cache smoke step
    uploads this. *)
let stats_json t =
  locked t (fun () ->
      let per_ns =
        List.map
          (fun (ns, sp) ->
            ( ns,
              Json.Obj
                [
                  ("entries", Json.Int (Hashtbl.length sp.entries));
                  ("hits", Json.Int sp.ns_stats.hits);
                  ("misses", Json.Int sp.ns_stats.misses);
                  ("stores", Json.Int sp.ns_stats.stores);
                ] ))
          (List.sort (fun (a, _) (b, _) -> String.compare a b) t.spaces)
      in
      let h, m, s =
        List.fold_left
          (fun (h, m, s) (_, sp) ->
            (h + sp.ns_stats.hits, m + sp.ns_stats.misses, s + sp.ns_stats.stores))
          (0, 0, 0) t.spaces
      in
      Json.Obj
        [
          ("enabled", Json.Bool t.enabled);
          ("dir", match t.dir with Some d -> Json.Str d | None -> Json.Null);
          ("hits", Json.Int h);
          ("misses", Json.Int m);
          ("stores", Json.Int s);
          ("namespaces", Json.Obj per_ns);
        ])

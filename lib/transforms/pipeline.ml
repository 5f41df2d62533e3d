(** The Polygeist-GPU optimization pipeline (Fig. 4).

    Host and device code live in the same module, so the scalar
    cleanup passes run across the host/device boundary; kernel
    granularity selection then multi-versions each gpu_wrapper with the
    requested coarsening configurations. *)

open Pgpu_ir
module Descriptor = Pgpu_target.Descriptor
module Tracer = Pgpu_trace.Tracer
module Json = Pgpu_trace.Json

let src = Logs.Src.create "pgpu.transforms" ~doc:"Polygeist-GPU optimization pipeline"

module Log = (val Logs.src_log src : Logs.LOG)

type options = {
  target : Descriptor.t;
  optimize : bool;  (** scalar optimizations (CSE, LICM, canonicalize, DCE) *)
  coarsen_specs : Coarsen.spec list;
      (** coarsening configurations to version; empty = no coarsening *)
  tracer : Tracer.t;  (** pass/pruning telemetry sink; [Tracer.disabled] = off *)
  cache : Pgpu_cache.Cache.t;
      (** accepted and ignored: compilation consults no cache. Kept for
          the host benchmark until it next changes. *)
  jobs : int;  (** domains for candidate expansion; 1 = sequential *)
}

let default_options target =
  {
    target;
    optimize = true;
    coarsen_specs = [];
    tracer = Tracer.disabled;
    cache = Pgpu_cache.Cache.disabled;
    jobs = 1;
  }

type kernel_report = { kernel : string; wid : int; candidates : Alternatives.candidate list }

type report = { kernels : kernel_report list }

(** Total IR instruction count of a module (deep). *)
let op_count (m : Instr.modul) =
  let n = ref 0 in
  List.iter (fun f -> Instr.iter_deep (fun _ -> incr n) f.Instr.body) m.Instr.funcs;
  !n

(** Run one scalar pass under a span carrying op-count deltas and the
    pass's own rewrite counter. When neither tracing nor debug logging
    is on, this is just [run m]. *)
let run_pass tracer name ?(rewrites = fun () -> 0) run (m : Instr.modul) =
  let logged = Logs.Src.level src = Some Logs.Debug in
  if not (Tracer.enabled tracer || logged) then run m
  else begin
    let before = op_count m in
    Tracer.begin_span tracer ~cat:"compile" ("pass:" ^ name);
    let m' = run m in
    let after = op_count m' in
    let n = rewrites () in
    Log.debug (fun k -> k "pass %s: %d -> %d ops (%+d), %d rewrites" name before after (after - before) n);
    Tracer.counter tracer ("pass." ^ name ^ ".rewrites") (float_of_int n);
    Tracer.end_span tracer
      ~args:
        [
          ("ops_before", Json.Int before);
          ("ops_after", Json.Int after);
          ("ops_delta", Json.Int (after - before));
          ("rewrites", Json.Int n);
        ]
      ();
    m'
  end

let scalar_pipeline ?(tracer = Tracer.disabled) (m : Instr.modul) =
  let pass = run_pass tracer in
  m
  |> pass "canonicalize" Canonicalize.run_modul
  |> pass "cse" ~rewrites:Cse.rewrite_count Cse.run_modul
  |> pass "licm" ~rewrites:Licm.rewrite_count Licm.run_modul
  |> pass "cse" ~rewrites:Cse.rewrite_count Cse.run_modul
  |> pass "dce" ~rewrites:Dce.rewrite_count Dce.run_modul
  |> pass "barrier-elim" ~rewrites:Barrier_elim.rewrite_count Barrier_elim.run_modul

(** Multi-version every kernel in the module. *)
let expand_kernels options (m : Instr.modul) : Instr.modul * kernel_report list =
  let tracer = options.tracer in
  let reports = ref [] in
  let outer_const = Coarsen.const_env (List.map (fun f -> f.Instr.body) m.Instr.funcs) in
  let rec go_block b = List.map go_instr b
  and go_instr (i : Instr.instr) =
    match i with
    | Instr.Gpu_wrapper { wid; name; body } ->
        Tracer.begin_span tracer ~cat:"compile"
          ~args:[ ("kernel", Json.Str name); ("wid", Json.Int wid) ]
          ("alternatives:" ^ name);
        let body', candidates =
          Alternatives.expand options.target ~tracer ~jobs:options.jobs ~outer_const
            ~specs:options.coarsen_specs body
        in
        let kept =
          List.length (List.filter (fun c -> c.Alternatives.decision = Alternatives.Kept) candidates)
        in
        Log.debug (fun k ->
            k "kernel %s: %d candidate(s), %d kept" name (List.length candidates) kept);
        Tracer.end_span tracer
          ~args:[ ("candidates", Json.Int (List.length candidates)); ("kept", Json.Int kept) ]
          ();
        reports := { kernel = name; wid; candidates } :: !reports;
        Instr.Gpu_wrapper { wid; name; body = body' }
    | Instr.If ({ then_; else_; _ } as r) ->
        Instr.If { r with then_ = go_block then_; else_ = go_block else_ }
    | Instr.For ({ body; _ } as r) -> Instr.For { r with body = go_block body }
    | Instr.While ({ body; _ } as r) -> Instr.While { r with body = go_block body }
    | i -> i
  in
  let funcs = List.map (fun f -> { f with Instr.body = go_block f.Instr.body }) m.Instr.funcs in
  ({ Instr.funcs }, List.rev !reports)

(** Compile a module: scalar optimization, then kernel
    multi-versioning, verifying the module before, between and after
    them. Raises [Verify.Invalid] if an internal pass breaks the IR. *)
let compile (options : options) (m : Instr.modul) : Instr.modul * report =
  let tracer = options.tracer in
  Tracer.begin_span tracer ~cat:"compile"
    ~args:
      [
        ("target", Json.Str options.target.Descriptor.name);
        ("ops", Json.Int (if Tracer.enabled tracer then op_count m else 0));
      ]
    "pipeline";
  Verify.check_exn m;
  let m = if options.optimize then scalar_pipeline ~tracer m else m in
  Verify.check_exn m;
  let m, kernels =
    if options.coarsen_specs = [] then (m, [])
    else begin
      let m, reports = expand_kernels options m in
      Verify.check_exn m;
      (m, reports)
    end
  in
  Tracer.end_span tracer
    ~args:
      [
        ("ops_after", Json.Int (if Tracer.enabled tracer then op_count m else 0));
        ("kernels", Json.Int (List.length kernels));
      ]
    ();
  (m, { kernels })

(** Build the spec list for (block_total, thread_total) pairs — the
    "total factor" interface of Section IV-C. Totals are balanced over
    each kernel's usable dimensions when the spec is applied. *)
let specs_of_totals (pairs : (int * int) list) : Coarsen.spec list =
  List.map
    (fun (bt, tt) -> Coarsen.spec ~block:(Coarsen.Total bt) ~thread:(Coarsen.Total tt) ())
    pairs

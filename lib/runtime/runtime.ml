(** Host-side runtime: interprets the host portion of a compiled
    module, launches kernels on the GPU simulator, accounts composite
    time (host logic + transfers + kernel time, the paper's "composite
    measurement"), and implements the timing-driven optimization that
    picks the best [Alternatives] region per launch site
    (Section VI). *)

open Pgpu_ir
open Pgpu_gpusim
module Descriptor = Pgpu_target.Descriptor
module Backend = Pgpu_target.Backend
module Tracer = Pgpu_trace.Tracer
module Json = Pgpu_trace.Json
module Cache = Pgpu_cache.Cache
module Fission = Pgpu_transforms.Fission
module Cpu_exec = Pgpu_cpu.Cpu_exec
module Cpu_timing = Pgpu_cpu.Cpu_timing

let src = Logs.Src.create "pgpu.runtime" ~doc:"Polygeist-GPU host runtime"

module Log = (val Logs.src_log src : Logs.LOG)

type launch_record = {
  kernel : string;
  wid : int;
  alternative : int option;  (** which alternatives region produced this launch *)
  result : Exec.launch_result;
  stats : Backend.kernel_stats;
  breakdown : Timing.breakdown;
  bottleneck : Bottleneck.t;  (** attribution over [breakdown] + counters *)
  seconds : float;
}

type config = {
  target : Descriptor.t;
  functional : bool;
      (** execute every block of every launch — outputs are exact; when
          false, large grids are sampled and only timing is meaningful *)
  sample_blocks : int;  (** blocks executed per launch when sampling *)
  jobs : int;
      (** host OCaml domains (from the persistent {!Pgpu_support.Pool})
          used by the CPU backend's chunked block execution, by the
          GPU simulator's sharded launches and by the TDO trial batch.
          Results are bit-identical for every value of [jobs]. The
          trial batch runs with one job under a tracer (trial events
          are emitted in order) and when a candidate contains a nested
          launch site; a race detector keeps launches unsharded. *)
  tune : bool;  (** enable timing-driven selection of alternatives *)
  fixed_choice : int;  (** alternatives region used when [tune] is false *)
  tracer : Tracer.t;
      (** launch/memcpy/TDO telemetry sink, timestamped in simulated
          composite time; [Tracer.disabled] = off *)
  cache : Cache.t;
      (** persistent TDO cache: committed choices are stored by
          (kernel hash, target, launch signature, alternative descs),
          so warm runs skip trial execution while reproducing the cold
          run's choices; [Cache.disabled] = off *)
  racecheck : Racecheck.t option;
      (** dynamic shared-memory race detector attached to the simulator
          for the whole run; [None] (the default) costs nothing *)
}

let default_config target =
  {
    target;
    functional = true;
    sample_blocks = 24;
    jobs = 1;
    tune = false;
    fixed_choice = 0;
    tracer = Tracer.disabled;
    cache = Cache.disabled;
    racecheck = None;
  }

(** A launch site as it runs: the kernel region as launched
    (barrier-fissioned on a CPU target, else as given) and the backend
    statistics of that region, which feed the timing model. *)
type site = { lowered : Instr.block; stats : Backend.kernel_stats }

(** A per-block runner factory, in the shape of [Compile.runner]. *)
type reference = env:Exec.env -> Instr.instr -> Exec.runner

type state = {
  config : config;
  reference : reference option;
      (** runs every launch in place of the compiled engine, trials
          included: the seam the differential tests put their
          reference interpreter in *)
  machine : Exec.machine;
  env : Exec.env;
  frames : Compile.frames;  (** compiled-kernel register files on [machine] *)
  cores : Cpu_exec.cores;  (** the CPU backend's core machines and their frames *)
  mutable records : launch_record list;
  mutable composite : float;
  trial : bool;  (** a TDO trial's private state: sample + don't record *)
  choices : (int * string, int) Hashtbl.t;
      (** (alternatives id, launch signature) -> chosen region. The
          signature buckets the integer inputs of the launch site by
          magnitude, so sites whose grids shrink across a host loop
          (e.g. gaussian, lud, nw) are re-tuned when the scale changes
          but not on every iteration. *)
  freevars_cache : (int, Value.t list) Hashtbl.t;  (** wrapper id -> free values *)
  khash_cache : (int, int) Hashtbl.t;
      (** wrapper id -> closed structural hash of its body, so the
          persistent TDO key is computed once per launch site *)
  sites : (int * int * int list, site) Cache.Memo.t;
      (** (wrapper id, alternative, resolved thread extents) -> the
          site as launched; shared with trials, which may resolve
          sites from several domains *)
  compiled_cache : (Instr.instr, Compile.t) Cache.Memo.t;
      (** structural-hash-memoized slot-indexed kernels; sound across
          cloned regions because [Instr.equal_block] requires free
          values (the kernel arguments a compiled kernel captures) to
          be identical on both sides *)
}

let create ?reference config =
  let machine = Exec.create_machine config.target in
  machine.Exec.racecheck <- config.racecheck;
  {
    config;
    reference;
    machine;
    env = Exec.env_create ();
    frames = Compile.frames machine;
    cores = Cpu_exec.cores config.target;
    records = [];
    composite = 0.;
    trial = false;
    choices = Hashtbl.create 8;
    freevars_cache = Hashtbl.create 8;
    khash_cache = Hashtbl.create 8;
    sites = Cache.Memo.create ();
    compiled_cache = Cache.Memo.create ();
  }

exception Host_error of string

let host_fail fmt = Fmt.kstr (fun s -> raise (Host_error s)) fmt

let charge st seconds = if not st.trial then st.composite <- st.composite +. seconds

(* trace timestamps are simulated composite time, in microseconds (the
   unit of the Chrome trace-event format) *)
let ticks st = st.composite *. 1e6

(* ------------------------------------------------------------------ *)
(* Scalar host evaluation                                              *)
(* ------------------------------------------------------------------ *)

let lookup st v = Exec.lookup st.env v
let bind st v rv = Exec.bind st.env v rv

let as_int st v = match lookup st v with Exec.UI x -> x | Exec.UF x -> int_of_float x | _ -> host_fail "expected host scalar int %a" Value.pp v

let as_float st v =
  match lookup st v with
  | Exec.UF x -> x
  | Exec.UI x -> float_of_int x
  | _ -> host_fail "expected host scalar float %a" Value.pp v

let as_buf st v = match lookup st v with Exec.UB b -> b | _ -> host_fail "expected buffer %a" Value.pp v

let eval_host_expr st (res : Value.t) (e : Instr.expr) : Exec.rv =
  let ty = res.Value.ty in
  match e with
  | Instr.Const (Instr.Ci n) -> Exec.UI n
  | Instr.Const (Instr.Cf f) -> Exec.UF f
  | Instr.Binop (op, a, b) ->
      if Types.is_float ty then Exec.UF (Ops.eval_float_binop op (as_float st a) (as_float st b))
      else Exec.UI (Ops.eval_int_binop op (as_int st a) (as_int st b))
  | Instr.Unop (op, a) ->
      if Types.is_float ty then Exec.UF (Ops.eval_float_unop op (as_float st a))
      else Exec.UI (Ops.eval_int_unop op (as_int st a))
  | Instr.Cmp (op, a, b) ->
      let r =
        if Types.is_float a.Value.ty then Ops.eval_float_cmp op (as_float st a) (as_float st b)
        else Ops.eval_int_cmp op (as_int st a) (as_int st b)
      in
      Exec.UI (if r then 1 else 0)
  | Instr.Select (c, a, b) -> if as_int st c <> 0 then lookup st a else lookup st b
  | Instr.Cast a -> (
      match (Types.is_float ty, lookup st a) with
      | true, Exec.UI x -> Exec.UF (float_of_int x)
      | true, (Exec.UF _ as v) -> v
      | false, Exec.UF x -> Exec.UI (int_of_float x)
      | false, (Exec.UI _ as v) -> v
      | _, v -> v)
  | Instr.Load { mem; idx } ->
      let b = as_buf st mem and i = as_int st idx in
      if Types.is_float (Types.elem mem.Value.ty) then Exec.UF (Memory.get_f b i)
      else Exec.UI (Memory.get_i b i)

(* ------------------------------------------------------------------ *)
(* Intrinsics                                                          *)
(* ------------------------------------------------------------------ *)

(** Deterministic input generation shared with the CPU reference
    implementations: the contents of a buffer filled by
    [fill_rand(buf, seed)] depend only on the seed and length. *)
let rand_array seed n =
  let rng = Pgpu_support.Rng.create seed in
  Array.init n (fun _ -> Pgpu_support.Rng.float rng)

let rand_int_array seed bound n =
  let rng = Pgpu_support.Rng.create seed in
  Array.init n (fun _ -> Pgpu_support.Rng.int rng bound)

let eval_intrinsic st (results : Value.t list) name (args : Value.t list) =
  match (name, args) with
  | "fill_rand", [ buf; seed ] ->
      let b = as_buf st buf in
      let data = rand_array (as_int st seed) b.Memory.len in
      Memory.fill_f b (fun i -> data.(i))
  | "fill_rand_range", [ buf; seed; lo; hi ] ->
      let b = as_buf st buf in
      let lo = as_float st lo and hi = as_float st hi in
      let data = rand_array (as_int st seed) b.Memory.len in
      Memory.fill_f b (fun i -> lo +. ((hi -. lo) *. data.(i)))
  | "fill_int_rand", [ buf; seed; bound ] ->
      let b = as_buf st buf in
      let data = rand_int_array (as_int st seed) (as_int st bound) b.Memory.len in
      Memory.fill_i b (fun i -> data.(i))
  | "fill_const", [ buf; c ] ->
      let b = as_buf st buf in
      if Types.is_float b.Memory.elt then Memory.fill_f b (fun _ -> as_float st c)
      else Memory.fill_i b (fun _ -> as_int st c)
  | "fill_seq", [ buf ] ->
      let b = as_buf st buf in
      Memory.fill_i b (fun i -> i)
  | "print_i32", [ v ] -> Logs.app (fun m -> m "%d" (as_int st v))
  | "print_f32", [ v ] -> Logs.app (fun m -> m "%g" (as_float st v))
  | _ ->
      host_fail "unknown intrinsic %S with %d args and %d results" name (List.length args)
        (List.length results)

(* ------------------------------------------------------------------ *)
(* Kernel launches                                                     *)
(* ------------------------------------------------------------------ *)

(** Decide the per-thread shared-memory pressure threshold above which
    the AMD backend demotes shared memory to global (the nw behaviour
    of Section VII-D2). *)
let amd_shared_offload_threshold = 96 (* bytes of shared memory per thread *)

(** Simulated seconds charged per interpreted host instruction. *)
let host_op_cost = 2e-9

(** Fixed simulated seconds per cudaMemcpy that crosses PCIe. *)
let memcpy_overhead = 10e-6

(** The CPU backend's core loop replaces the single-machine grid loop
    when the target is a CPU and no dynamic race detector is attached
    (the detector is attached to the runtime's one machine, not to the
    per-core machines, so a race check keeps the grid loop). *)
let cpu_mode st =
  st.config.target.Descriptor.kind = Descriptor.Cpu && st.config.racecheck = None

(** Slot-indexed compilation of a launch site's grid-level parallel,
    memoized in the content-addressed store on the region's structural
    hash. TDO trials, the committed execution and host-loop relaunches
    of the same site all reuse one compiled kernel. *)
let compiled_kernel st (i : Instr.instr) : Compile.t =
  Cache.Memo.find_or_add st.compiled_cache ~hash:(Instr.hash_block [ i ])
    ~equal:(fun a b -> Instr.equal_block [ a ] [ b ])
    i
    (fun () -> Compile.compile i)

let env_const st (v : Value.t) =
  match Hashtbl.find_opt st.env v.Value.id with Some (Exec.UI n) -> Some n | _ -> None

let thread_extents st (region : Instr.block) =
  let acc = ref [] in
  Instr.iter_deep
    (fun i ->
      match i with
      | Instr.Parallel { level = Instr.Threads; ubs; _ } ->
          List.iter
            (fun u -> acc := Option.value ~default:(-1) (env_const st u) :: !acc)
            ubs
      | _ -> ())
    region;
  List.rev !acc

(** Barrier-fission a kernel region for CPU execution, resolving
    host-computed thread extents through the live environment. A
    refusal (synchronizing [While], thread-dependent interchange
    operand, ...) returns the region as given: it then runs unfissioned
    on the compiled engine, each block in lockstep on its core, which
    is always correct. *)
let cpu_lower st ~wid ~alt (region : Instr.block) =
  match Fission.lower_region ~const_of_ext:(env_const st) region with
  | Ok { Fission.region = r; stats } ->
      Log.debug (fun m ->
          m "fission: wrapper %d alt %d: %d epoch(s), %d expanded, %d recomputed, %d hoisted"
            wid alt stats.Fission.epochs stats.Fission.expanded stats.Fission.recomputed
            stats.Fission.hoisted);
      Tracer.instant_at st.config.tracer ~cat:"cpu" ~ts:(ticks st)
        ~args:
          [
            ("wid", Json.Int wid);
            ("alternative", if alt >= 0 then Json.Int alt else Json.Null);
            ("epochs", Json.Int stats.Fission.epochs);
            ("expanded", Json.Int stats.Fission.expanded);
            ("recomputed", Json.Int stats.Fission.recomputed);
            ("hoisted", Json.Int stats.Fission.hoisted);
          ]
        "cpu:fission";
      r
  | Error msg ->
      Log.debug (fun m -> m "fission: wrapper %d alt %d refused (%s); lockstep fallback" wid alt msg);
      region

(** Resolve a launch site when it launches — after the region's host
    prelude has bound its values, so a coarsened thread extent such as
    [bs / f] is known — memoized on (wrapper, alternative, resolved
    thread extents). The lowering sizes scratch from the extents, so a
    relaunch with different block dimensions re-lowers instead of
    replaying a stale region; GPU sites do not depend on them. *)
let site st ~wid ~alt (region : Instr.block) : site =
  let key = (wid, alt, if cpu_mode st then thread_extents st region else []) in
  Cache.Memo.find_or_add st.sites ~hash:(Hashtbl.hash key) ~equal:( = ) key (fun () ->
      let lowered = if cpu_mode st then cpu_lower st ~wid ~alt region else region in
      { lowered; stats = Backend.analyze st.config.target lowered })

(** Launch one grid-level parallel [p] of [site] and account for it:
    charged to the composite time and recorded unless in a trial.
    Returns the launch's simulated seconds. *)
let launch st ~name ~wid ~alt (site : site) (p : Instr.instr) =
  let stats = site.stats in
  let mode : Exec.mode =
    if st.trial || not st.config.functional then `Sample st.config.sample_blocks else `All
  in
  let offload =
    match st.config.target.Descriptor.vendor with
    | Descriptor.Amd ->
        let tb =
          match Backend.find_threads_body site.lowered with
          | Some _ -> Exec.block_dims_of st.env site.lowered |> List.fold_left ( * ) 1
          | None -> 1
        in
        tb > 0 && stats.Backend.static_shmem / max 1 tb > amd_shared_offload_threshold
    | Descriptor.Nvidia | Descriptor.Generic -> false
  in
  let demand =
    {
      Timing.regs_per_thread = stats.Backend.regs_per_thread;
      (* demoted shared memory puts no occupancy pressure on the SM *)
      shmem_per_block = (if offload then 0 else stats.Backend.static_shmem);
      ilp = stats.Backend.ilp;
      mlp = stats.Backend.mlp;
    }
  in
  let runner : Compile.frames -> Exec.runner =
    match st.reference with
    | Some reference ->
        let r = reference ~env:st.env p in
        fun _ -> r
    | None ->
        let ck = compiled_kernel st p in
        fun frames -> Compile.runner ~frames ck ~env:st.env
  in
  let result, breakdown =
    (* a fault inside the kernel is the device's *)
    try
      if cpu_mode st then begin
        let cres =
          Cpu_exec.launch st.cores ~jobs:st.config.jobs ~mode ~env:st.env p runner
        in
        let result = cres.Cpu_exec.result in
        ( result,
          Cpu_timing.estimate st.config.target ~demand
            ~vector_fraction:cres.Cpu_exec.vector_fraction result )
      end
      else begin
        let jobs = st.config.jobs in
        st.machine.Exec.shared_as_global <- offload;
        let result = Exec.run_grid ~jobs st.machine ~mode ~env:st.env p (runner st.frames) in
        st.machine.Exec.shared_as_global <- false;
        (result, Timing.estimate st.config.target ~demand result)
      end
    with Memory.Out_of_bounds msg -> raise (Exec.Device_error msg)
  in
  let seconds = breakdown.Timing.seconds in
  let t0 = ticks st in
  charge st seconds;
  if not st.trial then begin
    Tracer.span_at st.config.tracer ~cat:"kernel" ~ts:t0 ~dur:(seconds *. 1e6)
      ~args:
        [
          ("kernel", Json.Str name);
          ("alternative", if alt >= 0 then Json.Int alt else Json.Null);
          ("nblocks", Json.Int result.Exec.nblocks);
          ("threads_per_block", Json.Int result.Exec.threads_per_block);
          ("seconds", Json.Float seconds);
          ("occupancy", Json.Float breakdown.Timing.occupancy.Pgpu_target.Occupancy.occupancy);
        ]
      ("kernel:" ^ name);
    let bottleneck =
      Bottleneck.classify ~kind:st.config.target.Descriptor.kind result.Exec.counters breakdown
    in
    Tracer.instant_at st.config.tracer ~cat:"bottleneck" ~ts:t0
      ~args:
        [
          ("kernel", Json.Str name);
          ("label", Json.Str (Bottleneck.label_name bottleneck.Bottleneck.label));
          ("limiter", Json.Str bottleneck.Bottleneck.limiter);
          ("headroom", Json.Float bottleneck.Bottleneck.headroom);
        ]
      ("bottleneck:" ^ name);
    st.records <-
      {
        kernel = name;
        wid;
        alternative = (if alt >= 0 then Some alt else None);
        result;
        stats;
        breakdown;
        bottleneck;
        seconds;
      }
      :: st.records
  end;
  seconds

(** A trial's env for [region]: a copy of [env] in which only the
    buffers bound to the region's free values are deep-copied,
    deduplicated by buffer id (so aliased arguments share one copy,
    as they share one buffer in the commit), including per-lane buffer
    vectors. Scalars and the buffers the region cannot reach stay
    shared: a region reaches memory only through its free values and
    its own allocations, and no memref holds a memref, so a trial's
    functional writes land in private arrays without ever touching the
    live data. As with the copy-on-write machine clone, the live side
    must stay idle while the trial runs: [search] touches neither the
    live env nor its buffers until every trial is done. *)
let clone_trial_env (env : Exec.env) (region : Instr.block) : Exec.env =
  let copy = Hashtbl.copy env in
  let cloned = Hashtbl.create 16 in
  let clone_buf (b : Memory.buf) =
    match Hashtbl.find_opt cloned b.Memory.id with
    | Some b' -> b'
    | None ->
        let data =
          match b.Memory.data with
          | Memory.I a -> Memory.I (Array.copy a)
          | Memory.F a -> Memory.F (Array.copy a)
        in
        let b' = { b with Memory.data } in
        Hashtbl.replace cloned b.Memory.id b';
        b'
  in
  List.iter
    (fun (v : Value.t) ->
      match Hashtbl.find_opt env v.Value.id with
      | Some (Exec.UB b) -> Hashtbl.replace copy v.Value.id (Exec.UB (clone_buf b))
      | Some (Exec.VB bs) -> Hashtbl.replace copy v.Value.id (Exec.VB (Array.map clone_buf bs))
      | _ -> ())
    (Instr.free_values region);
  copy

(** Trace a committed TDO choice; [cached] when the persistent cache
    answered it. *)
let choice_event st ~name ~signature ~cached k spec seconds =
  Tracer.instant_at st.config.tracer ~cat:"tdo" ~ts:(ticks st)
    ~args:
      ([
         ("kernel", Json.Str name);
         ("signature", Json.Str signature);
         ("alternative", Json.Int k);
         ("spec", Json.Str spec);
         ("seconds", Json.Float seconds);
       ]
      @ if cached then [ ("cached", Json.Bool true) ] else [])
    "tdo:choice"

(** Whether [region] contains a launch site of its own: tuning it
    mid-trial goes through the choice tables trials share. *)
let has_nested_site (region : Instr.block) =
  let nested = ref false in
  Instr.iter_deep
    (fun i ->
      match i with Instr.Gpu_wrapper _ | Instr.Alternatives _ -> nested := true | _ -> ())
    region;
  !nested

(** Execute one kernel region (the selected alternatives region or the
    plain wrapper body): host instructions are evaluated, and each
    grid-level parallel launches on the site resolved at that point.
    Fission rewrites only the bodies of grid-level parallels, so the
    lowered region lines up instruction for instruction with [region].
    Trials and commits both run through here; returns the summed
    simulated seconds of the region's launches. *)
let rec exec_kernel_region st ~name ~wid ~alt (region : Instr.block) =
  let seconds = ref 0. in
  List.iteri
    (fun j i ->
      match i with
      | Instr.Parallel { level = Instr.Blocks; _ } ->
          let s = site st ~wid ~alt region in
          seconds := !seconds +. launch st ~name ~wid ~alt s (List.nth s.lowered j)
      | _ -> exec_host_instr st i)
    region;
  !seconds

(** Magnitude-bucketed signature of a launch site's integer inputs:
    the timing-driven optimization re-tunes a site when the scale of
    its launch configuration changes. *)
and launch_signature st ~wid (body : Instr.block) =
  let frees =
    match Hashtbl.find_opt st.freevars_cache wid with
    | Some f -> f
    | None ->
        let f =
          Instr.free_values body
          |> List.sort Value.compare
        in
        Hashtbl.replace st.freevars_cache wid f;
        f
  in
  let buf = Buffer.create 16 in
  List.iter
    (fun v ->
      match Exec.lookup st.env v with
      | Exec.UI n ->
          Buffer.add_string buf (string_of_int (Pgpu_support.Util.ilog2 (abs n + 1)));
          Buffer.add_char buf '.'
      | _ -> Buffer.add_char buf '_')
    frees;
  Buffer.contents buf

(** Persistent TDO cache key for a launch site: the closed structural
    hash of the wrapper body (stable across processes, memoized per
    wrapper id) joined with the target name, the launch signature and
    the alternative descriptions. Every alternatives region computes
    the same result, so even a hash collision could only ever affect
    which (correct) version runs. *)
and tdo_cache_key st ~wid ~signature (descs : string list) (body : Instr.block) =
  if not (Cache.enabled st.config.cache) then None
  else
    let h =
      match Hashtbl.find_opt st.khash_cache wid with
      | Some h -> h
      | None ->
          let h = Instr.hash_block ~closed:true body in
          Hashtbl.replace st.khash_cache wid h;
          h
    in
    Some
      (Fmt.str "%x/%s/%s/%s" h st.config.target.Descriptor.name signature
         (String.concat ";" descs))

and cached_choice st ckey n =
  match ckey with
  | None -> None
  | Some key -> (
      match Cache.find st.config.cache ~ns:"tdo" key with
      | Some j -> (
          match Json.member "choice" j with
          | Some (Json.Int k) when k >= 0 && k < n ->
              let seconds =
                match Json.member "seconds" j with Some (Json.Float s) -> s | _ -> 0.
              in
              Some (k, seconds)
          | _ -> None)
      | None -> None)

(** Timing-driven optimization: measure every region of an
    [Alternatives] op once per launch signature and commit to the
    fastest feasible one. Regions that are infeasible on the target
    are skipped, which subsumes the static shared-memory pruning at
    runtime. A choice found in the persistent cache is committed
    directly, without trials — the warm run replays the cold run's
    decision. *)
and choose_alternative st ~name ~wid ~signature ?ckey (aid : int) (descs : string list) regions =
  match Hashtbl.find_opt st.choices (aid, signature) with
  | Some k -> k
  | None ->
      let k =
        if not st.config.tune then min st.config.fixed_choice (List.length regions - 1)
        else
          match cached_choice st ckey (List.length regions) with
          | Some (k, seconds) ->
              Log.debug (fun m ->
                  m "TDO: kernel %s chose alternative %d (%s) from cache" name k
                    (List.nth descs k));
              choice_event st ~name ~signature ~cached:true k (List.nth descs k) seconds;
              k
          | None -> search st ~name ~wid ~signature ?ckey descs regions
      in
      Hashtbl.replace st.choices (aid, signature) k;
      k

(** The TDO search: one trial per candidate, batched on the
    persistent pool ([jobs = 1] runs the batch inline), then a stable
    argmin — strictly-less in index order — so the committed choice is
    identical however the trials were scheduled. The batch runs with
    one job under a tracer, whose [tdo:trial] and [cpu:fission] events
    must come out in trial order, and when a candidate contains a
    nested launch site. *)
and search st ~name ~wid ~signature ?ckey descs regions =
  let jobs =
    if Tracer.enabled st.config.tracer || List.exists has_nested_site regions then 1
    else st.config.jobs
  in
  let trials =
    Pgpu_support.Pool.map (Pgpu_support.Pool.get ()) ~jobs
      (fun (k, region) -> trial st ~name ~wid ~descs k region)
      (List.mapi (fun k r -> (k, r)) regions)
  in
  let best = ref (-1) and best_t = ref infinity in
  List.iteri
    (fun k (t, _) ->
      if t < !best_t then begin
        best := k;
        best_t := t
      end)
    trials;
  if !best < 0 then begin
    (* every candidate was rejected: a fault among them is the
       kernel's, and reported as the commit would have reported it *)
    match List.find_map snd trials with
    | Some msg -> raise (Exec.Device_error msg)
    | None -> host_fail "no feasible alternative for kernel %s" name
  end;
  Log.debug (fun m ->
      m "TDO: kernel %s chose alternative %d (%s), %.3g s" name !best (List.nth descs !best)
        !best_t);
  choice_event st ~name ~signature ~cached:false !best (List.nth descs !best) !best_t;
  Option.iter
    (fun key ->
      Cache.add st.config.cache ~ns:"tdo" key
        (Json.Obj
           [
             ("choice", Json.Int !best);
             ("spec", Json.Str (List.nth descs !best));
             ("seconds", Json.Float !best_t);
           ]))
    ckey;
  !best

(** One trial: candidate [k] runs through the same
    [exec_kernel_region] as the commit, on a private state — a
    copy-on-write machine clone (which never race-checks), private
    copies of the buffers the region can reach, its own env, frames
    and CPU cores — so it sees exactly the pre-search machine the
    commit then runs on, and leaves no trace on it. The live machine
    stays idle until [search] has dropped every trial state, as the
    clone's source-idle rule requires. Returns the candidate's
    simulated seconds, [infinity] when it is infeasible or faults, and
    the fault's message. *)
and trial st ~name ~wid ~descs k region =
  let machine = Exec.clone_machine st.machine in
  let ts =
    {
      st with
      machine;
      env = clone_trial_env st.env region;
      frames = Compile.frames machine;
      cores = Cpu_exec.cores st.config.target;
      records = [];
      trial = true;
    }
  in
  let t, fault =
    match exec_kernel_region ts ~name ~wid ~alt:k region with
    | t -> (t, None)
    | exception Timing.Infeasible _ -> (infinity, None)
    | exception Exec.Device_error msg -> (infinity, Some msg)
  in
  Tracer.instant_at st.config.tracer ~cat:"tdo" ~ts:(ticks st)
    ~args:
      [
        ("kernel", Json.Str name);
        ("alternative", Json.Int k);
        ("spec", Json.Str (List.nth descs k));
        ("seconds", Json.Float t);
        ("feasible", Json.Bool (Float.is_finite t));
      ]
    "tdo:trial";
  (t, fault)

and exec_wrapper st ~name ~wid (body : Instr.block) =
  match body with
  | [ Instr.Alternatives { aid; descs; regions } ] ->
      let signature =
        if st.config.tune then launch_signature st ~wid body else ""
      in
      let ckey =
        if st.config.tune then tdo_cache_key st ~wid ~signature descs body else None
      in
      let k = choose_alternative st ~name ~wid ~signature ?ckey aid descs regions in
      ignore (exec_kernel_region st ~name ~wid ~alt:k (List.nth regions k))
  | _ -> ignore (exec_kernel_region st ~name ~wid ~alt:(-1) body)

(* ------------------------------------------------------------------ *)
(* Host control flow                                                   *)
(* ------------------------------------------------------------------ *)

and exec_host_block st (block : Instr.block) : [ `Fallthrough | `Yield of Exec.rv list | `Yield_while of bool * Exec.rv list | `Return of Exec.rv list ] =
  let rec go = function
    | [] -> `Fallthrough
    | i :: rest -> (
        match i with
        | Instr.Yield vs -> `Yield (List.map (lookup st) vs)
        | Instr.Yield_while (c, vs) -> `Yield_while (as_int st c <> 0, List.map (lookup st) vs)
        | Instr.Return vs -> `Return (List.map (lookup st) vs)
        | _ ->
            exec_host_instr st i;
            go rest)
  in
  go block

and exec_host_instr st (i : Instr.instr) : unit =
  charge st host_op_cost;
  match i with
  | Instr.Let (v, e) -> bind st v (eval_host_expr st v e)
  | Instr.Store { mem; idx; v } ->
      let b = as_buf st mem and k = as_int st idx in
      if Types.is_float (Types.elem mem.Value.ty) then Memory.set_f b k (as_float st v)
      else Memory.set_i b k (as_int st v)
  | Instr.If { cond; results; then_; else_ } -> (
      let branch = if as_int st cond <> 0 then then_ else else_ in
      match exec_host_block st branch with
      | `Yield vs -> List.iter2 (bind st) results vs
      | `Fallthrough when results = [] -> ()
      | _ -> host_fail "malformed host if")
  | Instr.For { iv; lb; ub; step; iter_args; inits; results; body } ->
      let l0 = as_int st lb and u = as_int st ub and s = as_int st step in
      if s <= 0 then host_fail "host for loop with non-positive step";
      List.iter2 (fun a init -> bind st a (lookup st init)) iter_args inits;
      let k = ref l0 in
      while !k < u do
        bind st iv (Exec.UI !k);
        (match exec_host_block st body with
        | `Yield vs -> List.iter2 (bind st) iter_args vs
        | _ -> host_fail "malformed host for");
        k := !k + s
      done;
      List.iter2 (fun r a -> bind st r (lookup st a)) results iter_args
  | Instr.While { iter_args; inits; results; body } ->
      List.iter2 (fun a init -> bind st a (lookup st init)) iter_args inits;
      let continue_ = ref true in
      while !continue_ do
        match exec_host_block st body with
        | `Yield_while (c, vs) ->
            List.iter2 (bind st) iter_args vs;
            if not c then continue_ := false
        | _ -> host_fail "malformed host while"
      done;
      List.iter2 (fun r a -> bind st r (lookup st a)) results iter_args
  | Instr.Alloc { res; space; elt; count } ->
      let n = as_int st count in
      if n < 0 then host_fail "allocation of %a with a negative count (%d)" Value.pp res n;
      bind st res (Exec.UB (Memory.alloc st.machine.Exec.alloc space elt n))
  | Instr.Free _ -> ()
  | Instr.Memcpy { dst; src; count } ->
      let d = as_buf st dst and s = as_buf st src in
      let n = as_int st count in
      Memory.copy ~dst:d ~src:s n;
      let bytes = float_of_int (n * Memory.elt_size d) in
      let crosses_pcie = d.Memory.space <> s.Memory.space in
      let seconds =
        if crosses_pcie then
          memcpy_overhead
          +. (bytes /. (st.config.target.Descriptor.h2d_bandwidth_gbs *. 1e9))
        else bytes /. (st.config.target.Descriptor.mem_bandwidth_gbs *. 1e9)
      in
      let t0 = ticks st in
      charge st seconds;
      if not st.trial then
        Tracer.span_at st.config.tracer ~cat:"memcpy" ~ts:t0 ~dur:(seconds *. 1e6)
          ~args:
            [
              ("bytes", Json.Float bytes);
              ("pcie", Json.Bool crosses_pcie);
              ("seconds", Json.Float seconds);
            ]
          "memcpy"
  | Instr.Gpu_wrapper { wid; name; body } -> exec_wrapper st ~name ~wid body
  | Instr.Intrinsic { results; name; args } -> eval_intrinsic st results name args
  | Instr.Alternatives _ -> host_fail "alternatives outside gpu_wrapper"
  | Instr.Parallel _ | Instr.Barrier _ | Instr.Alloc_shared _ ->
      host_fail "device construct in host code"
  | Instr.Yield _ | Instr.Yield_while _ | Instr.Return _ -> host_fail "stray terminator"

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(** Run function [fname] of module [m] with the given arguments.
    Returns the function results and the final state (composite time,
    launch records, buffers still bound in the environment). *)
let run ?reference ?(fname = "main") config (m : Instr.modul) (args : Exec.rv list) =
  let f = Instr.find_func m fname in
  if List.length f.Instr.params <> List.length args then
    host_fail "%s expects %d arguments, got %d" fname (List.length f.Instr.params)
      (List.length args);
  let st = create ?reference config in
  List.iter2 (bind st) f.Instr.params args;
  let cache_on = Cache.enabled config.cache in
  let th0, tm0, _ = if cache_on then Cache.ns_stats config.cache "tdo" else (0, 0, 0) in
  (* launches report their own faults as device errors, so an access
     fault that reaches here is the host program's *)
  match exec_host_block st f.Instr.body with
  | exception Memory.Out_of_bounds msg -> raise (Host_error msg)
  | `Return vs ->
      (* per-run TDO cache telemetry (deltas over this run) and
         write-back; gated on an enabled cache so default traces are
         unchanged *)
      if cache_on then begin
        let th1, tm1, _ = Cache.ns_stats config.cache "tdo" in
        Log.debug (fun k ->
            k "TDO cache: %d hit(s), %d miss(es)" (th1 - th0) (tm1 - tm0));
        Tracer.counter config.tracer ~ts:(ticks st) "cache.tdo.hits"
          (float_of_int (th1 - th0));
        Tracer.counter config.tracer ~ts:(ticks st) "cache.tdo.misses"
          (float_of_int (tm1 - tm0));
        Cache.flush config.cache
      end;
      (vs, st)
  | _ -> host_fail "%s did not return" fname

(** Launch records in program order. *)
let records st = List.rev st.records

let composite_seconds st = st.composite

let buffer_contents rv =
  match rv with
  | Exec.UB b -> Memory.to_float_list b
  | _ -> host_fail "expected a buffer result"

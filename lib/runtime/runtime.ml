(** Host-side runtime: runs the host portion of a compiled module,
    launches kernels on the GPU simulator, accounts composite time
    (host logic + transfers + kernel time, the paper's "composite
    measurement"), and implements the timing-driven optimization that
    picks the best [Alternatives] region per launch site (Section VI).

    Host code is compiled once per run, before its first instruction
    runs, into closures over the slot-indexed register file
    ({!Exec.env}): every host value gets a slot, and each instruction
    reads and writes the unboxed banks directly. A kernel region
    compiles to steps that either run a host instruction or launch
    one of its grid-level parallels. Every executed host instruction
    but a terminator charges {!host_op_cost} before it runs. *)

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

(** Simulated composite seconds. A record of one float field holds it
    unboxed, so a charge allocates nothing. *)
type clock = { mutable composite : float }

type state = {
  config : config;
  reference : reference option;
      (** runs every launch in place of the compiled engine, trials
          included: the seam the differential tests put their
          reference interpreter in *)
  machine : Exec.machine;
  env : Exec.env;
      (** the register file; every host value of the run has its slot
          before the first host instruction runs *)
  frames : Compile.frames;  (** compiled-kernel register files on [machine] *)
  cores : Cpu_exec.cores;  (** the CPU backend's core machines and their frames *)
  mutable records : launch_record list;
  clock : clock;
  trial : bool;  (** a TDO trial's private state: sample + don't record *)
  choices : (int * string, int) Hashtbl.t;
      (** (alternatives id, launch signature) -> chosen region. The
          signature buckets the integer inputs of the launch site by
          magnitude, so sites whose grids shrink across a host loop
          (e.g. gaussian, lud, nw) are re-tuned when the scale changes
          but not on every iteration. *)
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

(** One compiled host instruction. *)
type code = state -> unit

(** A step of a kernel region: launch the grid-level parallel at
    position [j] of the region, or run a host instruction. *)
type step = Launch of int | Host of code

(** A kernel region (an alternatives region or a plain wrapper body),
    compiled. *)
type region = {
  block : Instr.block;  (** as written: what a launch resolves its site from *)
  steps : step array;
  nested : bool;  (** contains a launch site of its own *)
  free_bufs : int array;  (** slots of the region's free memref values *)
  written : int array;
      (** slots of those the region may write; both are filled only
          when tuning, for trials *)
}

type wrapper = {
  wid : int;
  name : string;
  alternatives : (int * string list) option;  (** alternatives id and descriptions *)
  regions : region array;
  signature_slots : int array;
      (** the body's free values in [Value.compare] order, for the
          launch signature: the slot of each integer one, [-1] for the
          others (filled only when tuning) *)
  khash : int;
      (** the closed structural hash of the body, the persistent TDO
          key (computed only when tuning with the cache on) *)
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
    clock = { composite = 0. };
    trial = false;
    choices = Hashtbl.create 8;
    sites = Cache.Memo.create ();
    compiled_cache = Cache.Memo.create ();
  }

exception Host_error of string

let host_fail fmt = Fmt.kstr (fun s -> raise (Host_error s)) fmt

let[@inline] charge st seconds =
  if not st.trial then st.clock.composite <- st.clock.composite +. seconds

(* trace timestamps are simulated composite time, in microseconds (the
   unit of the Chrome trace-event format) *)
let ticks st = st.clock.composite *. 1e6

(** Deterministic input generation shared with the CPU reference
    implementations: the contents of a buffer filled by
    [fill_rand(buf, seed)] depend only on the seed and length. *)
let rand_array seed n =
  let rng = Pgpu_support.Rng.create seed in
  Array.init n (fun _ -> Pgpu_support.Rng.float rng)

let rand_int_array seed bound n =
  let rng = Pgpu_support.Rng.create seed in
  Array.init n (fun _ -> Pgpu_support.Rng.int rng bound)

(* [fill_rand] and [fill_rand_range]: [lo + span * u] for each draw [u]
   of the seed's [Rng.float] stream, straight into a float buffer's
   unboxed array (a closure returning the draw would box it); an int
   buffer truncates each value *)
let fill_uniform (e : Exec.env) sb ss ~lo ~span =
  let rng = Pgpu_support.Rng.create e.Exec.ints.(ss) and b = e.Exec.bufs.(sb) in
  match b.Memory.data with
  | Memory.F arr ->
      for k = 0 to b.Memory.len - 1 do
        arr.(k) <- lo +. (span *. Pgpu_support.Rng.float rng)
      done
  | Memory.I _ -> Memory.fill_f b (fun _ -> lo +. (span *. Pgpu_support.Rng.float rng))

(* ------------------------------------------------------------------ *)
(* Kernel launches                                                     *)
(* ------------------------------------------------------------------ *)

(** Decide the per-thread shared-memory pressure threshold above which
    the AMD backend demotes shared memory to global (the nw behaviour
    of Section VII-D2). *)
let amd_shared_offload_threshold = 96 (* bytes of shared memory per thread *)

(** Simulated seconds charged per executed host instruction. *)
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

(** The integer a host value holds; [None] for a kernel-internal
    value, which has no slot. A region's host value that no
    instruction has written yet (an extent computed after the region's
    first launch) reads [0], which fission refuses as a thread extent
    just as it refuses an unknown one. *)
let env_const st (v : Value.t) =
  match Exec.lookup st.env v with Exec.UI n -> Some n | _ -> None | exception Failure _ -> None

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

(** A trial's env for [r]: the three banks copied, the index shared
    (it is read-only while the run executes), and the buffers [r] may
    write (see {!written_values}) deep-copied, once per buffer id, with
    every free value of [r] bound to such a buffer rebound to its copy:
    aliased arguments still share one buffer, as in the commit.
    Scalars live in the copied banks; the buffers [r] only reads stay
    shared, and so do the buffers it cannot reach: a region reaches
    memory only through its free values and its own allocations, and
    no memref holds a memref, so a trial's functional writes land in
    private arrays without ever touching the live data. As with the
    copy-on-write machine clone, the live side must stay idle while
    the trial runs: [search] touches neither the live env nor its
    buffers until every trial is done. *)
let clone_trial_env (env : Exec.env) (r : region) : Exec.env =
  let bufs = Array.copy env.Exec.bufs in
  let copies = Hashtbl.create 8 in
  Array.iter
    (fun s ->
      let (b : Memory.buf) = bufs.(s) in
      if not (Hashtbl.mem copies b.Memory.id) then
        let data =
          match b.Memory.data with
          | Memory.I a -> Memory.I (Array.copy a)
          | Memory.F a -> Memory.F (Array.copy a)
        in
        Hashtbl.replace copies b.Memory.id { b with Memory.data })
    r.written;
  Array.iter
    (fun s ->
      match Hashtbl.find_opt copies bufs.(s).Memory.id with
      | Some b -> bufs.(s) <- b
      | None -> ())
    r.free_bufs;
  {
    env with
    Exec.ints = Array.copy env.Exec.ints;
    floats = Array.copy env.Exec.floats;
    bufs;
  }

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

(** Execute one compiled kernel region (the selected alternatives
    region or the plain wrapper body): host steps run, and each
    grid-level parallel launches on the site resolved at that point.
    Fission rewrites only the bodies of grid-level parallels, so the
    lowered region lines up instruction for instruction with the
    region as written. Trials and commits both run through here;
    returns the summed simulated seconds of the region's launches. *)
let rec exec_kernel_region st ~name ~wid ~alt (r : region) =
  let seconds = ref 0. in
  Array.iter
    (function
      | Host code -> code st
      | Launch j ->
          let s = site st ~wid ~alt r.block in
          seconds := !seconds +. launch st ~name ~wid ~alt s (List.nth s.lowered j))
    r.steps;
  !seconds

(** Magnitude-bucketed signature of a launch site's integer inputs:
    the timing-driven optimization re-tunes a site when the scale of
    its launch configuration changes. *)
and launch_signature st (w : wrapper) =
  let buf = Buffer.create 16 in
  Array.iter
    (fun s ->
      if s >= 0 then begin
        let n = st.env.Exec.ints.(s) in
        Buffer.add_string buf (string_of_int (Pgpu_support.Util.ilog2 (abs n + 1)));
        Buffer.add_char buf '.'
      end
      else Buffer.add_char buf '_')
    w.signature_slots;
  Buffer.contents buf

(** Persistent TDO cache key for a launch site: the closed structural
    hash of the wrapper body (stable across processes) joined with the
    target name, the launch signature and the alternative
    descriptions. Every alternatives region computes the same result,
    so even a hash collision could only ever affect which (correct)
    version runs. *)
and tdo_cache_key st (w : wrapper) ~signature (descs : string list) =
  if not (Cache.enabled st.config.cache) then None
  else
    Some
      (Fmt.str "%x/%s/%s/%s" w.khash st.config.target.Descriptor.name signature
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
and choose_alternative st ~name ~wid ~signature ?ckey (aid : int) (descs : string list)
    (regions : region array) =
  match Hashtbl.find_opt st.choices (aid, signature) with
  | Some k -> k
  | None ->
      let k =
        if not st.config.tune then min st.config.fixed_choice (Array.length regions - 1)
        else
          match cached_choice st ckey (Array.length regions) with
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
    if Tracer.enabled st.config.tracer || Array.exists (fun r -> r.nested) regions then 1
    else st.config.jobs
  in
  let trials =
    Pgpu_support.Pool.map (Pgpu_support.Pool.get ()) ~jobs
      (fun (k, region) -> trial st ~name ~wid ~descs k region)
      (List.mapi (fun k r -> (k, r)) (Array.to_list regions))
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
    copy-on-write machine clone (which never race-checks), its own
    register file with private copies of the buffers the region can
    write ({!clone_trial_env}), its own frames and CPU cores — so it
    sees exactly the pre-search machine the commit then runs on, and
    leaves no trace on it. The live machine stays idle until [search]
    has dropped every trial state, as the clone's source-idle rule
    requires. Returns the candidate's simulated seconds, [infinity]
    when it is infeasible or faults, and the fault's message. *)
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

and exec_wrapper st (w : wrapper) =
  let name = w.name and wid = w.wid in
  match w.alternatives with
  | Some (aid, descs) ->
      let signature = if st.config.tune then launch_signature st w else "" in
      let ckey = if st.config.tune then tdo_cache_key st w ~signature descs else None in
      let k = choose_alternative st ~name ~wid ~signature ?ckey aid descs w.regions in
      ignore (exec_kernel_region st ~name ~wid ~alt:k w.regions.(k))
  | None -> ignore (exec_kernel_region st ~name ~wid ~alt:(-1) w.regions.(0))

(* ------------------------------------------------------------------ *)
(* Host code compilation                                               *)
(* ------------------------------------------------------------------ *)

(* Every host instruction compiles once per run to a [code] closure
   over resolved slots of the register file: nothing is hashed or
   boxed when it runs, and no block result or per-iteration list is
   built. An instruction charges [host_op_cost] before it runs,
   terminators excepted, and every error (a malformed if, for or
   while, a non-positive step, a negative allocation, a device
   construct in host code) is raised when the instruction executes,
   not when it compiles. An operand whose bank is not the one the
   instruction reads (an integer where a float is read, say) is
   converted into a scratch slot first, with the host program's
   coercions ([Exec.bind]'s). The tests hold all of this to a
   tree-walking oracle ([Interp.run_host]). *)

let scratch st bank =
  Exec.slot st.env
    (Value.fresh
       (match bank with
       | Exec.Ints -> Types.I64
       | Exec.Floats -> Types.F64
       | Exec.Bufs -> Types.Memref (Types.Host, Types.I32)))

(** Copy slot [s] of bank [from] to slot [d] of bank [into], coercing
    between the scalar banks as the host program reads; [what] names
    the value in errors. *)
let move (what : Value.t) (from : Exec.bank) s (into : Exec.bank) d : code =
  match (from, into) with
  | Exec.Ints, Exec.Ints -> fun st -> st.env.Exec.ints.(d) <- st.env.Exec.ints.(s)
  | Exec.Floats, Exec.Floats -> fun st -> st.env.Exec.floats.(d) <- st.env.Exec.floats.(s)
  | Exec.Bufs, Exec.Bufs -> fun st -> st.env.Exec.bufs.(d) <- st.env.Exec.bufs.(s)
  | Exec.Ints, Exec.Floats -> fun st -> st.env.Exec.floats.(d) <- float_of_int st.env.Exec.ints.(s)
  | Exec.Floats, Exec.Ints -> fun st -> st.env.Exec.ints.(d) <- int_of_float st.env.Exec.floats.(s)
  | Exec.Bufs, Exec.Ints -> fun _ -> host_fail "expected host scalar int %a" Value.pp what
  | Exec.Bufs, Exec.Floats -> fun _ -> host_fail "expected host scalar float %a" Value.pp what
  | (Exec.Ints | Exec.Floats), Exec.Bufs -> fun _ -> host_fail "expected buffer %a" Value.pp what

(** The slot of bank [want] an instruction reads [v] from: [v]'s own,
    or a scratch slot a step pushed on [pre] fills. A value without a
    slot is defined by no host code before it: reading it fails. *)
let operand st pre want (v : Value.t) =
  match Hashtbl.find_opt st.env.Exec.index v.Value.id with
  | Some s when Exec.bank v.Value.ty = want -> s
  | Some s ->
      let d = scratch st want in
      pre := move v (Exec.bank v.Value.ty) s want d :: !pre;
      d
  | None ->
      pre := (fun _ -> Pgpu_support.Util.failf "exec: unbound value %a" Value.pp v) :: !pre;
      0

let seq (steps : code list) : code =
  match steps with
  | [] -> fun _ -> ()
  | [ c ] -> c
  | cs ->
      let a = Array.of_list cs in
      fun st ->
        for i = 0 to Array.length a - 1 do
          a.(i) st
        done

let[@inline] exec_code (code : code array) st =
  for i = 0 to Array.length code - 1 do
    code.(i) st
  done

(** The step binding [dsts] to [srcs] (a yield, a loop's inits, its
    results) by slot copies resolved now. A copy that would overwrite
    a slot a later copy reads, as when a yield permutes its loop's
    iter-args, makes every copy go through a scratch slot. [None]
    when the lists differ in length. *)
let bind_values st (dsts : Value.t list) (srcs : Value.t list) : code option =
  if List.length dsts <> List.length srcs then None
  else begin
    let pre = ref [] in
    let copies =
      List.map2
        (fun (d : Value.t) s ->
          let bank = Exec.bank d.Value.ty in
          (d, bank, operand st pre bank s, Exec.slot st.env d))
        dsts srcs
      |> List.filter (fun (_, _, s, d) -> s <> d)
    in
    let rec hazard = function
      | [] -> false
      | (_, _, _, d) :: rest -> List.exists (fun (_, _, s, _) -> s = d) rest || hazard rest
    in
    let moves =
      if hazard copies then begin
        let staged = List.map (fun (v, b, s, d) -> (v, b, s, d, scratch st b)) copies in
        List.map (fun (v, b, s, _, t) -> move v b s b t) staged
        @ List.map (fun (v, b, _, d, t) -> move v b t b d) staged
      end
      else List.map (fun (v, b, s, d) -> move v b s b d) copies
    in
    Some (seq (List.rev !pre @ moves))
  end

let elem_is_float (v : Value.t) =
  match v.Value.ty with Types.Memref (_, t) -> Types.is_float t | _ -> false

(** The memref values [block] may write through: those with a use
    other than a load's buffer or a memcpy's source (a store, a memcpy
    destination, an intrinsic argument, a select, a yield, an iter-arg,
    a cast, ...). Nothing else can write through a value: a trial
    copies exactly the buffers of the free ones. *)
let written_values (block : Instr.block) =
  let written = Value.Tbl.create 8 in
  Instr.iter_deep
    (fun i ->
      let uses =
        match i with
        | Instr.Let (_, Instr.Load _) -> []
        | Instr.Memcpy { dst; _ } -> [ dst ]
        | i -> Instr.direct_uses i
      in
      List.iter
        (fun (v : Value.t) -> if Types.is_memref v.Value.ty then Value.Tbl.replace written v ())
        uses)
    block;
  written

(** Compile [block] up to its terminator: the steps of its
    instructions, and the terminator ([None] when it falls through). *)
let rec compile_block st (block : Instr.block) : code array * Instr.instr option =
  let rec go acc = function
    | [] -> (acc, None)
    | ((Instr.Yield _ | Instr.Yield_while _ | Instr.Return _) as t) :: _ -> (acc, Some t)
    | i :: rest -> go (compile_instr st i :: acc) rest
  in
  let code, term = go [] block in
  (Array.of_list (List.rev code), term)

and compile_instr st (i : Instr.instr) : code =
  let pre = ref [] and post = ref [] in
  let int_ = operand st pre Exec.Ints
  and float_ = operand st pre Exec.Floats
  and buf = operand st pre Exec.Bufs in
  (* the slot of bank [have] the instruction writes [v]'s value to *)
  let result have (v : Value.t) =
    let s = Exec.slot st.env v in
    let own = Exec.bank v.Value.ty in
    if own = have then s
    else begin
      let t = scratch st have in
      post := move v have t own s :: !post;
      t
    end
  in
  let malformed what = fun (_ : state) -> host_fail "malformed host %s" what in
  let main : code =
    match i with
    | Instr.Let (v, e) -> (
        let ty = v.Value.ty in
        match e with
        | Instr.Const (Instr.Ci n) ->
            let d = result Exec.Ints v in
            fun st ->
              charge st host_op_cost;
              st.env.Exec.ints.(d) <- n
        | Instr.Const (Instr.Cf x) ->
            let d = result Exec.Floats v in
            fun st ->
              charge st host_op_cost;
              st.env.Exec.floats.(d) <- x
        | Instr.Binop (op, a, b) when Types.is_float ty ->
            let sa = float_ a and sb = float_ b in
            let d = result Exec.Floats v in
            fun st ->
              charge st host_op_cost;
              let f = st.env.Exec.floats in
              f.(d) <- Ops.eval_float_binop op f.(sa) f.(sb)
        | Instr.Binop (op, a, b) ->
            let sa = int_ a and sb = int_ b in
            let d = result Exec.Ints v in
            fun st ->
              charge st host_op_cost;
              let n = st.env.Exec.ints in
              n.(d) <- Ops.eval_int_binop op n.(sa) n.(sb)
        | Instr.Unop (op, a) when Types.is_float ty ->
            let sa = float_ a in
            let d = result Exec.Floats v in
            fun st ->
              charge st host_op_cost;
              let f = st.env.Exec.floats in
              f.(d) <- Ops.eval_float_unop op f.(sa)
        | Instr.Unop (op, a) ->
            let sa = int_ a in
            let d = result Exec.Ints v in
            fun st ->
              charge st host_op_cost;
              let n = st.env.Exec.ints in
              n.(d) <- Ops.eval_int_unop op n.(sa)
        | Instr.Cmp (op, a, b) when Types.is_float a.Value.ty ->
            let sa = float_ a and sb = float_ b in
            let d = result Exec.Ints v in
            fun st ->
              charge st host_op_cost;
              let f = st.env.Exec.floats in
              st.env.Exec.ints.(d) <- (if Ops.eval_float_cmp op f.(sa) f.(sb) then 1 else 0)
        | Instr.Cmp (op, a, b) ->
            let sa = int_ a and sb = int_ b in
            let d = result Exec.Ints v in
            fun st ->
              charge st host_op_cost;
              let n = st.env.Exec.ints in
              n.(d) <- (if Ops.eval_int_cmp op n.(sa) n.(sb) then 1 else 0)
        | Instr.Select (c, a, b) ->
            let bank = Exec.bank ty in
            let sc = int_ c and sa = operand st pre bank a and sb = operand st pre bank b in
            let d = result bank v in
            let pick_a = move a bank sa bank d and pick_b = move b bank sb bank d in
            fun st ->
              charge st host_op_cost;
              if st.env.Exec.ints.(sc) <> 0 then pick_a st else pick_b st
        | Instr.Cast a ->
            let bank = Exec.bank ty in
            let sa = operand st pre bank a in
            let copy = move a bank sa bank (result bank v) in
            fun st ->
              charge st host_op_cost;
              copy st
        | Instr.Load { mem; idx } when elem_is_float mem ->
            let sm = buf mem and si = int_ idx in
            let d = result Exec.Floats v in
            fun st ->
              charge st host_op_cost;
              let e = st.env in
              e.Exec.floats.(d) <- Memory.get_f e.Exec.bufs.(sm) e.Exec.ints.(si)
        | Instr.Load { mem; idx } ->
            let sm = buf mem and si = int_ idx in
            let d = result Exec.Ints v in
            fun st ->
              charge st host_op_cost;
              let e = st.env in
              e.Exec.ints.(d) <- Memory.get_i e.Exec.bufs.(sm) e.Exec.ints.(si))
    | Instr.Store { mem; idx; v } when elem_is_float mem ->
        let sm = buf mem and si = int_ idx and sv = float_ v in
        fun st ->
          charge st host_op_cost;
          let e = st.env in
          Memory.set_f e.Exec.bufs.(sm) e.Exec.ints.(si) e.Exec.floats.(sv)
    | Instr.Store { mem; idx; v } ->
        let sm = buf mem and si = int_ idx and sv = int_ v in
        fun st ->
          charge st host_op_cost;
          let e = st.env in
          Memory.set_i e.Exec.bufs.(sm) e.Exec.ints.(si) e.Exec.ints.(sv)
    | Instr.If { cond; results; then_; else_ } ->
        let sc = int_ cond in
        let branch blk =
          let code, term = compile_block st blk in
          let fin =
            match term with
            | Some (Instr.Yield vs) -> bind_values st results vs
            | None when results = [] -> Some (fun _ -> ())
            | _ -> None
          in
          let fin = Option.value fin ~default:(malformed "if") in
          fun st ->
            exec_code code st;
            fin st
        in
        let t = branch then_ in
        let f = branch else_ in
        fun st ->
          charge st host_op_cost;
          if st.env.Exec.ints.(sc) <> 0 then t st else f st
    | Instr.For { iv; lb; ub; step; iter_args; inits; results; body } ->
        let slb = int_ lb and sub = int_ ub and sstep = int_ step in
        let init = Option.value (bind_values st iter_args inits) ~default:(malformed "for") in
        let own = Exec.slot st.env iv in
        let siv, set_iv =
          match Exec.bank iv.Value.ty with
          | Exec.Ints -> (own, [])
          | bank ->
              let t = scratch st Exec.Ints in
              (t, [ move iv Exec.Ints t bank own ])
        in
        let code, term = compile_block st body in
        let code = Array.append (Array.of_list set_iv) code in
        let next =
          match term with
          | Some (Instr.Yield vs) -> bind_values st iter_args vs
          | _ -> None
        in
        let next = Option.value next ~default:(malformed "for") in
        let fin = Option.value (bind_values st results iter_args) ~default:(malformed "for") in
        fun st ->
          charge st host_op_cost;
          let e = st.env in
          let l0 = e.Exec.ints.(slb) and u = e.Exec.ints.(sub) and s = e.Exec.ints.(sstep) in
          if s <= 0 then host_fail "host for loop with non-positive step";
          init st;
          let k = ref l0 in
          while !k < u do
            e.Exec.ints.(siv) <- !k;
            exec_code code st;
            next st;
            k := !k + s
          done;
          fin st
    | Instr.While { iter_args; inits; results; body } ->
        let init = Option.value (bind_values st iter_args inits) ~default:(malformed "while") in
        let code, term = compile_block st body in
        (* the condition is read before the iter-args are rebound *)
        let next =
          match term with
          | Some (Instr.Yield_while (c, vs)) -> (
              let cpre = ref [] in
              let sc = operand st cpre Exec.Ints c in
              let read = seq (List.rev !cpre) in
              match bind_values st iter_args vs with
              | Some rebind ->
                  Some
                    (fun st ->
                      read st;
                      let go = st.env.Exec.ints.(sc) <> 0 in
                      rebind st;
                      go)
              | None -> None)
          | _ -> None
        in
        let next = Option.value next ~default:(fun _ -> host_fail "malformed host while") in
        let fin = Option.value (bind_values st results iter_args) ~default:(malformed "while") in
        fun st ->
          charge st host_op_cost;
          init st;
          let continue_ = ref true in
          while !continue_ do
            exec_code code st;
            if not (next st) then continue_ := false
          done;
          fin st
    | Instr.Alloc { res; space; elt; count } ->
        let sn = int_ count in
        let d = result Exec.Bufs res in
        fun st ->
          charge st host_op_cost;
          let e = st.env in
          let n = e.Exec.ints.(sn) in
          if n < 0 then host_fail "allocation of %a with a negative count (%d)" Value.pp res n;
          e.Exec.bufs.(d) <- Memory.alloc st.machine.Exec.alloc space elt n
    | Instr.Free _ -> fun st -> charge st host_op_cost
    | Instr.Memcpy { dst; src; count } ->
        let sd = buf dst and ss = buf src and sn = int_ count in
        fun st ->
          charge st host_op_cost;
          let e = st.env in
          let d = e.Exec.bufs.(sd) and s = e.Exec.bufs.(ss) and n = e.Exec.ints.(sn) in
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
    | Instr.Gpu_wrapper { wid; name; body } ->
        let w = compile_wrapper st ~wid ~name body in
        fun st ->
          charge st host_op_cost;
          exec_wrapper st w
    | Instr.Intrinsic { results; name; args } -> compile_intrinsic st pre results name args
    | Instr.Alternatives _ -> fun _ -> host_fail "alternatives outside gpu_wrapper"
    | Instr.Parallel _ | Instr.Barrier _ | Instr.Alloc_shared _ ->
        fun _ -> host_fail "device construct in host code"
    | Instr.Yield _ | Instr.Yield_while _ | Instr.Return _ -> fun _ -> host_fail "stray terminator"
  in
  seq (List.rev !pre @ (main :: List.rev !post))

(** The fill intrinsics read their operands once per call and draw
    the [Rng] stream of {!rand_array} / {!rand_int_array} straight into
    the buffer. *)
and compile_intrinsic st pre (results : Value.t list) name (args : Value.t list) : code =
  let int_ = operand st pre Exec.Ints
  and float_ = operand st pre Exec.Floats
  and buf = operand st pre Exec.Bufs in
  match (name, args) with
  | "fill_rand", [ b; seed ] ->
      let sb = buf b and ss = int_ seed in
      fun st ->
        charge st host_op_cost;
        (* [0 + 1 * u] is [u] for every draw [u] in [0, 1) *)
        fill_uniform st.env sb ss ~lo:0. ~span:1.
  | "fill_rand_range", [ b; seed; lo; hi ] ->
      let sb = buf b and ss = int_ seed and slo = float_ lo and shi = float_ hi in
      fun st ->
        charge st host_op_cost;
        let e = st.env in
        let lo = e.Exec.floats.(slo) in
        fill_uniform e sb ss ~lo ~span:(e.Exec.floats.(shi) -. lo)
  | "fill_int_rand", [ b; seed; bound ] ->
      let sb = buf b and ss = int_ seed and sbound = int_ bound in
      fun st ->
        charge st host_op_cost;
        let e = st.env in
        let bound = e.Exec.ints.(sbound) and b = e.Exec.bufs.(sb) in
        if bound <= 0 && b.Memory.len > 0 then
          host_fail "fill_int_rand: bound %d is not positive" bound;
        let rng = Pgpu_support.Rng.create e.Exec.ints.(ss) in
        Memory.fill_i b (fun _ -> Pgpu_support.Rng.int rng bound)
  | "fill_const", [ b; c ] ->
      let sb = buf b and sf = float_ c and si = int_ c in
      fun st ->
        charge st host_op_cost;
        let e = st.env in
        let b = e.Exec.bufs.(sb) in
        if Types.is_float b.Memory.elt then begin
          let x = e.Exec.floats.(sf) in
          Memory.fill_f b (fun _ -> x)
        end
        else begin
          let n = e.Exec.ints.(si) in
          Memory.fill_i b (fun _ -> n)
        end
  | "fill_seq", [ b ] ->
      let sb = buf b in
      fun st ->
        charge st host_op_cost;
        Memory.fill_i st.env.Exec.bufs.(sb) Fun.id
  | "print_i32", [ v ] ->
      let sv = int_ v in
      fun st ->
        charge st host_op_cost;
        let n = st.env.Exec.ints.(sv) in
        Logs.app (fun m -> m "%d" n)
  | "print_f32", [ v ] ->
      let sv = float_ v in
      fun st ->
        charge st host_op_cost;
        let x = st.env.Exec.floats.(sv) in
        Logs.app (fun m -> m "%g" x)
  | _ ->
      fun _ ->
        host_fail "unknown intrinsic %S with %d args and %d results" name (List.length args)
          (List.length results)

(** A kernel region's host code compiles in order, so each host value
    has its slot before the launches that read it. *)
and compile_region st (block : Instr.block) : region =
  let steps =
    List.mapi
      (fun j i ->
        match i with
        | Instr.Parallel { level = Instr.Blocks; _ } -> Launch j
        | _ -> Host (compile_instr st i))
      block
  in
  let free_bufs, written =
    if not st.config.tune then ([||], [||])
    else begin
      let written = written_values block in
      let frees =
        List.filter (fun (v : Value.t) -> Types.is_memref v.Value.ty) (Instr.free_values block)
      in
      let slots vs = Array.of_list (List.map (Exec.slot st.env) vs) in
      (slots frees, slots (List.filter (Value.Tbl.mem written) frees))
    end
  in
  { block; steps = Array.of_list steps; nested = has_nested_site block; free_bufs; written }

and compile_wrapper st ~wid ~name (body : Instr.block) : wrapper =
  let alternatives, blocks =
    match body with
    | [ Instr.Alternatives { aid; descs; regions } ] -> (Some (aid, descs), regions)
    | _ -> (None, [ body ])
  in
  let regions = Array.of_list (List.map (compile_region st) blocks) in
  let signature_slots =
    if not st.config.tune then [||]
    else
      Instr.free_values body |> List.sort Value.compare
      |> List.map (fun (v : Value.t) ->
             match Hashtbl.find_opt st.env.Exec.index v.Value.id with
             | Some s when Exec.bank v.Value.ty = Exec.Ints -> s
             | _ -> -1)
      |> Array.of_list
  in
  let khash =
    if st.config.tune && Cache.enabled st.config.cache then
      Instr.hash_block ~closed:true body
    else 0
  in
  { wid; name; alternatives; regions; signature_slots; khash }

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(** Run function [fname] of module [m] with the given arguments: bind
    them, compile the function's host code (every host value gets its
    slot), then run it. Returns the function results and the final
    state (composite time, launch records). *)
let run ?reference ?(fname = "main") config (m : Instr.modul) (args : Exec.rv list) =
  let f = Instr.find_func m fname in
  if List.length f.Instr.params <> List.length args then
    host_fail "%s expects %d arguments, got %d" fname (List.length f.Instr.params)
      (List.length args);
  let st = create ?reference config in
  List.iter2
    (fun p a -> try Exec.bind st.env p a with Failure msg -> raise (Host_error msg))
    f.Instr.params args;
  let code, term = compile_block st f.Instr.body in
  let cache_on = Cache.enabled config.cache in
  let th0, tm0, _ = if cache_on then Cache.ns_stats config.cache "tdo" else (0, 0, 0) in
  (* launches report their own faults as device errors, so an access
     fault that reaches here is the host program's *)
  match exec_code code st with
  | exception Memory.Out_of_bounds msg -> raise (Host_error msg)
  | () -> (
      match term with
      | Some (Instr.Return vs) ->
          let vs = List.map (Exec.lookup st.env) vs in
          (* per-run TDO cache telemetry (deltas over this run) and
             write-back; gated on an enabled cache so default traces
             are unchanged *)
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
      | _ -> host_fail "%s did not return" fname)

(** Launch records in program order. *)
let records st = List.rev st.records

let composite_seconds st = st.clock.composite

let buffer_contents rv =
  match rv with
  | Exec.UB b -> Memory.to_float_list b
  | _ -> host_fail "expected a buffer result"

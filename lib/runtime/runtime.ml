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
          used by sharded launches and by the TDO trial batch. Results
          are bit-identical for every value of [jobs]. A race detector
          keeps launches unsharded. *)
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
    (barrier-fissioned on a CPU target, else as given) and what feeds
    the timing model: the backend statistics of that region and, on a
    CPU target, the vectorizable share of the grid-level parallel at
    each position of it ({!Cpu_timing.vector_fraction}; empty on a
    GPU). Every launch of the site, trials included, runs its compiled
    kernels. *)
type site = {
  lowered : Instr.block;
  kernels : Compile.t option array;
      (** the compiled grid-level parallel at each position of
          [lowered]; [None] elsewhere, and everywhere on a run with a
          reference runner *)
  stats : Backend.kernel_stats;
  vector_fractions : float array;
}

(** A per-block runner factory, in the shape of [Compile.runner]. *)
type reference = env:Exec.env -> Instr.instr -> Exec.runner

(** Simulated composite seconds. A record of one float field holds it
    unboxed, so a charge allocates nothing. *)
type clock = { mutable composite : float }

type state = {
  config : config;
      (** in a TDO trial, its [tracer] is the buffer of the trial's own
          events ([cpu:fission]) *)
  reference : reference option;
      (** runs every launch in place of the compiled engine, trials
          included: the seam the differential tests put their
          reference interpreter in *)
  machine : Exec.machine;
  env : Exec.env;
      (** the register file; every host value of the run has its slot
          before the first host instruction runs *)
  frames : Compile.frames;  (** compiled-kernel register files on [machine] *)
  mutable records : launch_record list;
  clock : clock;
  launch_tracer : Tracer.t;
      (** where launches and memcpys are traced: the run's tracer, or
          a trial's private buffer, which adopting the trial appends to
          the run's *)
  trial : float option;
      (** in a TDO trial's private state, which samples every launch:
          the timestamp of the trial's own events, the live clock when
          its search started *)
  choices : (int * string, int) Hashtbl.t;
      (** (alternatives id, launch signature) -> chosen region. The
          signature buckets the integer inputs of the launch site by
          magnitude, so sites whose grids shrink across a host loop
          (e.g. gaussian, lud, nw) are re-tuned when the scale changes
          but not on every iteration. *)
  sites : (int * int * int list, site) Hashtbl.t;
      (** (wrapper id, alternative, resolved thread extents) -> the
          site as launched; shared with trials, which may resolve
          sites from several domains, under [sites_lock] *)
  sites_lock : Mutex.t;
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
      (** the structural hash of the body, the persistent TDO key
          (computed only when tuning with the cache on) *)
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
    records = [];
    clock = { composite = 0. };
    launch_tracer = config.tracer;
    trial = None;
    choices = Hashtbl.create 8;
    sites = Hashtbl.create 8;
    sites_lock = Mutex.create ();
  }

exception Host_error of string

let host_fail fmt = Fmt.kstr (fun s -> raise (Host_error s)) fmt

let[@inline] charge st seconds = st.clock.composite <- st.clock.composite +. seconds

(* trace timestamps are simulated composite time, in microseconds (the
   unit of the Chrome trace-event format) *)
let ticks st = st.clock.composite *. 1e6

(* the timestamp of a TDO trial's own events, or of the run's *)
let stamp st = match st.trial with Some ts -> ts | None -> ticks st

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

(** A CPU target runs kernel regions barrier-fissioned, except under a
    dynamic race detector: fission removes the barriers the detector's
    epochs hang on, so a race-checked run keeps the region as given. *)
let fissions st =
  st.config.target.Descriptor.kind = Descriptor.Cpu && st.config.racecheck = None

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
      Tracer.instant_at st.config.tracer ~cat:"cpu" ~ts:(stamp st)
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
    replaying a stale region; GPU sites do not depend on them. A site
    is resolved outside the lock: two trials racing on one key may
    both resolve it — wasted work, never a wrong answer. *)
let site st ~wid ~alt (region : Instr.block) : site =
  let key = (wid, alt, if fissions st then thread_extents st region else []) in
  match Mutex.protect st.sites_lock (fun () -> Hashtbl.find_opt st.sites key) with
  | Some s -> s
  | None ->
      let target = st.config.target in
      let lowered = if fissions st then cpu_lower st ~wid ~alt region else region in
      let compile = function
        | Instr.Parallel { level = Instr.Blocks; _ } as p when Option.is_none st.reference ->
            Some (Compile.compile p)
        | _ -> None
      in
      let kernels = Array.of_list (List.map compile lowered) in
      let vector_fractions =
        match target.Descriptor.kind with
        | Descriptor.Gpu -> [||]
        | Descriptor.Cpu ->
            Array.of_list (List.map (fun i -> Cpu_timing.vector_fraction [ i ]) lowered)
      in
      let s = { lowered; kernels; stats = Backend.analyze target lowered; vector_fractions } in
      Mutex.protect st.sites_lock (fun () -> Hashtbl.replace st.sites key s);
      s

(** Launch the grid-level parallel at position [j] of [site] through
    the grid loop and account for it: charged to the composite time,
    traced and recorded, on a trial's private clock, buffer and
    records in a trial. Returns the launch's simulated seconds. A
    configuration the target cannot run raises [Timing.Infeasible] in
    a trial, which rejects the candidate, and is the device's error in
    a commit. Every device error the launch raises, an out-of-bounds
    access included, names the kernel ([kernel NAME: ...]), so a
    trial's fault does too. *)
let launch st ~name ~wid ~alt (site : site) j =
  let p = List.nth site.lowered j in
  let stats = site.stats in
  let mode : Exec.mode =
    if st.trial <> None || not st.config.functional then `Sample st.config.sample_blocks else `All
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
  let runner =
    match site.kernels.(j) with
    | Some kernel -> Compile.runner ~frames:st.frames kernel ~env:st.env
    | None -> (Option.get st.reference) ~env:st.env p
  in
  let target = st.config.target in
  let result, breakdown =
    (* a fault inside the kernel is the device's *)
    try
      st.machine.Exec.shared_as_global <- offload;
      let result = Exec.run_grid ~jobs:st.config.jobs st.machine ~mode ~env:st.env p runner in
      st.machine.Exec.shared_as_global <- false;
      let breakdown =
        match target.Descriptor.kind with
        | Descriptor.Gpu -> Timing.estimate target ~demand result
        | Descriptor.Cpu ->
            Cpu_timing.estimate target ~demand ~vector_fraction:site.vector_fractions.(j) result
      in
      (result, breakdown)
    with
    | Exec.Device_error msg | Memory.Out_of_bounds msg ->
        let prefix = "kernel " ^ name ^ ": " in
        raise (Exec.Device_error (if String.starts_with ~prefix msg then msg else prefix ^ msg))
    | Timing.Infeasible msg when st.trial = None -> Exec.device_fail "kernel %s: %s" name msg
  in
  let seconds = breakdown.Timing.seconds in
  let t0 = ticks st in
  charge st seconds;
  Tracer.span_at st.launch_tracer ~cat:"kernel" ~ts:t0 ~dur:(seconds *. 1e6)
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
  Tracer.instant_at st.launch_tracer ~cat:"bottleneck" ~ts:t0
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
    :: st.records;
  seconds

(** A trial's env for [r]: the three banks copied, the index shared
    (it is read-only while the run executes), and the buffers [r] may
    write (see {!written_values}) copied into [scratch], once per buffer
    id, with every free value of [r] bound to such a buffer rebound to
    its copy: aliased arguments still share one buffer, as in the
    commit. [scratch] holds a worker slot's private copy of each buffer,
    by id: made by its first trial that writes the buffer, refilled
    from the live buffer by each later one, as the slot runs one trial
    at a time.
    Scalars live in the copied banks; the buffers [r] only reads stay
    shared, and so do the buffers it cannot reach: a region reaches
    memory only through its free values and its own allocations, and
    no memref holds a memref, so a trial's functional writes land in
    private arrays without ever touching the live data. As with the
    copy-on-write machine clone, the live side must stay idle while
    the trial runs: [search] touches neither the live env nor its
    buffers until every trial is done. Returns the env and the copies,
    by buffer id. *)
let clone_trial_env scratch (env : Exec.env) (r : region) =
  let bufs = Array.copy env.Exec.bufs in
  let copies = Hashtbl.create 8 in
  Array.iter
    (fun s ->
      let (b : Memory.buf) = bufs.(s) in
      if not (Hashtbl.mem copies b.Memory.id) then
        let copy =
          match Hashtbl.find_opt scratch b.Memory.id with
          | Some copy ->
              Memory.copy ~dst:copy ~src:b b.Memory.len;
              copy
          | None ->
              let data =
                match b.Memory.data with
                | Memory.I a -> Memory.I (Array.copy a)
                | Memory.F a -> Memory.F (Array.copy a)
              in
              let copy = { b with Memory.data } in
              Hashtbl.replace scratch b.Memory.id copy;
              copy
        in
        Hashtbl.replace copies b.Memory.id copy)
    r.written;
  Array.iter
    (fun s ->
      match Hashtbl.find_opt copies bufs.(s).Memory.id with
      | Some b -> bufs.(s) <- b
      | None -> ())
    r.free_bufs;
  ( { env with Exec.ints = Array.copy env.Exec.ints; floats = Array.copy env.Exec.floats; bufs },
    copies )

(** Trace a committed TDO choice; [cached] when the persistent cache
    answered it. *)
let choice_event st ~name ~signature ~cached k spec seconds =
  Tracer.instant_at st.config.tracer ~cat:"tdo" ~ts:(stamp st)
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

(** Make the live state [st] what committing the trial [ts], with
    buffer [copies] by id, would have made it, without running the
    region again: the int and float banks, the buffer bank with each
    buffer the trial copied replaced by its copy in every slot that
    holds it (a host value outside the region can alias one, under
    another SSA value), the machine ({!Exec.adopt}), the clock, and
    the trial's launch records and launch events, in launch order. *)
let adopt st ts copies =
  let e = st.env and te = ts.env in
  Array.blit te.Exec.ints 0 e.Exec.ints 0 (Array.length te.Exec.ints);
  Array.blit te.Exec.floats 0 e.Exec.floats 0 (Array.length te.Exec.floats);
  Array.iteri
    (fun s (b : Memory.buf) ->
      e.Exec.bufs.(s) <- Option.value (Hashtbl.find_opt copies b.Memory.id) ~default:b)
    te.Exec.bufs;
  Exec.adopt st.machine ~clone:ts.machine;
  st.clock.composite <- ts.clock.composite;
  st.records <- ts.records @ st.records;
  Tracer.append st.launch_tracer (Tracer.events ts.launch_tracer)

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
          seconds := !seconds +. launch st ~name ~wid ~alt s j)
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

(** Persistent TDO cache key for a launch site: the structural hash
    of the wrapper body (stable across processes) joined with the
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
    decision. Returns the chosen region, and whether its search
    adopted the winning trial ({!adopt}): the region has then run, and
    committing it again would run it twice. *)
and choose_alternative st ~name ~wid ~signature ?ckey (aid : int) (descs : string list)
    (regions : region array) =
  match Hashtbl.find_opt st.choices (aid, signature) with
  | Some k -> (k, false)
  | None ->
      let ((k, _) as choice) =
        if not st.config.tune then (min st.config.fixed_choice (Array.length regions - 1), false)
        else
          match cached_choice st ckey (Array.length regions) with
          | Some (k, seconds) ->
              Log.debug (fun m ->
                  m "TDO: kernel %s chose alternative %d (%s) from cache" name k
                    (List.nth descs k));
              choice_event st ~name ~signature ~cached:true k (List.nth descs k) seconds;
              (k, false)
          | None -> search st ~name ~wid ~signature ?ckey descs regions
      in
      Hashtbl.replace st.choices (aid, signature) k;
      choice

(** The TDO search: one trial per candidate, batched on the
    persistent pool ([jobs = 1] runs the batch inline), then a stable
    argmin — strictly-less in index order — so the committed choice is
    identical however the trials were scheduled. Each trial records
    its events ([cpu:fission], [tdo:trial]) in a buffer of its own,
    and the buffers join the run's trace in candidate order, so a
    traced search schedules its trials as an untraced one does. Each
    worker slot keeps one trial copy of each buffer the candidates
    write, and all die with the call.
    Each worker slot also holds its best adoptable trial so far
    (lowest seconds, then lowest index), whose buffer copies leave the
    slot's scratch so that its later trials cannot refill them; a
    replaced holder puts its copies back. When the winner is held, the
    live state adopts it, after the [tdo:choice] event; the other
    holders die with the call. *)
and search st ~name ~wid ~signature ?ckey descs regions =
  let jobs = st.config.jobs and n = Array.length regions in
  let slots = max 1 (min jobs n) in
  let scratch = Array.init slots (fun _ -> Hashtbl.create 8) in
  let held = Array.make slots None in
  let trials = Array.make n (infinity, None, []) in
  Pgpu_support.Pool.run (Pgpu_support.Pool.get ()) ~jobs n (fun ~slot k ->
      let t, fault, events, adoptable =
        trial st ~scratch:scratch.(slot) ~name ~wid ~descs k regions.(k)
      in
      trials.(k) <- (t, fault, events);
      (* a slot runs its trials in index order, so a tie keeps the held one *)
      Option.iter
        (fun (ts, copies) ->
          let better = match held.(slot) with Some (t', _, _, _) -> t < t' | None -> true in
          if better then begin
            Hashtbl.iter (fun id _ -> Hashtbl.remove scratch.(slot) id) copies;
            Option.iter
              (fun (_, _, _, old) -> Hashtbl.iter (Hashtbl.replace scratch.(slot)) old)
              held.(slot);
            held.(slot) <- Some (t, k, ts, copies)
          end)
        adoptable);
  let trials = Array.to_list trials in
  List.iter (fun (_, _, events) -> Tracer.append st.config.tracer events) trials;
  let best = ref (-1) and best_t = ref infinity in
  List.iteri
    (fun k (t, _, _) ->
      if t < !best_t then begin
        best := k;
        best_t := t
      end)
    trials;
  if !best < 0 then begin
    (* every candidate was rejected: a fault among them is the
       kernel's, and reported as the commit would have reported it *)
    match List.find_map (fun (_, fault, _) -> fault) trials with
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
  let winner =
    Array.find_map
      (function Some (_, k, ts, copies) when k = !best -> Some (ts, copies) | _ -> None)
      held
  in
  Option.iter (fun (ts, copies) -> adopt st ts copies) winner;
  (!best, Option.is_some winner)

(** One trial: candidate [k] runs through the same
    [exec_kernel_region] as the commit, on a private state — a
    machine clone ({!Exec.clone_machine}, which never race-checks),
    its own register file with private copies of the buffers the
    region can write ({!clone_trial_env}), its own frames, a clock
    that starts at the live one, its own launch records, and its own
    event buffers when the run is traced — so it sees exactly the
    pre-search machine the commit then runs on, and leaves no trace on
    it. The live machine stays idle until [search] is done with every
    trial state, as the clone's source-idle rule requires. Returns the
    candidate's simulated seconds, [infinity] when it is infeasible or
    faults, the fault's message, the trial's own events, and the
    trial's state and buffer copies when the live state may adopt it:
    when it executed every block the commit would (the commit samples
    as trials do, or no grid the trial launched had more blocks than a
    sample), and no race detector watches the commit. *)
and trial st ~scratch ~name ~wid ~descs k region =
  let machine = Exec.clone_machine st.machine in
  let private_tracer () =
    if Tracer.enabled st.config.tracer then Tracer.create () else Tracer.disabled
  in
  let tracer = private_tracer () in
  let env, copies = clone_trial_env scratch st.env region in
  let ts =
    {
      st with
      config = { st.config with tracer };
      machine;
      env;
      frames = Compile.frames machine;
      records = [];
      clock = { composite = st.clock.composite };
      launch_tracer = private_tracer ();
      trial = Some (stamp st);
    }
  in
  let t, fault =
    match exec_kernel_region ts ~name ~wid ~alt:k region with
    | t -> (t, None)
    | exception Timing.Infeasible _ -> (infinity, None)
    | exception Exec.Device_error msg -> (infinity, Some msg)
  in
  Tracer.instant_at tracer ~cat:"tdo" ~ts:(stamp st)
    ~args:
      [
        ("kernel", Json.Str name);
        ("alternative", Json.Int k);
        ("spec", Json.Str (List.nth descs k));
        ("seconds", Json.Float t);
        ("feasible", Json.Bool (Float.is_finite t));
      ]
    "tdo:trial";
  let ran_all =
    (not st.config.functional)
    || List.for_all (fun r -> r.result.Exec.nblocks <= st.config.sample_blocks) ts.records
  in
  let adoptable = Float.is_finite t && ran_all && st.config.racecheck = None in
  (t, fault, Tracer.events tracer, if adoptable then Some (ts, copies) else None)

and exec_wrapper st (w : wrapper) =
  let name = w.name and wid = w.wid in
  match w.alternatives with
  | Some (aid, descs) ->
      let signature = if st.config.tune then launch_signature st w else "" in
      let ckey = if st.config.tune then tdo_cache_key st w ~signature descs else None in
      let k, adopted = choose_alternative st ~name ~wid ~signature ?ckey aid descs w.regions in
      if not adopted then ignore (exec_kernel_region st ~name ~wid ~alt:k w.regions.(k))
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

(** The name of a kernel that [i] launches, at any depth. *)
let nested_launch (i : Instr.instr) =
  let inner = ref None in
  Instr.iter_deep
    (function Instr.Gpu_wrapper { name; _ } when !inner = None -> inner := Some name | _ -> ())
    [ i ];
  !inner

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
          Tracer.span_at st.launch_tracer ~cat:"memcpy" ~ts:t0 ~dur:(seconds *. 1e6)
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
    has its slot before the launches that read it. A kernel launch
    inside the region of kernel [name] fails when it runs: no
    verified region holds one (the frontend rejects a launch from
    device code), and a trial must not reach the live choice table. *)
and compile_region st ~name (block : Instr.block) : region =
  let steps =
    List.mapi
      (fun j i ->
        match i with
        | Instr.Parallel { level = Instr.Blocks; _ } -> Launch j
        | _ -> (
            match nested_launch i with
            | Some inner ->
                Host (fun _ -> host_fail "kernel %s launches kernel %s from its region" name inner)
            | None -> Host (compile_instr st i)))
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
  { block; steps = Array.of_list steps; free_bufs; written }

and compile_wrapper st ~wid ~name (body : Instr.block) : wrapper =
  let alternatives, blocks =
    match body with
    | [ Instr.Alternatives { aid; descs; regions } ] -> (Some (aid, descs), regions)
    | _ -> (None, [ body ])
  in
  let regions = Array.of_list (List.map (compile_region st ~name) blocks) in
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
      Instr.hash_block body
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

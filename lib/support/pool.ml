(** Persistent worker-domain pool.

    OCaml 5 domains are heavyweight (each spawn maps a minor heap and
    registers with the runtime), so spawning them per parallel call
    would charge a fixed fee to every candidate expansion, every TDO
    search and every sharded launch. This pool spawns each worker domain once per process and keeps it
    parked on a condition variable between batches; submitting a batch
    costs two lock round-trips, not [jobs - 1] domain spawns.

    Batches are indexed task sets executed under an atomic work-stealing
    cursor, so uneven item costs balance out. The caller participates
    as a worker, and exceptions are captured per index with the
    lowest-index one re-raised after the batch completes — the same
    observable behaviour as a sequential loop that stops at the first
    failing index, regardless of domain scheduling.

    Each participating worker is handed a dense slot number in
    [0, jobs): slot 0 is the caller, slots 1.. are pool domains that won
    a participation ticket. Callers that need per-worker state (scratch
    machines, private accumulators) index an array of size [jobs] by
    that slot.

    Re-entrancy: the pool runs one batch at a time. A batch submitted
    while another is in flight — e.g. a parallel TDO trial whose launch
    tries to shard its grid — runs inline on the submitting domain
    (slot 0, sequential). Parallel callers therefore compose without
    deadlock, and the outermost parallel level wins the workers. *)

type batch = {
  run : int -> int -> unit;  (** [run slot index]; must not raise *)
  n : int;
  next : int Atomic.t;  (** work-stealing cursor *)
  completed : int Atomic.t;
  tickets : int Atomic.t;  (** participation slots handed out *)
  max_slots : int;  (** active workers allowed, = [jobs] of the batch *)
}

type t = {
  mutex : Mutex.t;
  work : Condition.t;  (** signalled when a batch is published *)
  finished : Condition.t;  (** signalled when a batch completes *)
  mutable current : batch option;
  mutable gen : int;  (** bumped per batch so sleepers distinguish batches *)
  mutable workers : int;  (** domains spawned so far *)
  mutable domains : unit Domain.t list;
  mutable busy : bool;  (** a batch is in flight *)
  mutable stop : bool;  (** process exit: workers drain and leave *)
}

let create () =
  {
    mutex = Mutex.create ();
    work = Condition.create ();
    finished = Condition.create ();
    current = None;
    gen = 0;
    workers = 0;
    domains = [];
    busy = false;
    stop = false;
  }

(* The process-global pool shared by every subsystem (created eagerly:
   construction is a mutex and two condition variables, no domains). *)
let global = create ()

let get () = global

let size t =
  Mutex.lock t.mutex;
  let n = t.workers in
  Mutex.unlock t.mutex;
  n

(* Test seam: lets single-core CI exercise the parallel code paths
   (sharded launches, parallel TDO, worker handoff) by pretending more
   cores exist. Oversubscribed domains are slower but correct. *)
let domain_count_override : int option Atomic.t = Atomic.make None
let override_domain_count o = Atomic.set domain_count_override o

(** Parallelism actually worth using for a requested [jobs]: capped at
    the runtime's recommended domain count, so [--jobs 4] on a
    single-core container degrades to sequential execution instead of
    time-slicing four domains over one CPU (results are bit-identical
    either way; only wall-clock differs). *)
let effective_jobs jobs =
  let cores =
    match Atomic.get domain_count_override with
    | Some n -> n
    | None -> Domain.recommended_domain_count ()
  in
  max 1 (min jobs cores)

(** Drain the cursor: pull indices until the batch is exhausted. *)
let participate (b : batch) ~slot =
  let rec go () =
    let i = Atomic.fetch_and_add b.next 1 in
    if i < b.n then begin
      b.run slot i;
      ignore (Atomic.fetch_and_add b.completed 1);
      go ()
    end
  in
  go ()

let rec worker_loop t last_gen =
  Mutex.lock t.mutex;
  while (not t.stop) && (t.gen = last_gen || t.current = None) do
    Condition.wait t.work t.mutex
  done;
  if t.stop then Mutex.unlock t.mutex
  else begin
    let gen = t.gen in
    let b = Option.get t.current in
    Mutex.unlock t.mutex;
    let slot = Atomic.fetch_and_add b.tickets 1 in
    if slot < b.max_slots then participate b ~slot;
    (* publish completion under the lock so the submitter can't check
       the counter and sleep between our increment and our broadcast *)
    Mutex.lock t.mutex;
    if Atomic.get b.completed >= b.n then Condition.broadcast t.finished;
    Mutex.unlock t.mutex;
    worker_loop t gen
  end

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.work;
  let ds = t.domains in
  t.domains <- [];
  Mutex.unlock t.mutex;
  List.iter Domain.join ds

let exit_hook_installed = Atomic.make false

(* must be called with [t.mutex] held *)
let ensure_workers t target =
  if t.workers < target then begin
    if not (Atomic.exchange exit_hook_installed true) then
      (* park-forever workers would otherwise keep the runtime alive *)
      at_exit (fun () -> shutdown global);
    let gen = t.gen in
    while t.workers < target do
      t.workers <- t.workers + 1;
      t.domains <- Domain.spawn (fun () -> worker_loop t gen) :: t.domains
    done
  end

(** [run t ~jobs n f] executes [f ~slot i] for every [i] in [0, n), on
    up to [jobs] workers (the calling domain included). Returns when
    every index has completed; the lowest-index exception raised by [f]
    is re-raised in the caller. Runs inline (slot 0) when [jobs <= 1],
    [n <= 1], or a batch is already in flight. *)
let run t ~jobs n (f : slot:int -> int -> unit) : unit =
  if n <= 0 then ()
  else begin
    let errs = Array.make n None in
    let guarded slot i = try f ~slot i with e -> errs.(i) <- Some e in
    let inline () =
      for i = 0 to n - 1 do
        guarded 0 i
      done
    in
    let jobs = effective_jobs jobs in
    if jobs <= 1 || n <= 1 then inline ()
    else begin
      Mutex.lock t.mutex;
      if t.busy || t.stop then begin
        (* nested (or shutting-down) submission: run on this domain *)
        Mutex.unlock t.mutex;
        inline ()
      end
      else begin
        t.busy <- true;
        ensure_workers t (min jobs n - 1);
        let b =
          {
            run = guarded;
            n;
            next = Atomic.make 0;
            completed = Atomic.make 0;
            tickets = Atomic.make 1 (* slot 0 is the caller's *);
            max_slots = min jobs n;
          }
        in
        t.gen <- t.gen + 1;
        t.current <- Some b;
        Condition.broadcast t.work;
        Mutex.unlock t.mutex;
        participate b ~slot:0;
        Mutex.lock t.mutex;
        while Atomic.get b.completed < b.n do
          Condition.wait t.finished t.mutex
        done;
        t.current <- None;
        t.busy <- false;
        Mutex.unlock t.mutex
      end
    end;
    Array.iter (function Some e -> raise e | None -> ()) errs
  end

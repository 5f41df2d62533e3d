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

(** Per-subsystem log source ("pgpu.runtime"), for scoping [-v] debug
    output (e.g. TDO decisions) to the runtime. *)
val src : Logs.src

type launch_record = {
  kernel : string;
  wid : int;
  alternative : int option;  (** which alternatives region ran *)
  result : Exec.launch_result;
  stats : Backend.kernel_stats;
  breakdown : Timing.breakdown;
  bottleneck : Bottleneck.t;  (** attribution over [breakdown] + counters *)
  seconds : float;
}

type config = {
  target : Descriptor.t;
  functional : bool;
      (** execute every block of every launch (exact outputs); when
          false, large grids are sampled and only timing is meaningful *)
  sample_blocks : int;  (** blocks executed per launch when sampling *)
  jobs : int;
      (** host OCaml domains for the TDO trial batch, sharded GPU
          launches and the CPU backend's block execution; results are
          bit-identical at any value *)
  tune : bool;  (** timing-driven selection of alternatives *)
  fixed_choice : int;  (** alternatives region when not tuning *)
  tracer : Pgpu_trace.Tracer.t;
      (** launch/memcpy/TDO telemetry sink, timestamped in simulated
          composite time; [Tracer.disabled] (the default) = off *)
  cache : Pgpu_cache.Cache.t;
      (** persistent TDO cache: committed choices are stored under
          (kernel hash, target, launch signature, alternative descs),
          so a warm run skips trial execution entirely while
          reproducing the cold run's choices exactly;
          [Cache.disabled] (the default) = off *)
  racecheck : Pgpu_gpusim.Racecheck.t option;
      (** dynamic shared-memory race detector attached to the simulator
          for the whole run; [None] (the default) costs nothing *)
}

val default_config : Descriptor.t -> config

type state

exception Host_error of string

(** Deterministic input generation shared with the CPU reference
    implementations (the [fill_rand] intrinsic's stream). *)
val rand_array : int -> int -> float array

val rand_int_array : int -> int -> int -> int array

(** Simulated seconds charged per executed host instruction (every
    instruction of host code but a terminator, charged before it
    runs). *)
val host_op_cost : float

(** A per-block runner factory, in the shape of {!Compile.runner}. *)
type reference = env:Exec.env -> Instr.instr -> Exec.runner

(** Run function [fname] (default ["main"]) with the given arguments;
    returns the function results and the final state. The function's
    host code, alternatives regions included, is compiled for this
    run only: no compiled code outlives it. Every kernel
    launch, TDO trials included, runs on the compiled engine, or on
    [reference] when one is given: the seam through which the
    differential tests run the reference interpreter.
    @raise Host_error on a malformed host program or input, such as an
    allocation of a negative element count or a host access outside a
    buffer, when the faulty instruction executes.
    @raise Exec.Device_error on a fault inside a committed kernel
    launch, such as an access outside a buffer. A TDO trial that
    faults is rejected like an infeasible candidate instead. *)
val run :
  ?reference:reference ->
  ?fname:string ->
  config ->
  Instr.modul ->
  Exec.rv list ->
  Exec.rv list * state

(** Launch records in program order. *)
val records : state -> launch_record list

val composite_seconds : state -> float

(** Contents of a buffer-valued result. *)
val buffer_contents : Exec.rv -> float list

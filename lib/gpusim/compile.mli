(** The execution engine: slot-indexed closure kernels.

    One-time lowering from a verified kernel region (the grid-level
    [Parallel]) to a flat executable form:

    - every SSA value is numbered into a dense integer {e slot} backed
      by preallocated unboxed register files ([int array] /
      [float array] / [Memory.buf array]), one bank for uniform
      scalars and one per-lane bank for varying values — no hashtable
      environment, no [rv] boxing;
    - a launch allocates nothing per lane, and per block only a few
      words (the block allocator, a record per [__shared__] buffer):
      lane masks, induction lanes and [__shared__] arrays are owned by
      the register files, one set per node, made at first use;
    - a lane mask is its list of active lanes ({!Exec.mask}), and
      every lane loop works on those lanes only: a dense loop on a
      full mask, the list otherwise;
    - the region tree is flattened into arrays of OCaml closures
      (threaded code) executed by an indexed loop, with uniformity of
      every value and every branch decided once at compile time;
    - the performance model ({!Exec.count_op}, {!Exec.requests}) is
      invoked from the closures with exactly the event order of the
      tree-walking reference interpreter the tests keep as its oracle
      ([test/interp.ml]), so outputs, all counters, race reports and
      TDO choices are bit-identical to it.

    Compilation is per region: the runtime compiles each grid-level
    parallel of a launch site once, when it resolves the site, and
    every launch of the site, TDO trials included, reuses it. *)

open Pgpu_ir

(** A compiled kernel: closure arrays plus the slot-bank sizes needed
    to instantiate register files. Immutable and reusable across
    launches, machines and domains. *)
type t

(** Compile the grid-level parallel [p].
    @raise Exec.Device_error when [p] is not a blocks-level parallel. *)
val compile : Instr.instr -> t

(** Register files reused across the launches of one machine: a
    launch rebinds its kernel's instance instead of allocating a new
    one. A table belongs to whoever drives that machine (a runtime
    state, a TDO trial) and dies with it. *)
type frames

(** [frames m] is an empty register-file table for machine [m]. *)
val frames : Exec.machine -> frames

(** The per-block runner of a compiled kernel, for {!Exec.run_grid}.
    Every machine it is readied on gets register files with the kernel
    arguments of [env] loaded into their slots. On the machine of
    [frames] it reuses the kernel's instance in that table — a runtime
    state's machine and a TDO trial's have one, kept across launches;
    shard wrappers instantiate their own per launch. [env] must bind
    every free value of the kernel region; it is only read. *)
val runner : ?frames:frames -> t -> env:Exec.env -> Exec.runner

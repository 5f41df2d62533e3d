(** Backend kernel statistics: the ptxas-feedback stand-in.

    The paper's multi-versioning consults the real backend for the
    statistics that decide whether a coarsened replica is worth
    keeping — register usage and spilling. [analyze] reproduces them
    by lowering the kernel's per-thread region to the virtual ISA and
    running register allocation against the target's budget, and adds
    the static shared-memory demand (which block coarsening
    multiplies) plus ILP/MLP estimates that feed the latency term of
    the timing model. *)

open Pgpu_ir

type kernel_stats = {
  regs_per_thread : int;
  spilled : int;  (** registers spilled to local memory *)
  spill_instructions : int;
  static_shmem : int;  (** bytes of static shared memory per block *)
  ilp : float;  (** independent instructions per dependency step *)
  mlp : float;  (** independent loads per dependent-load step *)
  n_instructions : int;  (** virtual-ISA instructions in the thread body *)
}

let pp_stats ppf s =
  Fmt.pf ppf "regs=%d spills=%d shmem=%dB ilp=%.1f mlp=%.1f" s.regs_per_thread s.spilled
    s.static_shmem s.ilp s.mlp

(** The body of the first thread-level parallel loop in the region —
    the per-thread code that the register allocator models. *)
let find_threads_body (region : Instr.block) : Instr.block option =
  let r = ref None in
  Instr.iter_deep
    (fun i ->
      match i with
      | Instr.Parallel { level = Instr.Threads; body; _ } ->
          if Option.is_none !r then r := Some body
      | _ -> ())
    region;
  !r

(** Threads actually execute more than one outstanding instruction and
    load; the hardware bounds how many (scoreboard slots, outstanding
    load queue). *)
let max_ilp = 8.
let max_mlp = 8.

(** ILP and MLP estimates of the lowered per-thread code: instructions
    (resp. loads) divided by the depth of the longest dependency (resp.
    load-to-address) chain. *)
let parallelism (p : Visa.program) : float * float =
  let nv = max 1 p.Visa.nvregs in
  let depth = Array.make nv 0. and ldepth = Array.make nv 0. in
  let ops = ref 0 and crit = ref 1. in
  let loads = ref 0 and lcrit = ref 1. in
  Array.iter
    (fun (vi : Visa.vinstr) ->
      let dsrc = List.fold_left (fun m r -> Float.max m depth.(r)) 0. vi.Visa.srcs in
      let lsrc = List.fold_left (fun m r -> Float.max m ldepth.(r)) 0. vi.Visa.srcs in
      let d, l =
        match vi.Visa.kind with
        | Visa.Fp32 | Visa.Fp64 | Visa.Int | Visa.Sfu ->
            incr ops;
            let d = dsrc +. 1. in
            crit := Float.max !crit d;
            (d, lsrc)
        | Visa.Mem_global Visa.Read | Visa.Mem_shared Visa.Read ->
            incr loads;
            let l = lsrc +. 1. in
            lcrit := Float.max !lcrit l;
            (dsrc +. 1., l)
        | _ -> (dsrc, lsrc)
      in
      List.iter
        (fun r ->
          depth.(r) <- d;
          ldepth.(r) <- l)
        vi.Visa.defs)
    p.Visa.code;
  let ilp = Float.min max_ilp (Float.max 1. (float_of_int !ops /. !crit)) in
  let mlp =
    if !loads = 0 then 1.
    else Float.min max_mlp (Float.max 1. (float_of_int !loads /. !lcrit))
  in
  (ilp, mlp)

(** Registers no kernel goes below: ABI-reserved state (thread ids,
    stack pointer). *)
let min_regs_per_thread = 4

let analyze (t : Descriptor.t) (region : Instr.block) : kernel_stats =
  let static_shmem = ref 0 in
  Instr.iter_deep
    (fun i ->
      match i with
      | Instr.Alloc_shared { elt; size; _ } ->
          static_shmem := !static_shmem + (size * Types.byte_size elt)
      | _ -> ())
    region;
  let body = Option.value (find_threads_body region) ~default:region in
  let p = Visa.lower body in
  let ra = Regalloc.allocate ~budget:t.Descriptor.max_regs_per_thread p in
  let ilp, mlp = parallelism p in
  {
    regs_per_thread = max min_regs_per_thread ra.Regalloc.regs_used;
    spilled = ra.Regalloc.spilled;
    spill_instructions = ra.Regalloc.spill_instructions;
    static_shmem = !static_shmem;
    ilp;
    mlp;
    n_instructions = Array.length p.Visa.code;
  }

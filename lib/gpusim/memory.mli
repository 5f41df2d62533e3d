(** Simulated memories: buffers carry their contents (for functional
    execution) and a simulated base byte address (for the cache and
    coalescing models). *)

open Pgpu_ir

type data = I of int array | F of float array

type buf = {
  id : int;
  space : Types.space;
  elt : Types.t;
  len : int;
  data : data;
  base : int;  (** simulated base byte address *)
}

(** Address-space allocator handing out non-overlapping simulated
    addresses (256-byte aligned, as CUDA allocators do). *)
type allocator

val allocator : unit -> allocator
val alloc : allocator -> Types.space -> Types.t -> int -> buf

val recycle : allocator -> Types.space -> buf -> buf
(** [recycle a space b] is [alloc a space b.elt b.len] — the same id
    and address from [a], zero contents — backed by [b]'s array
    instead of a new one. [b] must be dead: the engine recycles a
    block's [__shared__] arrays for the next block. *)

val clone_allocator : allocator -> allocator
(** Independent copy of the allocator position (for private trial
    machines). *)

val block_allocator : int -> allocator
(** [block_allocator lb] is a fresh allocator for the device-side
    allocations of block [lb]: deterministic per linear block index,
    with address windows and id ranges disjoint from the host allocator
    and from every other block. Makes device allocation independent of
    block execution order, so sharded launches are bit-identical to
    sequential ones. *)

val elt_size : buf -> int

(** An access outside a buffer, or a copy longer than either buffer.
    Raised where the access happens; the runtime reports it as a
    device error when a kernel makes it and as a host error when the
    host program does. *)
exception Out_of_bounds of string

(** @raise Out_of_bounds on an index outside [[0, len)] (the net that
    also catches transformation bugs). *)
val check_bounds : buf -> int -> unit

val get_f : buf -> int -> float
val get_i : buf -> int -> int
val set_f : buf -> int -> float -> unit
val set_i : buf -> int -> int -> unit

(** Byte address of element [idx]. *)
val addr : buf -> int -> int

(** Copy [count] elements (simulating cudaMemcpy).
    @raise Out_of_bounds when [count] is negative or exceeds either
    buffer. *)
val copy : dst:buf -> src:buf -> int -> unit

val fill_f : buf -> (int -> float) -> unit
val fill_i : buf -> (int -> int) -> unit
val to_float_list : buf -> float list

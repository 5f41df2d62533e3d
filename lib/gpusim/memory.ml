(** Simulated memories.

    Buffers carry their contents (for functional execution) and a
    simulated base byte address (for the cache/coalescing model).
    Integer and floating-point buffers are stored unboxed. *)

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

(** Address-space allocator: hands out non-overlapping simulated
    addresses so coalescing and cache behaviour is well-defined across
    buffers. *)
type allocator = { mutable next_addr : int; mutable next_id : int }

let allocator () = { next_addr = 4096; next_id = 0 }

let clone_allocator a = { next_addr = a.next_addr; next_id = a.next_id }

(** Deterministic per-block device allocator for shared-as-global
    offloading. Device-side allocations depend only on the linear block
    index, never on which blocks executed before this one or on which
    domain runs it — a prerequisite for sharded launches to be
    bit-identical to sequential ones. Blocks get disjoint 4 MiB address
    windows in a region far above host allocations (the simulator only
    compares addresses for cache-line/bank identity, so sparseness is
    free), and a disjoint id range so buffer identity stays unique
    process-wide. Bases remain 256-byte aligned, so bank-conflict
    counts match any other allocator placement. *)
let block_allocator lb =
  { next_addr = (1 lsl 40) + (lb * (1 lsl 22)); next_id = (min_int / 2) + (lb * (1 lsl 20)) }

let elt_size b = Types.byte_size b.elt

let alloc a space elt len =
  let data =
    match elt with
    | Types.F32 | Types.F64 -> F (Array.make (max len 1) 0.)
    | Types.I1 | Types.I32 | Types.I64 -> I (Array.make (max len 1) 0)
    | Types.Memref _ -> invalid_arg "Memory.alloc: memref of memref"
  in
  let id = a.next_id in
  a.next_id <- id + 1;
  let size = max 1 len * Types.byte_size elt in
  let base = a.next_addr in
  (* keep buffers 256-byte aligned, as CUDA allocators do *)
  a.next_addr <- base + Pgpu_support.Util.round_up size 256;
  { id; space; elt; len; data; base }

let check_bounds b idx =
  if idx < 0 || idx >= b.len then
    Pgpu_support.Util.failf "out-of-bounds access: index %d in buffer #%d of %d elements (%s)" idx
      b.id b.len (Types.to_string b.elt)

let get_f b idx =
  check_bounds b idx;
  match b.data with F arr -> arr.(idx) | I arr -> float_of_int arr.(idx)

let get_i b idx =
  check_bounds b idx;
  match b.data with I arr -> arr.(idx) | F arr -> int_of_float arr.(idx)

let set_f b idx v =
  check_bounds b idx;
  match b.data with F arr -> arr.(idx) <- v | I arr -> arr.(idx) <- int_of_float v

let set_i b idx v =
  check_bounds b idx;
  match b.data with I arr -> arr.(idx) <- v | F arr -> arr.(idx) <- float_of_int v

(** Byte address of element [idx]. *)
let addr b idx = b.base + (idx * Types.byte_size b.elt)

(** Copy [count] elements from [src] to [dst] (simulating cudaMemcpy;
    element types must match). *)
let copy ~dst ~src count =
  if count < 0 || count > src.len || count > dst.len then
    Pgpu_support.Util.failf "memcpy out of range: %d elements, src %d, dst %d" count src.len
      dst.len;
  match (dst.data, src.data) with
  | F d, F s -> Array.blit s 0 d 0 count
  | I d, I s -> Array.blit s 0 d 0 count
  | F d, I s -> Array.iteri (fun k v -> if k < count then d.(k) <- float_of_int v) s
  | I d, F s -> Array.iteri (fun k v -> if k < count then d.(k) <- int_of_float v) s

(* the backing array of an empty buffer holds one padding element:
   fills and reads stop at [len] *)
let fill_f b f =
  match b.data with
  | F arr -> for k = 0 to b.len - 1 do arr.(k) <- f k done
  | I arr -> for k = 0 to b.len - 1 do arr.(k) <- int_of_float (f k) done

let fill_i b f =
  match b.data with
  | I arr -> for k = 0 to b.len - 1 do arr.(k) <- f k done
  | F arr -> for k = 0 to b.len - 1 do arr.(k) <- float_of_int (f k) done

let to_float_list b =
  match b.data with
  | F arr -> List.init b.len (Array.get arr)
  | I arr -> List.init b.len (fun k -> float_of_int arr.(k))

(** The oracle's memory model: a reference LRU cache and a reference
    memory-request model, both written for obviousness. The
    interpreter ([Interp]) models its memory instructions through
    {!requests} rather than {!Exec.requests}, so engine parity compares
    the product's request model with this one as well as the two
    engines' functional halves. *)

open Pgpu_ir
open Pgpu_gpusim

(** A set-associative cache as a tag store with a last-use tick per
    way: a probe stamps the tick of the way it hits or fills, and a
    miss fills the first invalid way, else evicts the way with the
    oldest tick. Reset clears every way; a clone is a deep copy. *)
module Lru = struct
  type t = {
    sets : int;
    ways : int;
    line_bytes : int;
    tags : int array array;  (** per set and way; -1 = invalid *)
    last_use : int array array;  (** per set and way; 0 = invalid *)
    mutable tick : int;
    mutable hits : int;
    mutable misses : int;
  }

  (* the geometry of [Cache.create] *)
  let create ~size_bytes ~line_bytes ~ways =
    let lines = max ways (size_bytes / line_bytes) in
    let sets = max 1 (lines / ways) in
    {
      sets;
      ways;
      line_bytes;
      tags = Array.init sets (fun _ -> Array.make ways (-1));
      last_use = Array.init sets (fun _ -> Array.make ways 0);
      tick = 0;
      hits = 0;
      misses = 0;
    }

  let clone t =
    { t with tags = Array.map Array.copy t.tags; last_use = Array.map Array.copy t.last_use }

  let access t addr =
    t.tick <- t.tick + 1;
    let line = addr / t.line_bytes in
    let tags = t.tags.(line mod t.sets) and last_use = t.last_use.(line mod t.sets) in
    let way = ref (-1) in
    Array.iteri (fun w tag -> if tag = line then way := w) tags;
    if !way >= 0 then begin
      last_use.(!way) <- t.tick;
      t.hits <- t.hits + 1;
      true
    end
    else begin
      let victim = ref 0 in
      Array.iteri (fun w u -> if u < last_use.(!victim) then victim := w) last_use;
      tags.(!victim) <- line;
      last_use.(!victim) <- t.tick;
      t.misses <- t.misses + 1;
      false
    end

  let reset t =
    Array.iter (fun a -> Array.fill a 0 t.ways (-1)) t.tags;
    Array.iter (fun a -> Array.fill a 0 t.ways 0) t.last_use;
    t.tick <- 0;
    t.hits <- 0;
    t.misses <- 0
end

(** The distinct values of [addrs.(l) / granule] over the active lanes
    of [lo, hi), ascending. *)
let distinct granule (addrs : int array) (bits : bool array) lo hi =
  List.init (hi - lo) (fun k -> lo + k)
  |> List.filter (fun l -> bits.(l))
  |> List.map (fun l -> addrs.(l) / granule)
  |> List.sort_uniq Int.compare

(** One warp's global request: each distinct 32 B sector, ascending,
    probes the SM's L1 and, on a miss, its L2 slice (a load), or only
    the L2 slice (a write-through store). *)
let global_request ctx ~is_store addrs bits lo hi =
  let c = ctx.Exec.m.Exec.counters in
  let l1 = ctx.Exec.m.Exec.l1s.(ctx.Exec.sm) and l2 = ctx.Exec.m.Exec.l2s.(ctx.Exec.sm) in
  let sector = 1 lsl Counters.sector_shift in
  let sectors = List.map (fun s -> s * sector) (distinct sector addrs bits lo hi) in
  let nsec = float_of_int (List.length sectors) in
  if is_store then begin
    c.Counters.global_store_req <- c.Counters.global_store_req +. 1.;
    c.Counters.store_sectors <- c.Counters.store_sectors +. nsec;
    c.Counters.store_l2_sectors <- c.Counters.store_l2_sectors +. nsec;
    List.iter
      (fun a ->
        if not (Cache.access l2 a) then
          c.Counters.l2_store_miss_sectors <- c.Counters.l2_store_miss_sectors +. 1.)
      sectors
  end
  else begin
    c.Counters.global_load_req <- c.Counters.global_load_req +. 1.;
    c.Counters.load_sectors <- c.Counters.load_sectors +. nsec;
    List.iter
      (fun a ->
        if not (Cache.access l1 a) then begin
          c.Counters.l1_load_miss_sectors <- c.Counters.l1_load_miss_sectors +. 1.;
          if not (Cache.access l2 a) then
            c.Counters.l2_load_miss_sectors <- c.Counters.l2_load_miss_sectors +. 1.
        end)
      sectors
  end

(** One warp's shared request: one transaction per replay, the most
    distinct 32-bit words any one bank is asked for. *)
let shared_request ctx ~is_store addrs bits lo hi =
  let c = ctx.Exec.m.Exec.counters in
  let banks = ctx.Exec.m.Exec.target.Pgpu_target.Descriptor.shmem_banks in
  let per_bank = Array.make banks 0 in
  List.iter
    (fun w -> per_bank.(w mod banks) <- per_bank.(w mod banks) + 1)
    (distinct 4 addrs bits lo hi);
  if is_store then c.Counters.shared_store_req <- c.Counters.shared_store_req +. 1.
  else c.Counters.shared_load_req <- c.Counters.shared_load_req +. 1.;
  c.Counters.shared_transactions <-
    c.Counters.shared_transactions +. float_of_int (Array.fold_left max 1 per_bank)

(** The reference of {!Exec.requests}: every warp of [ctx.ws] lanes
    with an active lane issues one warp instruction and one request. *)
let requests ctx ~is_store (space : Types.space) (addrs : int array) (bits : bool array) =
  let c = ctx.Exec.m.Exec.counters in
  let ws = ctx.Exec.ws and n = ctx.Exec.nlanes in
  for w = 0 to ((n + ws - 1) / ws) - 1 do
    let lo = w * ws and hi = min n ((w + 1) * ws) in
    if List.exists (fun l -> bits.(l)) (List.init (hi - lo) (fun k -> lo + k)) then begin
      c.Counters.warp_insts <- c.Counters.warp_insts +. 1.;
      match space with
      | Types.Global | Types.Host -> global_request ctx ~is_store addrs bits lo hi
      | Types.Shared -> shared_request ctx ~is_store addrs bits lo hi
    end
  done

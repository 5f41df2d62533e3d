(** Set-associative LRU cache model, used for the per-SM L1 caches and
    the device-wide L2.

    The tag store is organised per set and materialised lazily: a
    simulated L2 can have hundreds of thousands of lines, and a run
    frequently touches only a small fraction of its sets, so [create]
    allocates one pointer per set rather than the full arrays.
    Invalidation is epoch-based, making [reset] O(1) per launch
    instead of O(cache size). Both encodings are behaviourally
    identical to an eagerly-cleared tag store ([tag = -1],
    [last_use = 0]), so hit/miss sequences — and therefore every
    simulated counter — are unchanged.

    Clones are copy-on-write per set: [clone] copies the row pointers
    only, and every row carries the stamp of the one cache allowed to
    write it in place. A cache that scans a row stamped by another
    takes a private copy first, so a clone costs what it touches and
    never writes a row its source can see. The source, which still
    owns those rows, must not be probed while a clone of it is in
    use. *)

type t = {
  id : int;  (** owner stamp of the rows this cache writes in place *)
  sets : int;
  ways : int;
  line_bytes : int;
  line_shift : int;  (** log2 of [line_bytes] when it is a power of two, else -1 *)
  set_data : int array array;
      (** per set, [3 * ways + 1] ints — tags at [w], last-use ticks
          at [ways + w], epoch stamps at [2 * ways + w], the owner's
          [id] at [3 * ways]; [[||]] until the set is first touched. A
          way is resident only when its stamp equals [epoch]. *)
  mutable epoch : int;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable last_line : int;
      (** one-entry probe shortcut: the line of the most recent hit or
          fill, resident at way [last_w] of [last_data]. Only an
          insertion can evict a line, and every insertion rewrites
          [last_line], so a matching probe is a hit without the set
          scan. -1 = invalid (lines are non-negative). *)
  mutable last_data : int array;
  mutable last_w : int;
}

let log2_pow2 n =
  let rec go n k = if n = 1 then k else if n land 1 = 1 then -1 else go (n lsr 1) (k + 1) in
  if n <= 0 then -1 else go n 0

(* atomic: trial machines are cloned on several domains *)
let next_id = Atomic.make 0
let new_id () = Atomic.fetch_and_add next_id 1

let create ~size_bytes ~line_bytes ~ways =
  let lines = max ways (size_bytes / line_bytes) in
  let sets = max 1 (lines / ways) in
  {
    id = new_id ();
    sets;
    ways;
    line_bytes;
    line_shift = log2_pow2 line_bytes;
    set_data = Array.make sets [||];
    epoch = 1;
    tick = 0;
    hits = 0;
    misses = 0;
    last_line = -1;
    last_data = [||];
    last_w = 0;
  }

(** Copy-on-write copy — used to give TDO trial machines private
    caches. Only the row pointers are copied; the clone's fresh [id]
    makes its first scan of each shared row copy it. The one-entry
    probe shortcut is invalidated rather than copied: [last_data] is
    a row the source owns. An invalid shortcut only costs the next
    probe a set scan; hit/miss outcomes are unchanged. *)
let clone t =
  {
    t with
    id = new_id ();
    set_data = Array.copy t.set_data;
    last_line = -1;
    last_data = [||];
    last_w = 0;
  }

(** Probe the cache with a byte address; allocates on miss (allocate-on-
    read-and-write policy). Returns [true] on hit. *)
let access t addr =
  t.tick <- t.tick + 1;
  let line = if t.line_shift >= 0 then addr lsr t.line_shift else addr / t.line_bytes in
  if line = t.last_line then begin
    (* resident at [last_w] of [last_data]: same transition as a scan hit *)
    t.last_data.(t.ways + t.last_w) <- t.tick;
    t.hits <- t.hits + 1;
    true
  end
  else begin
    let set = line mod t.sets in
    let ways = t.ways in
    let d =
      let d = t.set_data.(set) in
      let own = 3 * ways in
      if Array.length d > 0 && Array.unsafe_get d own = t.id then d
      else begin
        (* untouched: stamps start at 0 < epoch, so every way starts
           invalid; shared with the source: copy before writing *)
        let d = if Array.length d = 0 then Array.make (own + 1) 0 else Array.copy d in
        d.(own) <- t.id;
        t.set_data.(set) <- d;
        d
      end
    in
    let ep = t.epoch in
    let stamp_off = 2 * ways in
    let rec find w =
      if w = ways then -1
      else if Array.unsafe_get d w = line && Array.unsafe_get d (stamp_off + w) = ep then w
      else find (w + 1)
    in
    let w = find 0 in
    if w >= 0 then begin
      d.(ways + w) <- t.tick;
      t.hits <- t.hits + 1;
      t.last_line <- line;
      t.last_data <- d;
      t.last_w <- w;
      true
    end
    else begin
      t.misses <- t.misses + 1;
      (* evict the LRU way; a stale-epoch way counts as free
         (last_use 0, matching the eager-clear encoding, where ties go
         to the lowest index) *)
      let victim = ref 0 in
      let vu = ref (if d.(stamp_off) = ep then d.(ways) else 0) in
      for w = 1 to ways - 1 do
        let u =
          if Array.unsafe_get d (stamp_off + w) = ep then Array.unsafe_get d (ways + w) else 0
        in
        if u < !vu then begin
          victim := w;
          vu := u
        end
      done;
      let v = !victim in
      d.(v) <- line;
      d.(ways + v) <- t.tick;
      d.(stamp_off + v) <- ep;
      t.last_line <- line;
      t.last_data <- d;
      t.last_w <- v;
      false
    end
  end

(* O(1): invalidates every way by advancing the epoch *)
let reset t =
  t.epoch <- t.epoch + 1;
  t.tick <- 0;
  t.hits <- 0;
  t.misses <- 0;
  t.last_line <- -1;
  t.last_data <- [||];
  t.last_w <- 0

let hit_rate t =
  let total = t.hits + t.misses in
  if total = 0 then 0. else float_of_int t.hits /. float_of_int total

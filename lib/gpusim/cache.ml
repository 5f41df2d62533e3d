(** Set-associative LRU cache model, used for the per-SM L1 caches and
    the L2 slices.

    Each set is one row of [ways + 3] ints: the owner's stamp, the
    epoch the row was last written in, the number of resident lines,
    then the resident lines themselves, most recently used first. A
    hit moves its line to the front; a miss inserts the line at the
    front and, when the set is full, drops the last (least recently
    used) one. That is exactly true LRU: the resident set after every
    probe is the one a tick-per-way tag store with a victim scan
    would hold, without the ticks and without the scan.

    Rows are materialised lazily: a simulated L2 can have hundreds of
    thousands of lines, and a run frequently touches only a small
    fraction of its sets, so [create] allocates one pointer per set
    rather than the full rows. A row stamped with an older epoch reads
    as empty, so [reset] is O(1) per launch instead of O(cache size).

    Clones are copy-on-write per set: [clone] copies the row pointers
    only, and every row carries the stamp of the one cache allowed to
    write it in place. A cache that probes a row stamped by another
    takes a private copy first, so a clone costs what it touches and
    never writes a row its source can see. The source, which still
    owns those rows, must not be probed while a clone of it is in
    use. A clone's state can be written back into its source
    ([write_back]): the rows it owns move over, restamped, and the
    source then holds exactly what the clone held. *)

type t = {
  id : int;  (** owner stamp of the rows this cache writes in place *)
  sets : int;
  ways : int;
  line_bytes : int;
  line_shift : int;  (** log2 of [line_bytes] when it is a power of two, else -1 *)
  set_data : int array array;
      (** per set, [ways + 3] ints — the owner's [id] at 0, the epoch
          of the last write at 1, the resident count at 2, then the
          resident lines from most to least recently used; [[||]]
          until the set is first touched *)
  mutable epoch : int;
  mutable hits : int;
  mutable misses : int;
  mutable last_line : int;
      (** one-entry probe shortcut: the line of the most recent probe,
          which is at the front of its set, so a matching probe is a
          hit that changes no row. -1 = invalid (lines are
          non-negative). *)
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
    hits = 0;
    misses = 0;
    last_line = -1;
  }

(** Copy-on-write copy — used to give TDO trial machines private
    caches. Only the row pointers are copied; the clone's fresh [id]
    makes its first probe of each shared row copy it. The shortcut
    carries over: its line heads a row both caches hold, and a
    shortcut hit writes no row. *)
let clone t = { t with id = new_id (); set_data = Array.copy t.set_data }

let line t addr = if t.line_shift >= 0 then addr lsr t.line_shift else addr / t.line_bytes

(** Probe the cache with a byte address; allocates on miss (allocate-on-
    read-and-write policy). Returns [true] on hit. *)
let access t addr =
  let line = line t addr in
  if line = t.last_line then begin
    t.hits <- t.hits + 1;
    true
  end
  else begin
    t.last_line <- line;
    let set = line mod t.sets in
    let d =
      let d = t.set_data.(set) in
      if Array.length d > 0 && Array.unsafe_get d 0 = t.id then d
      else begin
        (* untouched: epoch 0 < [t.epoch], so the row starts empty;
           shared with the source: copy before writing *)
        let d = if Array.length d = 0 then Array.make (t.ways + 3) 0 else Array.copy d in
        d.(0) <- t.id;
        t.set_data.(set) <- d;
        d
      end
    in
    let n = if Array.unsafe_get d 1 = t.epoch then Array.unsafe_get d 2 else 0 in
    let w = ref 0 in
    while !w < n && Array.unsafe_get d (3 + !w) <> line do
      incr w
    done;
    let w = !w in
    let hit = w < n in
    (* a hit moves its line to the front; a miss inserts it there,
       dropping the last line of a full set *)
    let last = if hit then w else if n < t.ways then n else n - 1 in
    for i = 3 + last downto 4 do
      Array.unsafe_set d i (Array.unsafe_get d (i - 1))
    done;
    Array.unsafe_set d 3 line;
    if hit then t.hits <- t.hits + 1
    else begin
      d.(1) <- t.epoch;
      d.(2) <- last + 1;
      t.misses <- t.misses + 1
    end;
    hit
  end

(** [k] probes of the line holding [addr]: the first is an [access],
    and the other [k - 1] find the line it left at the front. *)
let access_run t addr k =
  let hit = access t addr in
  t.hits <- t.hits + k - 1;
  hit

(* O(1): empties every row by advancing the epoch *)
let reset t =
  t.epoch <- t.epoch + 1;
  t.hits <- 0;
  t.misses <- 0;
  t.last_line <- -1

(* every row the clone shares is still its source's, unchanged (the
   source was idle); the rows it owns move over under the source's
   stamp, so the clone writes none of them in place again *)
let write_back ~clone ~into =
  Array.iteri
    (fun set d ->
      if Array.length d > 0 && Array.unsafe_get d 0 = clone.id then begin
        d.(0) <- into.id;
        into.set_data.(set) <- d
      end)
    clone.set_data;
  into.epoch <- clone.epoch;
  into.hits <- clone.hits;
  into.misses <- clone.misses;
  into.last_line <- clone.last_line

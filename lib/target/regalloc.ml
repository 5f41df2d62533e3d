(** Linear-scan register allocation over the virtual ISA.

    Live intervals are [first def, last use] spans over the linear
    instruction stream, extended across loops: a register that is live
    on entry to a loop (defined at or before the header, still used
    inside) must survive the whole loop, since every iteration reads
    it — the property the paper's coarsening legality depends on.
    When pressure exceeds the target's per-thread budget, the interval
    with the furthest end is spilled (Poletto-Sarkar), and the cost is
    reported as the ptxas-style spill statistics that alternative
    pruning consumes. *)

type result = {
  regs_used : int;  (** peak simultaneously-live registers, <= budget *)
  spilled : int;  (** live intervals moved to local memory *)
  spill_instructions : int;  (** estimated spill stores + reload loads *)
}

type interval = { reg : int; start : int; stop : int }

let intervals_of (p : Visa.program) : interval list =
  let def_at = Array.make (max 1 p.Visa.nvregs) max_int in
  let end_at = Array.make (max 1 p.Visa.nvregs) (-1) in
  Array.iteri
    (fun idx (vi : Visa.vinstr) ->
      List.iter
        (fun r ->
          if def_at.(r) = max_int then def_at.(r) <- idx;
          end_at.(r) <- max end_at.(r) idx)
        vi.Visa.defs;
      List.iter
        (fun r ->
          if def_at.(r) = max_int then def_at.(r) <- idx;
          end_at.(r) <- max end_at.(r) idx)
        vi.Visa.srcs)
    p.Visa.code;
  (* loop extension: innermost spans first, then widen outwards so an
     outer loop sees the already-extended inner ends *)
  let loops =
    List.sort
      (fun (a : Visa.loop) b -> compare (a.Visa.stop - a.Visa.start) (b.Visa.stop - b.Visa.start))
      p.Visa.loops
  in
  List.iter
    (fun (l : Visa.loop) ->
      Array.iteri
        (fun r d ->
          if d < max_int && d <= l.Visa.start && end_at.(r) > l.Visa.start then
            end_at.(r) <- max end_at.(r) l.Visa.stop)
        def_at)
    loops;
  let acc = ref [] in
  Array.iteri
    (fun r d -> if d < max_int then acc := { reg = r; start = d; stop = end_at.(r) } :: !acc)
    def_at;
  List.sort
    (fun a b ->
      let c = Int.compare a.start b.start in
      if c <> 0 then c else Int.compare a.reg b.reg)
    !acc

let allocate ~budget (p : Visa.program) : result =
  if budget < 1 then invalid_arg "Regalloc.allocate: budget must be positive";
  let spilled = ref 0 and spill_instructions = ref 0 in
  let regs_used = ref 0 in
  (* active intervals sorted by increasing stop, a new interval before
     those with an equal stop; [live] is their number *)
  let active = ref [] and live = ref 0 in
  let insert iv =
    let rec go = function a :: l when a.stop < iv.stop -> a :: go l | l -> iv :: l in
    active := go !active;
    incr live
  in
  let rec expire start = function
    | a :: l when a.stop < start ->
        decr live;
        expire start l
    | l -> l
  in
  let spill iv =
    incr spilled;
    (* one store at the definition plus a reload per use *)
    spill_instructions := !spill_instructions + 1 + p.Visa.use_counts.(iv.reg)
  in
  List.iter
    (fun iv ->
      active := expire iv.start !active;
      if !live >= budget then begin
        (* evict the interval that ends furthest away *)
        let furthest = List.fold_left (fun m a -> if a.stop > m.stop then a else m) iv !active in
        spill furthest;
        if furthest.reg <> iv.reg then begin
          active := List.filter (fun a -> a.reg <> furthest.reg) !active;
          decr live;
          insert iv
        end
      end
      else begin
        insert iv;
        regs_used := max !regs_used !live
      end)
    (intervals_of p);
  { regs_used = !regs_used; spilled = !spilled; spill_instructions = !spill_instructions }

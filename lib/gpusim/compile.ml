(** The execution engine: slot-indexed closure kernels.

    A tree-walking interpreter pays for its generality on every
    instruction of every lane of every block: hashtable environment
    lookups, boxed [rv] values, and a fresh [Array.init] per vector
    operation. This module removes all of it with a one-time lowering
    pass per kernel region. The tests keep such an interpreter
    ([test/interp.ml]) as the reference semantics; "the interpreter"
    below means that oracle.

    {b Slot numbering.} Every SSA value is assigned a dense integer
    slot in one of six register banks: uniform ints/floats/buffers
    (plain arrays indexed by slot) and varying ints/floats/buffers
    (one flat array per bank holding [slots * lane-capacity] unboxed
    entries, a value's lane [l] living at [slot * cap + l]). Whether a
    value is uniform or varying is decided {e statically} by a
    monotone fixpoint analysis: loads inside a thread-level parallel
    are varying, anything derived from a varying value is varying,
    region results follow their yields, and divergence forces
    loop-carried values of [While] into vector form. Treating a
    dynamically-uniform value as statically varying is observationally
    identical — outputs, every counter, race reports and TDO choices —
    because no IR operation reads across lanes; the analysis only has
    to be conservative, never exact.

    {b Closure threading.} Each region is flattened to an array of
    [frame -> mask -> unit] closures executed by an indexed loop.
    Operand locations, issue classes, uniformity of every branch and
    loop, merge copies (with compile-time staging through temporaries
    when a yield permutes its own iter-args) and error cases are all
    resolved at compile time.

    {b Allocation.} A launch allocates nothing per lane, and per block
    only a few words whatever the block's size: the grid loop's
    block allocator, and the record of each [__shared__] buffer (its
    id and address come from that allocator). Everything else lives
    in the frame, one set per node — a node never re-enters itself,
    and each machine has frames of its own: the lane masks of a
    varying [If] (two), [For] and [While], lists of active lanes
    rebuilt in place (a branch splits its parent's list, a loop
    filters it); the induction lanes of a varying-bound [For]; the
    backing array of each [Alloc_shared], zero-filled per block. They
    are made at a node's first execution and again when the lane
    count changes. Per frame, the register banks (grown with the lane
    capacity) and the iv rows; per launch, the rebound instance
    ({!runner}). The runtime state keeps its frames across launches.

    {b Active lanes only.} A lane mask is its list of active lanes
    ({!Exec.mask}), and every lane loop does per-lane work for those
    lanes only: the lanes a mask leaves out are neither computed nor
    read. That is exact: no IR operation reads across lanes, a value
    defined under a mask is read only under that mask or through a
    masked merge, and [Ops] returns 0 for an integer division or
    remainder by zero, so skipping an inactive lane removes no fault.

    {b Lane-loop templates.} Each direct-bank lane loop (arithmetic,
    comparison, select, uniform-buffer load/store, masked merge and
    conversion) is written once, as an [[@inline]] template in this
    module, and instantiated per operator and operand shape; a load
    or store at a uniform index (a broadcast access) is the [Uni]
    index shape of the access template. A template runs a dense loop
    with no per-lane test on a full mask ([active = nlanes]; a merge
    is then a blit or a fill) and walks the mask's list otherwise;
    the loops over generic per-lane readers always walk the list.
    The per-lane operator semantics are [Ops]' own [[@inline]]
    [eval_*] functions, which the tree's one optimising build (no
    [-opaque]) inlines across modules. Without flambda, an
    instantiation compiles to the hand-specialized loop only if it
    receives the operator and the operand shapes as constant
    constructors, takes no function-valued parameter and builds no
    closure, and the operator is matched per lane with one arm per
    constructor. Call sites mark each instantiation [[@inlined]], so a
    template that stops inlining fails the build (warning 55).

    {b Event parity.} The closures drive the performance model
    ({!Exec.count_op} per issued operation, {!Exec.requests} per memory
    instruction) in exactly the interpreter's order, and the
    interpreter drives [count_op] and a reference request model of its
    own in that order, so the two are bit-identical; the differential
    tests hold them to it. The product's request model, warp coalescer
    and one-lane arm alike, lives only in [Exec]. The race detector
    stays an optional instrumentation hook — a single [match] on
    [None] per memory operation, free when disabled. *)

open Pgpu_ir

(* ------------------------------------------------------------------ *)
(* Slots and frames                                                    *)
(* ------------------------------------------------------------------ *)

type kind = KInt | KFloat | KBuf

let kind_of (ty : Types.t) : kind =
  if Types.is_float ty then KFloat else if Types.is_memref ty then KBuf else KInt

(** Compile-time location of one SSA value. *)
type loc = { l_slot : int; l_kind : kind; l_varying : bool }

let dummy_buf : Memory.buf =
  { Memory.id = -1; space = Types.Global; elt = Types.F32; len = 0; data = Memory.F [||]; base = 0 }

(* an empty placeholder; no lane count matches it, so it is never
   rebuilt in place *)
let no_mask = { Exec.lanes = [||]; active = 0; warps = 0 }

(** Per-instance register files and execution state. The varying banks
    are reallocated when a thread-level parallel needs more lanes than
    the current capacity; no varying value is live across a parallel
    boundary (SSA region scoping), so growth never needs to preserve
    contents. *)
type frame = {
  m : Exec.machine;
  ui : int array;  (** uniform int slots *)
  uf : float array;  (** uniform float slots *)
  ub : Memory.buf array;  (** uniform buffer slots *)
  mutable vi : int array;  (** varying ints, [slot * cap + lane] *)
  mutable vf : float array;
  mutable vb : Memory.buf array;
  mutable cap : int;  (** lane capacity of the varying banks *)
  mutable nlanes : int;  (** lanes of the current zone (1 at block level) *)
  mutable addrs : int array;  (** per-lane byte addresses for the memory model *)
  ctx : Exec.ctx;  (** mask/counter context, kept in sync with [nlanes] *)
  f_nvi : int;  (** varying bank sizes, for capacity growth *)
  f_nvf : int;
  f_nvb : int;
  tp_dims : int array array;
      (** per thread-parallel node: dims of the last iv-row fill. The
          rows depend only on the dims (not the block), so across the
          blocks of a launch they are filled once and reused. *)
  tp_caps : int array;  (** cap at the time of that fill; growth refills *)
  mutable fmask : Exec.mask;  (** cached full mask for the threads zone *)
  lane_masks : Exec.mask array;
      (** per lane mask of a varying [If] (two), [For] or [While]
          node: a list [nlanes] long, rebuilt in place. A node never
          re-enters itself, so one mask per node is never live
          twice. *)
  lane_ints : int array array;  (** per varying-bound [For]: its induction lanes *)
  sh_bufs : Memory.buf array;  (** per [Alloc_shared] node: its last buffer *)
  sh_stamps : int array;  (** the [blocks] count when that buffer was made *)
  mutable blocks : int;  (** blocks this frame has run, stamping shared buffers *)
}

type code = frame -> Exec.mask -> unit

let run (a : code array) fr mask =
  for i = 0 to Array.length a - 1 do
    a.(i) fr mask
  done

let ensure_cap (fr : frame) n =
  if n > fr.cap then begin
    fr.vi <- Array.make (max 1 (fr.f_nvi * n)) 0;
    fr.vf <- Array.make (max 1 (fr.f_nvf * n)) 0.;
    fr.vb <- Array.make (max 1 (fr.f_nvb * n)) dummy_buf;
    fr.addrs <- Array.make n 0;
    fr.cap <- n
  end

(** Node-owned lane buffers: allocated at a node's first execution and
    again when the lane count changes, reused in between. *)
let lane_mask fr k n =
  let m = Array.unsafe_get fr.lane_masks k in
  if Array.length m.Exec.lanes = n then m
  else begin
    let m = { Exec.lanes = Array.make n 0; active = 0; warps = 0 } in
    fr.lane_masks.(k) <- m;
    m
  end

let lane_ints fr k n =
  let b = Array.unsafe_get fr.lane_ints k in
  if Array.length b = n then b
  else begin
    let b = Array.make n 0 in
    fr.lane_ints.(k) <- b;
    b
  end

(* ------------------------------------------------------------------ *)
(* Compile-time state                                                  *)
(* ------------------------------------------------------------------ *)

type cst = {
  locs : loc Value.Tbl.t;
  varying : unit Value.Tbl.t;  (** membership = statically varying *)
  mutable nui : int;
  mutable nuf : int;
  mutable nub : int;
  mutable nvi : int;
  mutable nvf : int;
  mutable nvb : int;
  mutable ntp : int;  (** thread-parallel nodes, for per-frame iv-row memos *)
  mutable nmasks : int;  (** node-owned lane masks *)
  mutable nints : int;  (** node-owned induction lanes *)
  mutable nshared : int;  (** [Alloc_shared] nodes *)
}

(* node-owned buffer indices, numbered at compile time *)
let new_mask st =
  let k = st.nmasks in
  st.nmasks <- k + 1;
  k

let new_ints st =
  let k = st.nints in
  st.nints <- k + 1;
  k

let alloc_slot st kind varying =
  match (kind, varying) with
  | KInt, false ->
      let s = st.nui in
      st.nui <- s + 1;
      s
  | KFloat, false ->
      let s = st.nuf in
      st.nuf <- s + 1;
      s
  | KBuf, false ->
      let s = st.nub in
      st.nub <- s + 1;
      s
  | KInt, true ->
      let s = st.nvi in
      st.nvi <- s + 1;
      s
  | KFloat, true ->
      let s = st.nvf in
      st.nvf <- s + 1;
      s
  | KBuf, true ->
      let s = st.nvb in
      st.nvb <- s + 1;
      s

(** Assign a fresh slot to a value at its (unique) definition point.
    Slots are never reused across values, which rules out clobber
    hazards everywhere except the deliberate rebinding of iter-args,
    handled by staged copies. *)
let new_loc ?kind st (v : Value.t) : loc =
  let varying = Value.Tbl.mem st.varying v in
  let k = match kind with Some k -> k | None -> kind_of v.Value.ty in
  let l = { l_slot = alloc_slot st k varying; l_kind = k; l_varying = varying } in
  Value.Tbl.replace st.locs v l;
  l

let loc_of st (v : Value.t) : loc =
  match Value.Tbl.find_opt st.locs v with
  | Some l -> l
  | None -> Pgpu_support.Util.failf "compile: unbound value %a" Value.pp v

(** A temporary slot in the same bank as [src], for staged copies. *)
let temp_loc st (src : loc) : loc =
  { l_slot = alloc_slot st src.l_kind src.l_varying; l_kind = src.l_kind; l_varying = src.l_varying }

let loc_same a b = a.l_slot = b.l_slot && a.l_kind = b.l_kind && a.l_varying = b.l_varying

(* ------------------------------------------------------------------ *)
(* Readers                                                             *)
(* ------------------------------------------------------------------ *)

(* Per-lane readers convert between int and float exactly like the
   interpreter's [to_vi]/[to_vf] coercions, and raise the same
   [Invalid_argument] messages on kind misuse — lazily, at execution
   time, matching the interpreter's runtime failures. *)

let rd_int (l : loc) : frame -> int -> int =
  let s = l.l_slot in
  match (l.l_kind, l.l_varying) with
  | KInt, true -> fun fr lane -> fr.vi.((s * fr.cap) + lane)
  | KInt, false -> fun fr _ -> fr.ui.(s)
  | KFloat, true -> fun fr lane -> int_of_float fr.vf.((s * fr.cap) + lane)
  | KFloat, false -> fun fr _ -> int_of_float fr.uf.(s)
  | KBuf, _ -> fun _ _ -> invalid_arg "exec: buffer used as integer"

let rd_float (l : loc) : frame -> int -> float =
  let s = l.l_slot in
  match (l.l_kind, l.l_varying) with
  | KFloat, true -> fun fr lane -> fr.vf.((s * fr.cap) + lane)
  | KFloat, false -> fun fr _ -> fr.uf.(s)
  | KInt, true -> fun fr lane -> float_of_int fr.vi.((s * fr.cap) + lane)
  | KInt, false -> fun fr _ -> float_of_int fr.ui.(s)
  | KBuf, _ -> fun _ _ -> invalid_arg "exec: buffer used as float"

let rd_buf (l : loc) : frame -> int -> Memory.buf =
  let s = l.l_slot in
  match (l.l_kind, l.l_varying) with
  | KBuf, true -> fun fr lane -> fr.vb.((s * fr.cap) + lane)
  | KBuf, false -> fun fr _ -> fr.ub.(s)
  | (KInt | KFloat), _ -> fun _ _ -> invalid_arg "exec: expected buffer"

(* Uniform readers mirror [ui_of]/[uf_of]/[to_ub]. *)

let ru_int (l : loc) : frame -> int =
  let s = l.l_slot in
  match (l.l_kind, l.l_varying) with
  | KInt, false -> fun fr -> fr.ui.(s)
  | KFloat, false -> fun fr -> int_of_float fr.uf.(s)
  | (KBuf, false) | (_, true) -> fun _ -> invalid_arg "exec: expected uniform scalar"

let ru_float (l : loc) : frame -> float =
  let s = l.l_slot in
  match (l.l_kind, l.l_varying) with
  | KFloat, false -> fun fr -> fr.uf.(s)
  | KInt, false -> fun fr -> float_of_int fr.ui.(s)
  | (KBuf, false) | (_, true) -> fun _ -> invalid_arg "exec: expected uniform scalar"

let ru_buf (l : loc) : frame -> Memory.buf =
  let s = l.l_slot in
  match (l.l_kind, l.l_varying) with
  | KBuf, false -> fun fr -> fr.ub.(s)
  | _ -> fun _ -> invalid_arg "exec: expected uniform buffer"

(* ------------------------------------------------------------------ *)
(* Lane-loop templates                                                 *)
(* ------------------------------------------------------------------ *)

(* The generic readers above are closures: every per-lane float read
   through one boxes its result, which puts the compiled engine on par
   with the interpreter's allocation rate. The hot constructs therefore
   pattern-match operand locations at compile time and run loops that
   index the bank arrays directly: unboxed reads and writes, no calls
   in the lane loop. Each such loop is written once, as an [[@inline]]
   template below that calls [Ops]' [[@inline]] [eval_*] per lane; the
   tree builds without [-opaque], so those calls inline across modules.
   These rules let ocamlopt without flambda compile every
   instantiation to the loop a hand-written copy would be:

   - Every call site passes the operator and the operand shapes as
     constant constructors, so inlining resolves each [match] on them,
     [Ops]' included.
   - A template has no function-valued parameter and creates no
     closure. The per-instruction closure is written at the call site,
     around a template call marked [[@inlined]]; warning 55 (an error
     in the tree's flags) flags any instantiation that stops inlining.
   - A per-lane operator match has one arm per constructor, as [Ops]
     writes them: a [_] or or-pattern arm leaves a shared handler that
     boxes in the loop.

   Under [--profile dev], [-opaque] keeps each [Ops] call a real call,
   which boxes its floats; the allocation guards of the [exec] and
   [host] tests fail there.

   [Array.unsafe_get]/[unsafe_set] are safe here by construction: slot
   < bank count and lane < nlanes <= cap, so [slot * cap + lane] is
   always in range. *)

(** Varying slot of exactly this kind, for direct row access. *)
let vf_slot (l : loc) = if l.l_varying && l.l_kind = KFloat then Some l.l_slot else None

let vi_slot (l : loc) = if l.l_varying && l.l_kind = KInt then Some l.l_slot else None

(** A uniform scalar (int or float): readable once per invocation via
    [ru_int]/[ru_float] and hoisted out of the lane loop — the
    per-lane coercion the generic reader would do is lane-invariant. *)
let uni_scalar (l : loc) = (not l.l_varying) && l.l_kind <> KBuf

(** How a template reads an operand: [Row] indexes the operand's
    varying row per lane; [Uni] takes a uniform scalar read once per
    invocation. *)
type shape = Row | Uni

let[@inline] fget sh (vf : float array) base l (u : float) =
  match sh with Row -> Array.unsafe_get vf (base + l) | Uni -> u

let[@inline] iget sh (vi : int array) base l (u : int) =
  match sh with Row -> Array.unsafe_get vi (base + l) | Uni -> u

let[@inline] bget sh (vb : Memory.buf array) base l (u : Memory.buf) =
  match sh with Row -> Array.unsafe_get vb (base + l) | Uni -> u

(* Every template below runs a dense loop over all [nlanes] lanes on a
   full mask, with no per-lane test, and any other mask over its list
   of active lanes; the lanes a mask leaves out are neither read nor
   written. *)

(** Float row [d] <- [op a b]; a [Uni] operand reads [x] (resp. [y]). *)
let[@inline] fbin_lanes op sa sb cls d a b x y fr (mask : Exec.mask) =
  Exec.count_op fr.ctx mask cls;
  let vf = fr.vf and cap = fr.cap and n = fr.nlanes in
  let bd = d * cap and ba = a * cap and bb = b * cap in
  if mask.Exec.active = n then
    for l = 0 to n - 1 do
      Array.unsafe_set vf (bd + l) (Ops.eval_float_binop op (fget sa vf ba l x) (fget sb vf bb l y))
    done
  else
    let lanes = mask.Exec.lanes in
    for i = 0 to mask.Exec.active - 1 do
      let l = Array.unsafe_get lanes i in
      Array.unsafe_set vf (bd + l) (Ops.eval_float_binop op (fget sa vf ba l x) (fget sb vf bb l y))
    done

let[@inline] ibin_lanes op sa sb cls d a b x y fr (mask : Exec.mask) =
  Exec.count_op fr.ctx mask cls;
  let vi = fr.vi and cap = fr.cap and n = fr.nlanes in
  let bd = d * cap and ba = a * cap and bb = b * cap in
  if mask.Exec.active = n then
    for l = 0 to n - 1 do
      Array.unsafe_set vi (bd + l) (Ops.eval_int_binop op (iget sa vi ba l x) (iget sb vi bb l y))
    done
  else
    let lanes = mask.Exec.lanes in
    for i = 0 to mask.Exec.active - 1 do
      let l = Array.unsafe_get lanes i in
      Array.unsafe_set vi (bd + l) (Ops.eval_int_binop op (iget sa vi ba l x) (iget sb vi bb l y))
    done

let[@inline] fun_lanes op cls d a fr (mask : Exec.mask) =
  Exec.count_op fr.ctx mask cls;
  let vf = fr.vf and cap = fr.cap and n = fr.nlanes in
  let bd = d * cap and ba = a * cap in
  if mask.Exec.active = n then
    for l = 0 to n - 1 do
      Array.unsafe_set vf (bd + l) (Ops.eval_float_unop op (Array.unsafe_get vf (ba + l)))
    done
  else
    let lanes = mask.Exec.lanes in
    for i = 0 to mask.Exec.active - 1 do
      let l = Array.unsafe_get lanes i in
      Array.unsafe_set vf (bd + l) (Ops.eval_float_unop op (Array.unsafe_get vf (ba + l)))
    done

(** Int row [d] <- [op a b] as 1/0, comparing float operands. *)
let[@inline] fcmp_lanes op sa sb d a b x y fr (mask : Exec.mask) =
  Exec.count_op fr.ctx mask Exec.Cint;
  let vf = fr.vf and vi = fr.vi and cap = fr.cap and n = fr.nlanes in
  let bd = d * cap and ba = a * cap and bb = b * cap in
  if mask.Exec.active = n then
    for l = 0 to n - 1 do
      Array.unsafe_set vi (bd + l)
        (if Ops.eval_float_cmp op (fget sa vf ba l x) (fget sb vf bb l y) then 1 else 0)
    done
  else
    let lanes = mask.Exec.lanes in
    for i = 0 to mask.Exec.active - 1 do
      let l = Array.unsafe_get lanes i in
      Array.unsafe_set vi (bd + l)
        (if Ops.eval_float_cmp op (fget sa vf ba l x) (fget sb vf bb l y) then 1 else 0)
    done

let[@inline] icmp_lanes op sa sb d a b x y fr (mask : Exec.mask) =
  Exec.count_op fr.ctx mask Exec.Cint;
  let vi = fr.vi and cap = fr.cap and n = fr.nlanes in
  let bd = d * cap and ba = a * cap and bb = b * cap in
  if mask.Exec.active = n then
    for l = 0 to n - 1 do
      Array.unsafe_set vi (bd + l)
        (if Ops.eval_int_cmp op (iget sa vi ba l x) (iget sb vi bb l y) then 1 else 0)
    done
  else
    let lanes = mask.Exec.lanes in
    for i = 0 to mask.Exec.active - 1 do
      let l = Array.unsafe_get lanes i in
      Array.unsafe_set vi (bd + l)
        (if Ops.eval_int_cmp op (iget sa vi ba l x) (iget sb vi bb l y) then 1 else 0)
    done

(** Float row [d] <- [c ? a : b] over the int condition row [c]. *)
let[@inline] fsel_lanes sa sb d c a b x y fr (mask : Exec.mask) =
  Exec.count_op fr.ctx mask Exec.Cint;
  let vf = fr.vf and vi = fr.vi and cap = fr.cap and n = fr.nlanes in
  let bd = d * cap and bc = c * cap and ba = a * cap and bb = b * cap in
  if mask.Exec.active = n then
    for l = 0 to n - 1 do
      Array.unsafe_set vf (bd + l)
        (if Array.unsafe_get vi (bc + l) <> 0 then fget sa vf ba l x else fget sb vf bb l y)
    done
  else
    let lanes = mask.Exec.lanes in
    for i = 0 to mask.Exec.active - 1 do
      let l = Array.unsafe_get lanes i in
      Array.unsafe_set vf (bd + l)
        (if Array.unsafe_get vi (bc + l) <> 0 then fget sa vf ba l x else fget sb vf bb l y)
    done

let[@inline] isel_lanes sa sb d c a b x y fr (mask : Exec.mask) =
  Exec.count_op fr.ctx mask Exec.Cint;
  let vi = fr.vi and cap = fr.cap and n = fr.nlanes in
  let bd = d * cap and bc = c * cap and ba = a * cap and bb = b * cap in
  if mask.Exec.active = n then
    for l = 0 to n - 1 do
      Array.unsafe_set vi (bd + l)
        (if Array.unsafe_get vi (bc + l) <> 0 then iget sa vi ba l x else iget sb vi bb l y)
    done
  else
    let lanes = mask.Exec.lanes in
    for i = 0 to mask.Exec.active - 1 do
      let l = Array.unsafe_get lanes i in
      Array.unsafe_set vi (bd + l)
        (if Array.unsafe_get vi (bc + l) <> 0 then iget sa vi ba l x else iget sb vi bb l y)
    done

(** Masked merge into row [d]: the mask's lanes take row [s], or the
    scalar [y] when [Uni]; on a full mask, a blit or a fill. *)
let[@inline] fmerge sh d s (y : float) fr (mask : Exec.mask) =
  let vf = fr.vf and bd = d * fr.cap and bs = s * fr.cap and n = fr.nlanes in
  if mask.Exec.active = n then
    match sh with Row -> Array.blit vf bs vf bd n | Uni -> Array.fill vf bd n y
  else
    let lanes = mask.Exec.lanes in
    for i = 0 to mask.Exec.active - 1 do
      let l = Array.unsafe_get lanes i in
      Array.unsafe_set vf (bd + l) (fget sh vf bs l y)
    done

let[@inline] imerge sh d s (y : int) fr (mask : Exec.mask) =
  let vi = fr.vi and bd = d * fr.cap and bs = s * fr.cap and n = fr.nlanes in
  if mask.Exec.active = n then
    match sh with Row -> Array.blit vi bs vi bd n | Uni -> Array.fill vi bd n y
  else
    let lanes = mask.Exec.lanes in
    for i = 0 to mask.Exec.active - 1 do
      let l = Array.unsafe_get lanes i in
      Array.unsafe_set vi (bd + l) (iget sh vi bs l y)
    done

let[@inline] bmerge sh d s (y : Memory.buf) fr (mask : Exec.mask) =
  let vb = fr.vb and bd = d * fr.cap and bs = s * fr.cap and n = fr.nlanes in
  if mask.Exec.active = n then
    match sh with Row -> Array.blit vb bs vb bd n | Uni -> Array.fill vb bd n y
  else
    let lanes = mask.Exec.lanes in
    for i = 0 to mask.Exec.active - 1 do
      let l = Array.unsafe_get lanes i in
      Array.unsafe_set vb (bd + l) (bget sh vb bs l y)
    done

(** Masked conversion into row [d] from the row [s] of the other
    kind: int to float when [to_float], else float to int. *)
let[@inline] cvt_lanes to_float d s fr (mask : Exec.mask) =
  let vf = fr.vf and vi = fr.vi and bd = d * fr.cap and bs = s * fr.cap and n = fr.nlanes in
  if mask.Exec.active = n then
    for l = 0 to n - 1 do
      if to_float then Array.unsafe_set vf (bd + l) (float_of_int (Array.unsafe_get vi (bs + l)))
      else Array.unsafe_set vi (bd + l) (int_of_float (Array.unsafe_get vf (bs + l)))
    done
  else
    let lanes = mask.Exec.lanes in
    for i = 0 to mask.Exec.active - 1 do
      let l = Array.unsafe_get lanes i in
      if to_float then Array.unsafe_set vf (bd + l) (float_of_int (Array.unsafe_get vi (bs + l)))
      else Array.unsafe_set vi (bd + l) (int_of_float (Array.unsafe_get vf (bs + l)))
    done

(** What {!ubuf_lanes} moves per lane, named by the varying bank it
    reads or writes. *)
type move = Load_f | Load_i | Store_f | Store_i

(** One lane [l] of {!ubuf_lanes} on a float-backed buffer. *)
let[@inline] fmove mv ish sh (b : Memory.buf) (arr : float array) bb len esz vf vi addrs bi iu bs
    (uf : float) (ui : int) l =
  let i = iget ish vi bi l iu in
  if i < 0 || i >= len then Memory.check_bounds b i;
  Array.unsafe_set addrs l (bb + (i * esz));
  match mv with
  | Load_f -> Array.unsafe_set vf (bs + l) (Array.unsafe_get arr i)
  | Load_i -> Array.unsafe_set vi (bs + l) (int_of_float (Array.unsafe_get arr i))
  | Store_f -> Array.unsafe_set arr i (fget sh vf bs l uf)
  | Store_i -> Array.unsafe_set arr i (float_of_int (iget sh vi bs l ui))

(** One lane [l] of {!ubuf_lanes} on an int-backed buffer. *)
let[@inline] imove mv ish sh (b : Memory.buf) (arr : int array) bb len esz vf vi addrs bi iu bs
    (uf : float) (ui : int) l =
  let i = iget ish vi bi l iu in
  if i < 0 || i >= len then Memory.check_bounds b i;
  Array.unsafe_set addrs l (bb + (i * esz));
  match mv with
  | Load_f -> Array.unsafe_set vf (bs + l) (float_of_int (Array.unsafe_get arr i))
  | Load_i -> Array.unsafe_set vi (bs + l) (Array.unsafe_get arr i)
  | Store_f -> Array.unsafe_set arr i (int_of_float (fget sh vf bs l uf))
  | Store_i -> Array.unsafe_set arr i (iget sh vi bs l ui)

(** The canonical kernel access: uniform buffer [b] indexed by the int
    row [si], or by the scalar [iu] when [ish] is [Uni] (a broadcast
    access), with the buffer and its data-representation match
    hoisted out of the lane loop. Loads write row [s]; stores read row
    [s], or the scalar [uf]/[ui] when [sh] is [Uni]. Stores run in
    lane order, so at a uniform index the last active lane's value
    stays. *)
let[@inline] ubuf_lanes mv ish sh (b : Memory.buf) si (iu : int) s (uf : float) (ui : int) fr
    (mask : Exec.mask) =
  let cap = fr.cap and n = fr.nlanes in
  let bi = si * cap and bs = s * cap in
  let vf = fr.vf and vi = fr.vi and addrs = fr.addrs in
  let bb = b.Memory.base and len = b.Memory.len and esz = Memory.elt_size b in
  let lanes = mask.Exec.lanes and na = mask.Exec.active in
  match b.Memory.data with
  | Memory.F arr ->
      if na = n then
        for l = 0 to n - 1 do
          (fmove [@inlined]) mv ish sh b arr bb len esz vf vi addrs bi iu bs uf ui l
        done
      else
        for k = 0 to na - 1 do
          (fmove [@inlined]) mv ish sh b arr bb len esz vf vi addrs bi iu bs uf ui
            (Array.unsafe_get lanes k)
        done
  | Memory.I arr ->
      if na = n then
        for l = 0 to n - 1 do
          (imove [@inlined]) mv ish sh b arr bb len esz vf vi addrs bi iu bs uf ui l
        done
      else
        for k = 0 to na - 1 do
          (imove [@inlined]) mv ish sh b arr bb len esz vf vi addrs bi iu bs uf ui
            (Array.unsafe_get lanes k)
        done

(* ------------------------------------------------------------------ *)
(* Copies                                                              *)
(* ------------------------------------------------------------------ *)

(** Copy [src] into [dst] over all lanes (a direct rebind in the
    interpreter: init binding, uniform-branch result binding, loop
    results). A uniform source into a varying destination broadcasts. *)
let copy_full (src : loc) (dst : loc) : frame -> unit =
  let d = dst.l_slot and s = src.l_slot in
  match (dst.l_kind, dst.l_varying, src.l_kind, src.l_varying) with
  (* same-kind moves: register assigns and bank-row blits *)
  | KInt, false, KInt, false -> fun fr -> fr.ui.(d) <- fr.ui.(s)
  | KFloat, false, KFloat, false -> fun fr -> fr.uf.(d) <- fr.uf.(s)
  | KBuf, false, KBuf, false -> fun fr -> fr.ub.(d) <- fr.ub.(s)
  | KInt, true, KInt, true ->
      fun fr -> Array.blit fr.vi (s * fr.cap) fr.vi (d * fr.cap) fr.nlanes
  | KFloat, true, KFloat, true ->
      fun fr -> Array.blit fr.vf (s * fr.cap) fr.vf (d * fr.cap) fr.nlanes
  | KBuf, true, KBuf, true ->
      fun fr -> Array.blit fr.vb (s * fr.cap) fr.vb (d * fr.cap) fr.nlanes
  (* scalar broadcasts: read once, fill the row *)
  | KInt, true, (KInt | KFloat), false ->
      let r = ru_int src in
      fun fr -> Array.fill fr.vi (d * fr.cap) fr.nlanes (r fr)
  | KFloat, true, (KInt | KFloat), false ->
      let r = ru_float src in
      fun fr -> Array.fill fr.vf (d * fr.cap) fr.nlanes (r fr)
  | KBuf, true, KBuf, false -> fun fr -> Array.fill fr.vb (d * fr.cap) fr.nlanes fr.ub.(s)
  (* coercions (a cast converts under its mask, {!copy_masked}) and
     kind errors: checked readers *)
  | KInt, false, _, _ ->
      let r = ru_int src in
      fun fr -> fr.ui.(d) <- r fr
  | KFloat, false, _, _ ->
      let r = ru_float src in
      fun fr -> fr.uf.(d) <- r fr
  | KBuf, false, _, _ ->
      let r = ru_buf src in
      fun fr -> fr.ub.(d) <- r fr
  | KInt, true, _, _ ->
      let r = rd_int src in
      fun fr ->
        let base = d * fr.cap in
        for l = 0 to fr.nlanes - 1 do
          fr.vi.(base + l) <- r fr l
        done
  | KFloat, true, _, _ ->
      let r = rd_float src in
      fun fr ->
        let base = d * fr.cap in
        for l = 0 to fr.nlanes - 1 do
          fr.vf.(base + l) <- r fr l
        done
  | KBuf, true, _, _ ->
      let r = rd_buf src in
      fun fr ->
        let base = d * fr.cap in
        for l = 0 to fr.nlanes - 1 do
          fr.vb.(base + l) <- r fr l
        done

(** Masked copy: the mask's lanes take [src], others keep the
    destination's previous contents — the interpreter's
    [merge_masked]/[merge_branch] on a fresh-slot destination, and a
    cast under a mask. *)
let copy_masked (src : loc) (dst : loc) : frame -> Exec.mask -> unit =
  let d = dst.l_slot and s = src.l_slot in
  match (dst.l_kind, dst.l_varying, src.l_kind, src.l_varying) with
  (* same-kind row merges, int/float row conversions and scalar
     broadcasts under mask *)
  | KInt, true, KInt, true -> fun fr m -> (imerge [@inlined]) Row d s 0 fr m
  | KFloat, true, KFloat, true -> fun fr m -> (fmerge [@inlined]) Row d s 0. fr m
  | KBuf, true, KBuf, true -> fun fr m -> (bmerge [@inlined]) Row d s dummy_buf fr m
  | KFloat, true, KInt, true -> fun fr m -> (cvt_lanes [@inlined]) true d s fr m
  | KInt, true, KFloat, true -> fun fr m -> (cvt_lanes [@inlined]) false d s fr m
  | KInt, true, (KInt | KFloat), false ->
      let r = ru_int src in
      fun fr m -> (imerge [@inlined]) Uni d 0 (r fr) fr m
  | KFloat, true, (KInt | KFloat), false ->
      let r = ru_float src in
      fun fr m -> (fmerge [@inlined]) Uni d 0 (r fr) fr m
  | KBuf, true, KBuf, false -> fun fr m -> (bmerge [@inlined]) Uni d 0 fr.ub.(s) fr m
  (* kind errors: checked per-lane readers *)
  | KInt, true, _, _ ->
      let r = rd_int src in
      fun fr mask ->
        let base = d * fr.cap and lanes = mask.Exec.lanes in
        for i = 0 to mask.Exec.active - 1 do
          let l = lanes.(i) in
          fr.vi.(base + l) <- r fr l
        done
  | KFloat, true, _, _ ->
      let r = rd_float src in
      fun fr mask ->
        let base = d * fr.cap and lanes = mask.Exec.lanes in
        for i = 0 to mask.Exec.active - 1 do
          let l = lanes.(i) in
          fr.vf.(base + l) <- r fr l
        done
  | KBuf, true, _, _ ->
      let r = rd_buf src in
      fun fr mask ->
        let base = d * fr.cap and lanes = mask.Exec.lanes in
        for i = 0 to mask.Exec.active - 1 do
          let l = lanes.(i) in
          fr.vb.(base + l) <- r fr l
        done
  | (KInt | KFloat | KBuf), false, _, _ ->
      (* a uniform destination: a cast of a uniform value, or a merge
         the analysis never makes (it marks every merge destination
         varying) *)
      let c = copy_full src dst in
      fun fr _ -> c fr

let seq (cs : (frame -> unit) list) : frame -> unit =
  match cs with
  | [] -> fun _ -> ()
  | [ c ] -> c
  | _ ->
      (* an indexed loop: [Array.iter] would build a closure per call *)
      let a = Array.of_list cs in
      fun fr ->
        for k = 0 to Array.length a - 1 do
          (Array.unsafe_get a k) fr
        done

(** Copies for a parallel rebind [(src, dst) list]. The interpreter
    reads every source before writing any destination; when a source
    is itself a destination (a yield permuting its own iter-args),
    route all copies through fresh temporaries. *)
let copies_full st (pairs : (loc * loc) list) : frame -> unit =
  let dsts = List.map snd pairs in
  if List.exists (fun (s, _) -> List.exists (loc_same s) dsts) pairs then
    let staged = List.map (fun (s, d) -> (s, temp_loc st s, d)) pairs in
    let pre = seq (List.map (fun (s, t, _) -> copy_full s t) staged) in
    let post = seq (List.map (fun (_, t, d) -> copy_full t d) staged) in
    fun fr ->
      pre fr;
      post fr
  else seq (List.map (fun (s, d) -> copy_full s d) pairs)

let copies_masked st (pairs : (loc * loc) list) : frame -> Exec.mask -> unit =
  let direct ps =
    match List.map (fun (s, d) -> copy_masked s d) ps with
    | [] -> fun _ _ -> ()
    | [ c ] -> c
    | cs ->
        let a = Array.of_list cs in
        fun fr mask ->
          for k = 0 to Array.length a - 1 do
            (Array.unsafe_get a k) fr mask
          done
  in
  let dsts = List.map snd pairs in
  if List.exists (fun (s, _) -> List.exists (loc_same s) dsts) pairs then begin
    let staged = List.map (fun (s, d) -> (s, temp_loc st s, d)) pairs in
    let pre = seq (List.map (fun (s, t, _) -> copy_full s t) staged) in
    let post = direct (List.map (fun (_, t, d) -> (t, d)) staged) in
    fun fr mask ->
      pre fr;
      post fr mask
  end
  else direct pairs

(* ------------------------------------------------------------------ *)
(* Uniformity analysis                                                 *)
(* ------------------------------------------------------------------ *)

let yield_of b = match List.rev b with Instr.Yield vs :: _ -> Some vs | _ -> None

let yield_while_of b =
  match List.rev b with Instr.Yield_while (c, vs) :: _ -> Some (c, vs) | _ -> None

(** Which values are (statically) varying: a monotone fixpoint.
    [vec] — inside a thread-level parallel; [div] — the lane mask may
    be partial at this point (divergent branch, masked loop body).
    Only [While] iter-args care about [div]: their per-iteration merge
    vectorizes under a partial mask even with a uniform condition. *)
let analyze (body : Instr.block) : unit Value.Tbl.t =
  let var = Value.Tbl.create 256 in
  let changed = ref true in
  let is_var v = Value.Tbl.mem var v in
  let mark v =
    if not (Value.Tbl.mem var v) then begin
      Value.Tbl.replace var v ();
      changed := true
    end
  in
  let rec block ~vec ~div b = List.iter (instr ~vec ~div) b
  and instr ~vec ~div (i : Instr.instr) =
    match i with
    | Instr.Let (v, e) ->
        if vec then (
          match e with
          | Instr.Const _ -> ()
          | Instr.Load _ -> mark v
          | Instr.Binop (_, a, b) | Instr.Cmp (_, a, b) -> if is_var a || is_var b then mark v
          | Instr.Unop (_, a) | Instr.Cast a -> if is_var a then mark v
          | Instr.Select (c, a, b) -> if is_var c || is_var a || is_var b then mark v)
    | Instr.If { cond; results; then_; else_ } ->
        let dv = vec && is_var cond in
        block ~vec ~div:(div || dv) then_;
        block ~vec ~div:(div || dv) else_;
        if dv then List.iter mark results
        else
          List.iter
            (fun br ->
              match yield_of br with
              | Some vs when List.length vs = List.length results ->
                  List.iter2 (fun r y -> if is_var y then mark r) results vs
              | _ -> ())
            [ then_; else_ ]
    | Instr.For { iv; lb; ub; step; iter_args; inits; results; body } ->
        let bv = vec && (is_var lb || is_var ub || is_var step) in
        if bv then begin
          mark iv;
          List.iter mark iter_args
        end;
        List.iter2 (fun a i0 -> if is_var i0 then mark a) iter_args inits;
        (match yield_of body with
        | Some vs when List.length vs = List.length iter_args ->
            List.iter2 (fun a y -> if is_var y then mark a) iter_args vs
        | _ -> ());
        block ~vec ~div:(div || bv) body;
        List.iter2 (fun r a -> if is_var a then mark r) results iter_args
    | Instr.While { iter_args; inits; results; body } ->
        let cv =
          vec && (match yield_while_of body with Some (c, _) -> is_var c | None -> false)
        in
        if vec && (div || cv) then List.iter mark iter_args;
        List.iter2 (fun a i0 -> if is_var i0 then mark a) iter_args inits;
        (match yield_while_of body with
        | Some (_, vs) when List.length vs = List.length iter_args ->
            List.iter2 (fun a y -> if is_var y then mark a) iter_args vs
        | _ -> ());
        block ~vec ~div:(div || cv) body;
        List.iter2 (fun r a -> if is_var a then mark r) results iter_args
    | Instr.Parallel { level = Instr.Threads; ivs; body; _ } ->
        List.iter mark ivs;
        block ~vec:true ~div:false body
    | Instr.Parallel { level = Instr.Blocks; body; _ } -> block ~vec ~div body
    | Instr.Store _ | Instr.Barrier _ | Instr.Alloc_shared _ | Instr.Alloc _ | Instr.Free _
    | Instr.Memcpy _ | Instr.Gpu_wrapper _ | Instr.Alternatives _ | Instr.Intrinsic _
    | Instr.Yield _ | Instr.Yield_while _ | Instr.Return _ ->
        ()
  in
  while !changed do
    changed := false;
    block ~vec:false ~div:false body
  done;
  var

(* ------------------------------------------------------------------ *)
(* Memory-operation codegen                                            *)
(* ------------------------------------------------------------------ *)

(** The modelling half of a memory access: optional race recording,
    space resolution (with the shared-as-global demotion read
    dynamically), then the shared request model {!Exec.requests}. The
    functional half is inlined per load/store kind. *)
let mem_model (rb : frame -> int -> Memory.buf) ~is_store fr (mask : Exec.mask) =
  let lanes = mask.Exec.lanes and na = mask.Exec.active in
  let addrs = fr.addrs in
  (match fr.m.Exec.racecheck with
  | None -> ()
  | Some rc ->
      for i = 0 to na - 1 do
        let l = lanes.(i) in
        if (rb fr l).Memory.space = Types.Shared then
          Racecheck.record rc ~is_store ~lane:l ~addr:addrs.(l)
      done);
  (* the first active lane's buffer names the space *)
  let space = if na = 0 then Types.Global else (rb fr lanes.(0)).Memory.space in
  let effective =
    match space with Types.Shared when fr.m.Exec.shared_as_global -> Types.Global | sp -> sp
  in
  Exec.requests fr.ctx ~is_store effective addrs mask

let set_op_hook opname fr =
  match fr.m.Exec.racecheck with None -> () | Some rc -> Racecheck.set_op rc opname

(** How an access indexes its buffer. [Irow] and [Iuni] — a uniform
    buffer at an int row or at a uniform scalar — run {!ubuf_lanes};
    [Ilanes] — a varying buffer, or an index of another kind — reads
    both per lane through the generic readers. *)
type index = Irow of int | Iuni | Ilanes

let index_of (lmem : loc) (lidx : loc) =
  if lmem.l_kind <> KBuf || lmem.l_varying then Ilanes
  else
    match vi_slot lidx with Some si -> Irow si | None -> if uni_scalar lidx then Iuni else Ilanes

let compile_load st (v : Value.t) (mem : Value.t) (idx : Value.t) : code =
  let lmem = loc_of st mem and lidx = loc_of st idx in
  if not (Types.is_memref mem.Value.ty) then begin
    ignore (new_loc st v);
    fun _ _ -> invalid_arg "exec: expected buffer"
  end
  else begin
    let rb = rd_buf lmem and ri = rd_int lidx in
    let opname = Fmt.str "load %a" Value.pp mem in
    let felt = Types.is_float (Types.elem mem.Value.ty) in
    (* the value holds the element's kind whatever its own type, as
       the interpreter's does: each use coerces it *)
    let lv = new_loc ~kind:(if felt then KFloat else KInt) st v in
    let s = lv.l_slot in
    let sm = lmem.l_slot in
    let functional : frame -> Exec.mask -> unit =
      match (felt, lv.l_varying, index_of lmem lidx) with
      | true, true, Irow si ->
          fun fr m -> (ubuf_lanes [@inlined]) Load_f Row Row fr.ub.(sm) si 0 s 0. 0 fr m
      | true, true, Iuni ->
          let ru = ru_int lidx in
          fun fr m -> (ubuf_lanes [@inlined]) Load_f Uni Row fr.ub.(sm) 0 (ru fr) s 0. 0 fr m
      | false, true, Irow si ->
          fun fr m -> (ubuf_lanes [@inlined]) Load_i Row Row fr.ub.(sm) si 0 s 0. 0 fr m
      | false, true, Iuni ->
          let ru = ru_int lidx in
          fun fr m -> (ubuf_lanes [@inlined]) Load_i Uni Row fr.ub.(sm) 0 (ru fr) s 0. 0 fr m
      | true, true, Ilanes ->
          fun fr mask ->
            let lanes = mask.Exec.lanes in
            let base = s * fr.cap in
            for k = 0 to mask.Exec.active - 1 do
              let l = lanes.(k) in
              let b = rb fr l in
              let i = ri fr l in
              fr.addrs.(l) <- Memory.addr b i;
              fr.vf.(base + l) <- Memory.get_f b i
            done
      | false, true, Ilanes ->
          fun fr mask ->
            let lanes = mask.Exec.lanes in
            let base = s * fr.cap in
            for k = 0 to mask.Exec.active - 1 do
              let l = lanes.(k) in
              let b = rb fr l in
              let i = ri fr l in
              fr.addrs.(l) <- Memory.addr b i;
              fr.vi.(base + l) <- Memory.get_i b i
            done
      | _, false, _ ->
          (* uniform destination: only reachable at [nlanes = 1] (block
             zone); the interpreter's n=1 path binds a uniform scalar *)
          fun fr mask ->
            if mask.Exec.active > 0 then begin
              let b = rb fr 0 in
              let i = ri fr 0 in
              fr.addrs.(0) <- Memory.addr b i;
              if felt then fr.uf.(s) <- Memory.get_f b i else fr.ui.(s) <- Memory.get_i b i
            end
            else if felt then fr.uf.(s) <- 0.
            else fr.ui.(s) <- 0
    in
    fun fr mask ->
      set_op_hook opname fr;
      functional fr mask;
      mem_model rb ~is_store:false fr mask
  end

let compile_store st (mem : Value.t) (idx : Value.t) (v : Value.t) : code =
  let lmem = loc_of st mem and lidx = loc_of st idx and lval = loc_of st v in
  if not (Types.is_memref mem.Value.ty) then fun _ _ -> invalid_arg "exec: expected buffer"
  else begin
    let rb = rd_buf lmem and ri = rd_int lidx in
    let opname = Fmt.str "store %a" Value.pp mem in
    let felt = Types.is_float (Types.elem mem.Value.ty) in
    let sm = lmem.l_slot and sv = lval.l_slot in
    let row_val = if felt then vf_slot lval <> None else vi_slot lval <> None in
    let functional : frame -> Exec.mask -> unit =
      match (felt, index_of lmem lidx) with
      | true, Irow si when row_val ->
          fun fr m -> (ubuf_lanes [@inlined]) Store_f Row Row fr.ub.(sm) si 0 sv 0. 0 fr m
      | true, Irow si when uni_scalar lval ->
          let rv = ru_float lval in
          fun fr m -> (ubuf_lanes [@inlined]) Store_f Row Uni fr.ub.(sm) si 0 0 (rv fr) 0 fr m
      | true, Iuni when row_val ->
          let ru = ru_int lidx in
          fun fr m -> (ubuf_lanes [@inlined]) Store_f Uni Row fr.ub.(sm) 0 (ru fr) sv 0. 0 fr m
      | true, Iuni when uni_scalar lval ->
          let ru = ru_int lidx and rv = ru_float lval in
          fun fr m ->
            (ubuf_lanes [@inlined]) Store_f Uni Uni fr.ub.(sm) 0 (ru fr) 0 (rv fr) 0 fr m
      | false, Irow si when row_val ->
          fun fr m -> (ubuf_lanes [@inlined]) Store_i Row Row fr.ub.(sm) si 0 sv 0. 0 fr m
      | false, Irow si when uni_scalar lval ->
          let rv = ru_int lval in
          fun fr m -> (ubuf_lanes [@inlined]) Store_i Row Uni fr.ub.(sm) si 0 0 0. (rv fr) fr m
      | false, Iuni when row_val ->
          let ru = ru_int lidx in
          fun fr m -> (ubuf_lanes [@inlined]) Store_i Uni Row fr.ub.(sm) 0 (ru fr) sv 0. 0 fr m
      | false, Iuni when uni_scalar lval ->
          let ru = ru_int lidx and rv = ru_int lval in
          fun fr m ->
            (ubuf_lanes [@inlined]) Store_i Uni Uni fr.ub.(sm) 0 (ru fr) 0 0. (rv fr) fr m
      | true, _ ->
          let rv = rd_float lval in
          fun fr mask ->
            let lanes = mask.Exec.lanes in
            for k = 0 to mask.Exec.active - 1 do
              let l = lanes.(k) in
              let b = rb fr l in
              let i = ri fr l in
              Memory.check_bounds b i;
              fr.addrs.(l) <- Memory.addr b i;
              Memory.set_f b i (rv fr l)
            done
      | false, _ ->
          let rv = rd_int lval in
          fun fr mask ->
            let lanes = mask.Exec.lanes in
            for k = 0 to mask.Exec.active - 1 do
              let l = lanes.(k) in
              let b = rb fr l in
              let i = ri fr l in
              Memory.check_bounds b i;
              fr.addrs.(l) <- Memory.addr b i;
              Memory.set_i b i (rv fr l)
            done
    in
    fun fr mask ->
      set_op_hook opname fr;
      functional fr mask;
      mem_model rb ~is_store:true fr mask
  end

(* ------------------------------------------------------------------ *)
(* Expression codegen                                                  *)
(* ------------------------------------------------------------------ *)

(** Ill-typed arithmetic on buffer operands: count the issue like the
    interpreter, then raise the error its evaluation path would. *)
let kbuf_arith_fail (ops_varying : bool) cls : code =
  let msg =
    if ops_varying then "exec: buffer used as integer" else "exec: expected uniform scalar"
  in
  fun fr mask ->
    Exec.count_op fr.ctx mask cls;
    invalid_arg msg

(* The dispatchers below write a varying slot [d]. Each matches the
   operator once per instruction and instantiates its template with
   every constructor written out; other operand shapes, and operators
   [Ops] rejects for the kind, take the generic per-lane readers. *)

let fbin_code cls op d (la : loc) (lb : loc) : code =
  let generic () =
    let ra = rd_float la and rb = rd_float lb in
    fun fr mask ->
      Exec.count_op fr.ctx mask cls;
      let base = d * fr.cap and lanes = mask.Exec.lanes in
      for i = 0 to mask.Exec.active - 1 do
        let l = lanes.(i) in
        fr.vf.(base + l) <- Ops.eval_float_binop op (ra fr l) (rb fr l)
      done
  in
  match (vf_slot la, vf_slot lb) with
  | Some a, Some b -> (
      match op with
      | Ops.Add -> fun fr m -> (fbin_lanes [@inlined]) Ops.Add Row Row cls d a b 0. 0. fr m
      | Ops.Sub -> fun fr m -> (fbin_lanes [@inlined]) Ops.Sub Row Row cls d a b 0. 0. fr m
      | Ops.Mul -> fun fr m -> (fbin_lanes [@inlined]) Ops.Mul Row Row cls d a b 0. 0. fr m
      | Ops.Div -> fun fr m -> (fbin_lanes [@inlined]) Ops.Div Row Row cls d a b 0. 0. fr m
      | Ops.Rem -> fun fr m -> (fbin_lanes [@inlined]) Ops.Rem Row Row cls d a b 0. 0. fr m
      | Ops.Min -> fun fr m -> (fbin_lanes [@inlined]) Ops.Min Row Row cls d a b 0. 0. fr m
      | Ops.Max -> fun fr m -> (fbin_lanes [@inlined]) Ops.Max Row Row cls d a b 0. 0. fr m
      | Ops.Pow -> fun fr m -> (fbin_lanes [@inlined]) Ops.Pow Row Row cls d a b 0. 0. fr m
      | Ops.And | Ops.Or | Ops.Xor | Ops.Shl | Ops.Shr -> generic ())
  | Some a, None when uni_scalar lb -> (
      let ry = ru_float lb in
      match op with
      | Ops.Add -> fun fr m -> (fbin_lanes [@inlined]) Ops.Add Row Uni cls d a 0 0. (ry fr) fr m
      | Ops.Sub -> fun fr m -> (fbin_lanes [@inlined]) Ops.Sub Row Uni cls d a 0 0. (ry fr) fr m
      | Ops.Mul -> fun fr m -> (fbin_lanes [@inlined]) Ops.Mul Row Uni cls d a 0 0. (ry fr) fr m
      | Ops.Div -> fun fr m -> (fbin_lanes [@inlined]) Ops.Div Row Uni cls d a 0 0. (ry fr) fr m
      | Ops.Rem -> fun fr m -> (fbin_lanes [@inlined]) Ops.Rem Row Uni cls d a 0 0. (ry fr) fr m
      | Ops.Min -> fun fr m -> (fbin_lanes [@inlined]) Ops.Min Row Uni cls d a 0 0. (ry fr) fr m
      | Ops.Max -> fun fr m -> (fbin_lanes [@inlined]) Ops.Max Row Uni cls d a 0 0. (ry fr) fr m
      | Ops.Pow -> fun fr m -> (fbin_lanes [@inlined]) Ops.Pow Row Uni cls d a 0 0. (ry fr) fr m
      | Ops.And | Ops.Or | Ops.Xor | Ops.Shl | Ops.Shr -> generic ())
  | None, Some b when uni_scalar la -> (
      let rx = ru_float la in
      match op with
      | Ops.Add -> fun fr m -> (fbin_lanes [@inlined]) Ops.Add Uni Row cls d 0 b (rx fr) 0. fr m
      | Ops.Sub -> fun fr m -> (fbin_lanes [@inlined]) Ops.Sub Uni Row cls d 0 b (rx fr) 0. fr m
      | Ops.Mul -> fun fr m -> (fbin_lanes [@inlined]) Ops.Mul Uni Row cls d 0 b (rx fr) 0. fr m
      | Ops.Div -> fun fr m -> (fbin_lanes [@inlined]) Ops.Div Uni Row cls d 0 b (rx fr) 0. fr m
      | Ops.Rem -> fun fr m -> (fbin_lanes [@inlined]) Ops.Rem Uni Row cls d 0 b (rx fr) 0. fr m
      | Ops.Min -> fun fr m -> (fbin_lanes [@inlined]) Ops.Min Uni Row cls d 0 b (rx fr) 0. fr m
      | Ops.Max -> fun fr m -> (fbin_lanes [@inlined]) Ops.Max Uni Row cls d 0 b (rx fr) 0. fr m
      | Ops.Pow -> fun fr m -> (fbin_lanes [@inlined]) Ops.Pow Uni Row cls d 0 b (rx fr) 0. fr m
      | Ops.And | Ops.Or | Ops.Xor | Ops.Shl | Ops.Shr -> generic ())
  | _ -> generic ()

let ibin_code cls op d (la : loc) (lb : loc) : code =
  let generic () =
    let ra = rd_int la and rb = rd_int lb in
    fun fr mask ->
      Exec.count_op fr.ctx mask cls;
      let base = d * fr.cap and lanes = mask.Exec.lanes in
      for i = 0 to mask.Exec.active - 1 do
        let l = lanes.(i) in
        fr.vi.(base + l) <- Ops.eval_int_binop op (ra fr l) (rb fr l)
      done
  in
  match (vi_slot la, vi_slot lb) with
  | Some a, Some b -> (
      match op with
      | Ops.Add -> fun fr m -> (ibin_lanes [@inlined]) Ops.Add Row Row cls d a b 0 0 fr m
      | Ops.Sub -> fun fr m -> (ibin_lanes [@inlined]) Ops.Sub Row Row cls d a b 0 0 fr m
      | Ops.Mul -> fun fr m -> (ibin_lanes [@inlined]) Ops.Mul Row Row cls d a b 0 0 fr m
      | Ops.Div -> fun fr m -> (ibin_lanes [@inlined]) Ops.Div Row Row cls d a b 0 0 fr m
      | Ops.Rem -> fun fr m -> (ibin_lanes [@inlined]) Ops.Rem Row Row cls d a b 0 0 fr m
      | Ops.And -> fun fr m -> (ibin_lanes [@inlined]) Ops.And Row Row cls d a b 0 0 fr m
      | Ops.Or -> fun fr m -> (ibin_lanes [@inlined]) Ops.Or Row Row cls d a b 0 0 fr m
      | Ops.Xor -> fun fr m -> (ibin_lanes [@inlined]) Ops.Xor Row Row cls d a b 0 0 fr m
      | Ops.Shl -> fun fr m -> (ibin_lanes [@inlined]) Ops.Shl Row Row cls d a b 0 0 fr m
      | Ops.Shr -> fun fr m -> (ibin_lanes [@inlined]) Ops.Shr Row Row cls d a b 0 0 fr m
      | Ops.Min -> fun fr m -> (ibin_lanes [@inlined]) Ops.Min Row Row cls d a b 0 0 fr m
      | Ops.Max -> fun fr m -> (ibin_lanes [@inlined]) Ops.Max Row Row cls d a b 0 0 fr m
      | Ops.Pow -> generic ())
  | Some a, None when uni_scalar lb -> (
      let ry = ru_int lb in
      match op with
      | Ops.Add -> fun fr m -> (ibin_lanes [@inlined]) Ops.Add Row Uni cls d a 0 0 (ry fr) fr m
      | Ops.Sub -> fun fr m -> (ibin_lanes [@inlined]) Ops.Sub Row Uni cls d a 0 0 (ry fr) fr m
      | Ops.Mul -> fun fr m -> (ibin_lanes [@inlined]) Ops.Mul Row Uni cls d a 0 0 (ry fr) fr m
      | Ops.Div -> fun fr m -> (ibin_lanes [@inlined]) Ops.Div Row Uni cls d a 0 0 (ry fr) fr m
      | Ops.Rem -> fun fr m -> (ibin_lanes [@inlined]) Ops.Rem Row Uni cls d a 0 0 (ry fr) fr m
      | Ops.And -> fun fr m -> (ibin_lanes [@inlined]) Ops.And Row Uni cls d a 0 0 (ry fr) fr m
      | Ops.Or -> fun fr m -> (ibin_lanes [@inlined]) Ops.Or Row Uni cls d a 0 0 (ry fr) fr m
      | Ops.Xor -> fun fr m -> (ibin_lanes [@inlined]) Ops.Xor Row Uni cls d a 0 0 (ry fr) fr m
      | Ops.Shl -> fun fr m -> (ibin_lanes [@inlined]) Ops.Shl Row Uni cls d a 0 0 (ry fr) fr m
      | Ops.Shr -> fun fr m -> (ibin_lanes [@inlined]) Ops.Shr Row Uni cls d a 0 0 (ry fr) fr m
      | Ops.Min -> fun fr m -> (ibin_lanes [@inlined]) Ops.Min Row Uni cls d a 0 0 (ry fr) fr m
      | Ops.Max -> fun fr m -> (ibin_lanes [@inlined]) Ops.Max Row Uni cls d a 0 0 (ry fr) fr m
      | Ops.Pow -> generic ())
  | None, Some b when uni_scalar la -> (
      let rx = ru_int la in
      match op with
      | Ops.Add -> fun fr m -> (ibin_lanes [@inlined]) Ops.Add Uni Row cls d 0 b (rx fr) 0 fr m
      | Ops.Sub -> fun fr m -> (ibin_lanes [@inlined]) Ops.Sub Uni Row cls d 0 b (rx fr) 0 fr m
      | Ops.Mul -> fun fr m -> (ibin_lanes [@inlined]) Ops.Mul Uni Row cls d 0 b (rx fr) 0 fr m
      | Ops.Div -> fun fr m -> (ibin_lanes [@inlined]) Ops.Div Uni Row cls d 0 b (rx fr) 0 fr m
      | Ops.Rem -> fun fr m -> (ibin_lanes [@inlined]) Ops.Rem Uni Row cls d 0 b (rx fr) 0 fr m
      | Ops.And -> fun fr m -> (ibin_lanes [@inlined]) Ops.And Uni Row cls d 0 b (rx fr) 0 fr m
      | Ops.Or -> fun fr m -> (ibin_lanes [@inlined]) Ops.Or Uni Row cls d 0 b (rx fr) 0 fr m
      | Ops.Xor -> fun fr m -> (ibin_lanes [@inlined]) Ops.Xor Uni Row cls d 0 b (rx fr) 0 fr m
      | Ops.Shl -> fun fr m -> (ibin_lanes [@inlined]) Ops.Shl Uni Row cls d 0 b (rx fr) 0 fr m
      | Ops.Shr -> fun fr m -> (ibin_lanes [@inlined]) Ops.Shr Uni Row cls d 0 b (rx fr) 0 fr m
      | Ops.Min -> fun fr m -> (ibin_lanes [@inlined]) Ops.Min Uni Row cls d 0 b (rx fr) 0 fr m
      | Ops.Max -> fun fr m -> (ibin_lanes [@inlined]) Ops.Max Uni Row cls d 0 b (rx fr) 0 fr m
      | Ops.Pow -> generic ())
  | _ -> generic ()

let fun_code cls op d (la : loc) : code =
  match vf_slot la with
  | Some a -> (
      match op with
      | Ops.Neg -> fun fr m -> (fun_lanes [@inlined]) Ops.Neg cls d a fr m
      | Ops.Sqrt -> fun fr m -> (fun_lanes [@inlined]) Ops.Sqrt cls d a fr m
      | Ops.Exp -> fun fr m -> (fun_lanes [@inlined]) Ops.Exp cls d a fr m
      | Ops.Log -> fun fr m -> (fun_lanes [@inlined]) Ops.Log cls d a fr m
      | Ops.Sin -> fun fr m -> (fun_lanes [@inlined]) Ops.Sin cls d a fr m
      | Ops.Cos -> fun fr m -> (fun_lanes [@inlined]) Ops.Cos cls d a fr m
      | Ops.Abs -> fun fr m -> (fun_lanes [@inlined]) Ops.Abs cls d a fr m
      | Ops.Floor -> fun fr m -> (fun_lanes [@inlined]) Ops.Floor cls d a fr m
      | Ops.Ceil -> fun fr m -> (fun_lanes [@inlined]) Ops.Ceil cls d a fr m
      | Ops.Rsqrt -> fun fr m -> (fun_lanes [@inlined]) Ops.Rsqrt cls d a fr m
      | Ops.Not -> fun fr m -> (fun_lanes [@inlined]) Ops.Not cls d a fr m)
  | None ->
      let ra = rd_float la in
      fun fr mask ->
        Exec.count_op fr.ctx mask cls;
        let base = d * fr.cap and lanes = mask.Exec.lanes in
        for i = 0 to mask.Exec.active - 1 do
          let l = lanes.(i) in
          fr.vf.(base + l) <- Ops.eval_float_unop op (ra fr l)
        done

let fcmp_code op d (la : loc) (lb : loc) : code =
  match (vf_slot la, vf_slot lb) with
  | Some a, Some b -> (
      match op with
      | Ops.Eq -> fun fr m -> (fcmp_lanes [@inlined]) Ops.Eq Row Row d a b 0. 0. fr m
      | Ops.Ne -> fun fr m -> (fcmp_lanes [@inlined]) Ops.Ne Row Row d a b 0. 0. fr m
      | Ops.Lt -> fun fr m -> (fcmp_lanes [@inlined]) Ops.Lt Row Row d a b 0. 0. fr m
      | Ops.Le -> fun fr m -> (fcmp_lanes [@inlined]) Ops.Le Row Row d a b 0. 0. fr m
      | Ops.Gt -> fun fr m -> (fcmp_lanes [@inlined]) Ops.Gt Row Row d a b 0. 0. fr m
      | Ops.Ge -> fun fr m -> (fcmp_lanes [@inlined]) Ops.Ge Row Row d a b 0. 0. fr m)
  | Some a, None when uni_scalar lb -> (
      let ry = ru_float lb in
      match op with
      | Ops.Eq -> fun fr m -> (fcmp_lanes [@inlined]) Ops.Eq Row Uni d a 0 0. (ry fr) fr m
      | Ops.Ne -> fun fr m -> (fcmp_lanes [@inlined]) Ops.Ne Row Uni d a 0 0. (ry fr) fr m
      | Ops.Lt -> fun fr m -> (fcmp_lanes [@inlined]) Ops.Lt Row Uni d a 0 0. (ry fr) fr m
      | Ops.Le -> fun fr m -> (fcmp_lanes [@inlined]) Ops.Le Row Uni d a 0 0. (ry fr) fr m
      | Ops.Gt -> fun fr m -> (fcmp_lanes [@inlined]) Ops.Gt Row Uni d a 0 0. (ry fr) fr m
      | Ops.Ge -> fun fr m -> (fcmp_lanes [@inlined]) Ops.Ge Row Uni d a 0 0. (ry fr) fr m)
  | None, Some b when uni_scalar la -> (
      let rx = ru_float la in
      match op with
      | Ops.Eq -> fun fr m -> (fcmp_lanes [@inlined]) Ops.Eq Uni Row d 0 b (rx fr) 0. fr m
      | Ops.Ne -> fun fr m -> (fcmp_lanes [@inlined]) Ops.Ne Uni Row d 0 b (rx fr) 0. fr m
      | Ops.Lt -> fun fr m -> (fcmp_lanes [@inlined]) Ops.Lt Uni Row d 0 b (rx fr) 0. fr m
      | Ops.Le -> fun fr m -> (fcmp_lanes [@inlined]) Ops.Le Uni Row d 0 b (rx fr) 0. fr m
      | Ops.Gt -> fun fr m -> (fcmp_lanes [@inlined]) Ops.Gt Uni Row d 0 b (rx fr) 0. fr m
      | Ops.Ge -> fun fr m -> (fcmp_lanes [@inlined]) Ops.Ge Uni Row d 0 b (rx fr) 0. fr m)
  | _ ->
      let ra = rd_float la and rb = rd_float lb in
      fun fr mask ->
        Exec.count_op fr.ctx mask Exec.Cint;
        let base = d * fr.cap and lanes = mask.Exec.lanes in
        for i = 0 to mask.Exec.active - 1 do
          let l = lanes.(i) in
          fr.vi.(base + l) <- (if Ops.eval_float_cmp op (ra fr l) (rb fr l) then 1 else 0)
        done

let icmp_code op d (la : loc) (lb : loc) : code =
  match (vi_slot la, vi_slot lb) with
  | Some a, Some b -> (
      match op with
      | Ops.Eq -> fun fr m -> (icmp_lanes [@inlined]) Ops.Eq Row Row d a b 0 0 fr m
      | Ops.Ne -> fun fr m -> (icmp_lanes [@inlined]) Ops.Ne Row Row d a b 0 0 fr m
      | Ops.Lt -> fun fr m -> (icmp_lanes [@inlined]) Ops.Lt Row Row d a b 0 0 fr m
      | Ops.Le -> fun fr m -> (icmp_lanes [@inlined]) Ops.Le Row Row d a b 0 0 fr m
      | Ops.Gt -> fun fr m -> (icmp_lanes [@inlined]) Ops.Gt Row Row d a b 0 0 fr m
      | Ops.Ge -> fun fr m -> (icmp_lanes [@inlined]) Ops.Ge Row Row d a b 0 0 fr m)
  | Some a, None when uni_scalar lb -> (
      let ry = ru_int lb in
      match op with
      | Ops.Eq -> fun fr m -> (icmp_lanes [@inlined]) Ops.Eq Row Uni d a 0 0 (ry fr) fr m
      | Ops.Ne -> fun fr m -> (icmp_lanes [@inlined]) Ops.Ne Row Uni d a 0 0 (ry fr) fr m
      | Ops.Lt -> fun fr m -> (icmp_lanes [@inlined]) Ops.Lt Row Uni d a 0 0 (ry fr) fr m
      | Ops.Le -> fun fr m -> (icmp_lanes [@inlined]) Ops.Le Row Uni d a 0 0 (ry fr) fr m
      | Ops.Gt -> fun fr m -> (icmp_lanes [@inlined]) Ops.Gt Row Uni d a 0 0 (ry fr) fr m
      | Ops.Ge -> fun fr m -> (icmp_lanes [@inlined]) Ops.Ge Row Uni d a 0 0 (ry fr) fr m)
  | None, Some b when uni_scalar la -> (
      let rx = ru_int la in
      match op with
      | Ops.Eq -> fun fr m -> (icmp_lanes [@inlined]) Ops.Eq Uni Row d 0 b (rx fr) 0 fr m
      | Ops.Ne -> fun fr m -> (icmp_lanes [@inlined]) Ops.Ne Uni Row d 0 b (rx fr) 0 fr m
      | Ops.Lt -> fun fr m -> (icmp_lanes [@inlined]) Ops.Lt Uni Row d 0 b (rx fr) 0 fr m
      | Ops.Le -> fun fr m -> (icmp_lanes [@inlined]) Ops.Le Uni Row d 0 b (rx fr) 0 fr m
      | Ops.Gt -> fun fr m -> (icmp_lanes [@inlined]) Ops.Gt Uni Row d 0 b (rx fr) 0 fr m
      | Ops.Ge -> fun fr m -> (icmp_lanes [@inlined]) Ops.Ge Uni Row d 0 b (rx fr) 0 fr m)
  | _ ->
      let ra = rd_int la and rb = rd_int lb in
      fun fr mask ->
        Exec.count_op fr.ctx mask Exec.Cint;
        let base = d * fr.cap and lanes = mask.Exec.lanes in
        for i = 0 to mask.Exec.active - 1 do
          let l = lanes.(i) in
          fr.vi.(base + l) <- (if Ops.eval_int_cmp op (ra fr l) (rb fr l) then 1 else 0)
        done

let fsel_code d (lc : loc) (la : loc) (lb : loc) : code =
  match (vi_slot lc, vf_slot la, vf_slot lb) with
  | Some c, Some a, Some b -> fun fr m -> (fsel_lanes [@inlined]) Row Row d c a b 0. 0. fr m
  | Some c, Some a, None when uni_scalar lb ->
      let ry = ru_float lb in
      fun fr m -> (fsel_lanes [@inlined]) Row Uni d c a 0 0. (ry fr) fr m
  | Some c, None, Some b when uni_scalar la ->
      let rx = ru_float la in
      fun fr m -> (fsel_lanes [@inlined]) Uni Row d c 0 b (rx fr) 0. fr m
  | Some c, None, None when uni_scalar la && uni_scalar lb ->
      let rx = ru_float la and ry = ru_float lb in
      fun fr m -> (fsel_lanes [@inlined]) Uni Uni d c 0 0 (rx fr) (ry fr) fr m
  | _ ->
      let rc = rd_int lc and ra = rd_float la and rb = rd_float lb in
      fun fr mask ->
        Exec.count_op fr.ctx mask Exec.Cint;
        let base = d * fr.cap and lanes = mask.Exec.lanes in
        for i = 0 to mask.Exec.active - 1 do
          let l = lanes.(i) in
          fr.vf.(base + l) <- (if rc fr l <> 0 then ra fr l else rb fr l)
        done

let isel_code d (lc : loc) (la : loc) (lb : loc) : code =
  match (vi_slot lc, vi_slot la, vi_slot lb) with
  | Some c, Some a, Some b -> fun fr m -> (isel_lanes [@inlined]) Row Row d c a b 0 0 fr m
  | Some c, Some a, None when uni_scalar lb ->
      let ry = ru_int lb in
      fun fr m -> (isel_lanes [@inlined]) Row Uni d c a 0 0 (ry fr) fr m
  | Some c, None, Some b when uni_scalar la ->
      let rx = ru_int la in
      fun fr m -> (isel_lanes [@inlined]) Uni Row d c 0 b (rx fr) 0 fr m
  | Some c, None, None when uni_scalar la && uni_scalar lb ->
      let rx = ru_int la and ry = ru_int lb in
      fun fr m -> (isel_lanes [@inlined]) Uni Uni d c 0 0 (rx fr) (ry fr) fr m
  | _ ->
      let rc = rd_int lc and ra = rd_int la and rb = rd_int lb in
      fun fr mask ->
        Exec.count_op fr.ctx mask Exec.Cint;
        let base = d * fr.cap and lanes = mask.Exec.lanes in
        for i = 0 to mask.Exec.active - 1 do
          let l = lanes.(i) in
          fr.vi.(base + l) <- (if rc fr l <> 0 then ra fr l else rb fr l)
        done

let compile_let st (v : Value.t) (e : Instr.expr) : code =
  match e with
  | Instr.Load { mem; idx } -> compile_load st v mem idx
  | Instr.Const c -> (
      let lv = new_loc st v in
      let s = lv.l_slot in
      match (c, lv.l_kind) with
      | Instr.Ci x, KInt -> fun fr _ -> fr.ui.(s) <- x
      | Instr.Cf x, KFloat -> fun fr _ -> fr.uf.(s) <- x
      | Instr.Ci x, KFloat ->
          let y = float_of_int x in
          fun fr _ -> fr.uf.(s) <- y
      | Instr.Cf x, KInt ->
          let y = int_of_float x in
          fun fr _ -> fr.ui.(s) <- y
      | _, KBuf -> fun _ _ -> ())
  | Instr.Binop (op, a, b) -> (
      let la = loc_of st a and lb = loc_of st b in
      let lv = new_loc st v in
      let cls = Exec.class_of_binop v.Value.ty op in
      let s = lv.l_slot in
      match (lv.l_kind, lv.l_varying) with
      | KBuf, _ -> kbuf_arith_fail (la.l_varying || lb.l_varying) cls
      | KFloat, true -> fbin_code cls op s la lb
      | KFloat, false ->
          let ra = ru_float la and rb = ru_float lb in
          fun fr mask ->
            Exec.count_op fr.ctx mask cls;
            fr.uf.(s) <- Ops.eval_float_binop op (ra fr) (rb fr)
      | KInt, true -> ibin_code cls op s la lb
      | KInt, false ->
          let ra = ru_int la and rb = ru_int lb in
          fun fr mask ->
            Exec.count_op fr.ctx mask cls;
            fr.ui.(s) <- Ops.eval_int_binop op (ra fr) (rb fr))
  | Instr.Unop (op, a) -> (
      let la = loc_of st a in
      let lv = new_loc st v in
      let cls = Exec.class_of_unop v.Value.ty op in
      let s = lv.l_slot in
      match (lv.l_kind, lv.l_varying) with
      | KBuf, _ -> kbuf_arith_fail la.l_varying cls
      | KFloat, true -> fun_code cls op s la
      | KFloat, false ->
          let ra = ru_float la in
          fun fr mask ->
            Exec.count_op fr.ctx mask cls;
            fr.uf.(s) <- Ops.eval_float_unop op (ra fr)
      | KInt, true -> (
          match vi_slot la with
          | Some sa ->
              fun fr mask ->
                Exec.count_op fr.ctx mask cls;
                let cap = fr.cap in
                let vi = fr.vi and lanes = mask.Exec.lanes in
                let bd = s * cap and ba = sa * cap in
                for i = 0 to mask.Exec.active - 1 do
                  let l = lanes.(i) in
                  vi.(bd + l) <- Ops.eval_int_unop op vi.(ba + l)
                done
          | None ->
              let ra = rd_int la in
              fun fr mask ->
                Exec.count_op fr.ctx mask cls;
                let base = s * fr.cap and lanes = mask.Exec.lanes in
                for i = 0 to mask.Exec.active - 1 do
                  let l = lanes.(i) in
                  fr.vi.(base + l) <- Ops.eval_int_unop op (ra fr l)
                done)
      | KInt, false ->
          let ra = ru_int la in
          fun fr mask ->
            Exec.count_op fr.ctx mask cls;
            fr.ui.(s) <- Ops.eval_int_unop op (ra fr))
  | Instr.Cmp (op, a, b) -> (
      let la = loc_of st a and lb = loc_of st b in
      let lv = new_loc st v in
      let s = lv.l_slot in
      match (lv.l_varying, Types.is_float a.Value.ty) with
      | true, true -> fcmp_code op s la lb
      | true, false -> icmp_code op s la lb
      | false, true ->
          let ra = ru_float la and rb = ru_float lb in
          fun fr mask ->
            Exec.count_op fr.ctx mask Exec.Cint;
            fr.ui.(s) <- (if Ops.eval_float_cmp op (ra fr) (rb fr) then 1 else 0)
      | false, false ->
          let ra = ru_int la and rb = ru_int lb in
          fun fr mask ->
            Exec.count_op fr.ctx mask Exec.Cint;
            fr.ui.(s) <- (if Ops.eval_int_cmp op (ra fr) (rb fr) then 1 else 0))
  | Instr.Select (c, a, b) -> (
      let lc = loc_of st c and la = loc_of st a and lb = loc_of st b in
      let lv = new_loc st v in
      let s = lv.l_slot in
      match (lv.l_kind, lv.l_varying) with
      | KFloat, true -> fsel_code s lc la lb
      | KInt, true -> isel_code s lc la lb
      | KBuf, true ->
          let rc = rd_int lc and ra = rd_buf la and rb = rd_buf lb in
          fun fr mask ->
            Exec.count_op fr.ctx mask Exec.Cint;
            let base = s * fr.cap and lanes = mask.Exec.lanes in
            for i = 0 to mask.Exec.active - 1 do
              let l = lanes.(i) in
              fr.vb.(base + l) <- (if rc fr l <> 0 then ra fr l else rb fr l)
            done
      | KFloat, false ->
          let rc = ru_int lc and ra = ru_float la and rb = ru_float lb in
          fun fr mask ->
            Exec.count_op fr.ctx mask Exec.Cint;
            fr.uf.(s) <- (if rc fr <> 0 then ra fr else rb fr)
      | KInt, false ->
          let rc = ru_int lc and ra = ru_int la and rb = ru_int lb in
          fun fr mask ->
            Exec.count_op fr.ctx mask Exec.Cint;
            fr.ui.(s) <- (if rc fr <> 0 then ra fr else rb fr)
      | KBuf, false ->
          let rc = ru_int lc and ra = ru_buf la and rb = ru_buf lb in
          fun fr mask ->
            Exec.count_op fr.ctx mask Exec.Cint;
            fr.ub.(s) <- (if rc fr <> 0 then ra fr else rb fr))
  | Instr.Cast a -> (
      (* the interpreter's [to_vf]/[to_vi] coercion: a copy across kinds *)
      let la = loc_of st a in
      let lv = new_loc st v in
      match lv.l_kind with
      | KBuf -> kbuf_arith_fail la.l_varying Exec.Cint
      | KInt | KFloat ->
          let c = copy_masked la lv in
          fun fr mask ->
            Exec.count_op fr.ctx mask Exec.Cint;
            c fr mask)

(* ------------------------------------------------------------------ *)
(* Region codegen                                                      *)
(* ------------------------------------------------------------------ *)

type cterm = CNone | CYield of Value.t list | CYield_while of Value.t * Value.t list

(** [filter below ivv r fr src dst] sets [dst]'s list to the lanes [l]
    of [src]'s that stay in a loop, in order, and counts their warps:
    those with [ivv.(l) < r fr l] when [below] (a varying-bound
    [For]), else those with [r fr l <> 0] (a varying [While]). One
    pass over [src]'s list, a warp's run at a time. [dst] may be
    [src]: the list is then filtered in place. *)
let[@inline] filter below (ivv : int array) (r : frame -> int -> int) fr (src : Exec.mask)
    (dst : Exec.mask) =
  let sl = src.Exec.lanes and sa = src.Exec.active and dl = dst.Exec.lanes in
  let ws = fr.ctx.Exec.ws in
  let k = ref 0 and warps = ref 0 and i = ref 0 in
  while !i < sa do
    let hi = ((Array.unsafe_get sl !i / ws) + 1) * ws in
    let k0 = !k in
    while !i < sa && Array.unsafe_get sl !i < hi do
      let l = Array.unsafe_get sl !i in
      if (if below then Array.unsafe_get ivv l < r fr l else r fr l <> 0) then begin
        Array.unsafe_set dl !k l;
        incr k
      end;
      incr i
    done;
    if !k > k0 then incr warps
  done;
  dst.Exec.active <- !k;
  dst.Exec.warps <- !warps

let yield_pairs st srcs (dsts : loc list) =
  if List.length srcs <> List.length dsts then None
  else Some (List.map2 (fun sv d -> (loc_of st sv, d)) srcs dsts)

let rec compile_block st ~vec (b : Instr.block) : code array * cterm =
  let term = ref CNone in
  let codes =
    List.filter_map
      (fun i ->
        match i with
        | Instr.Yield vs ->
            term := CYield vs;
            None
        | Instr.Yield_while (c, vs) ->
            term := CYield_while (c, vs);
            None
        | Instr.Return _ -> Some (fun _ _ -> Exec.device_fail "return inside device code")
        | _ -> Some (compile_instr st ~vec i))
      b
  in
  (Array.of_list codes, !term)

and compile_instr st ~vec (i : Instr.instr) : code =
  match i with
  | Instr.Let (v, e) -> compile_let st v e
  | Instr.Store { mem; idx; v } -> compile_store st mem idx v
  | Instr.If { cond; results; then_; else_ } -> compile_if st ~vec cond results then_ else_
  | Instr.For { iv; lb; ub; step; iter_args; inits; results; body } ->
      compile_for st ~vec iv lb ub step iter_args inits results body
  | Instr.While { iter_args; inits; results; body } ->
      compile_while st ~vec iter_args inits results body
  | Instr.Parallel { level = Instr.Threads; ivs; ubs; body; _ } ->
      if vec then fun _ _ -> Exec.device_fail "nested thread parallels"
      else compile_threads st ivs ubs body
  | Instr.Parallel { level = Instr.Blocks; _ } ->
      fun _ _ -> Exec.device_fail "nested blocks parallel"
  | Instr.Barrier _ ->
      fun fr mask ->
        if mask.Exec.active <> fr.nlanes then
          Exec.device_fail "barrier divergence: %d of %d lanes active" mask.Exec.active fr.nlanes;
        (match fr.m.Exec.racecheck with None -> () | Some rc -> Racecheck.barrier rc);
        let c = fr.m.Exec.counters in
        c.Counters.barriers <- c.Counters.barriers +. float_of_int mask.Exec.warps;
        c.Counters.warp_insts <- c.Counters.warp_insts +. float_of_int mask.Exec.warps
  | Instr.Alloc_shared { res; elt; size } ->
      let lr = new_loc st res in
      let s = lr.l_slot in
      if lr.l_kind <> KBuf || lr.l_varying then fun _ _ ->
        invalid_arg "exec: expected uniform buffer"
      else begin
        let k = st.nshared in
        st.nshared <- k + 1;
        fun fr _ ->
          let space = if fr.m.Exec.shared_as_global then Types.Global else Types.Shared in
          (* the node's buffer from an earlier block is dead: recycle
             its array; a second execution in one block allocates *)
          let prev = fr.sh_bufs.(k) in
          let b =
            if prev != dummy_buf && fr.sh_stamps.(k) <> fr.blocks then
              Memory.recycle fr.m.Exec.alloc space prev
            else Memory.alloc fr.m.Exec.alloc space elt size
          in
          fr.sh_bufs.(k) <- b;
          fr.sh_stamps.(k) <- fr.blocks;
          fr.ub.(s) <- b
      end
  | Instr.Alloc { res; _ } ->
      ignore (new_loc st res);
      fun _ _ -> Exec.device_fail "host memory op in device code"
  | Instr.Free _ | Instr.Memcpy _ -> fun _ _ -> Exec.device_fail "host memory op in device code"
  | Instr.Gpu_wrapper _ -> fun _ _ -> Exec.device_fail "nested gpu_wrapper"
  | Instr.Alternatives _ ->
      fun _ _ -> Exec.device_fail "unresolved alternatives inside device code"
  | Instr.Intrinsic { results; name; _ } ->
      List.iter (fun r -> ignore (new_loc st r)) results;
      fun _ _ -> Exec.device_fail "intrinsic %S in device code" name
  | Instr.Yield _ | Instr.Yield_while _ | Instr.Return _ ->
      fun _ _ -> Exec.device_fail "stray terminator"

and compile_if st ~vec cond results then_ else_ : code =
  let lc = loc_of st cond in
  let tcode, tterm = compile_block st ~vec then_ in
  let ecode, eterm = compile_block st ~vec else_ in
  let res_locs = List.map (new_loc st) results in
  if lc.l_varying then begin
    (* divergent: run both sides under complementary masks, count
       warps that execute both, merge results by the condition bits *)
    let branch_copies term =
      match term with
      | _ when results = [] -> (fun _ _ -> ())
      | CYield vs -> (
          match yield_pairs st vs res_locs with
          | Some ps -> copies_masked st ps
          | None -> fun _ _ -> Exec.device_fail "malformed if region")
      | CNone | CYield_while _ -> fun _ _ -> Exec.device_fail "malformed if region"
    in
    let tcopies = branch_copies tterm and ecopies = branch_copies eterm in
    (* a condition that is not an int row is converted into one first,
       raising the interpreter's error on a buffer *)
    let sc, cond_stage =
      match vi_slot lc with
      | Some si -> (si, fun (_ : frame) -> ())
      | None ->
          let t = { l_slot = alloc_slot st KInt true; l_kind = KInt; l_varying = true } in
          (t.l_slot, copy_full lc t)
    in
    let kt = new_mask st and ke = new_mask st in
    (* one pass over the parent's list, a warp's run of it at a time,
       splits it into the branch lists, counts their warps, and counts
       the warps that take both sides *)
    fun fr mask ->
      Exec.count_op fr.ctx mask Exec.Cint;
      cond_stage fr;
      let n = fr.nlanes in
      let pl = mask.Exec.lanes and pa = mask.Exec.active in
      let tm = lane_mask fr kt n and em = lane_mask fr ke n in
      let tl = tm.Exec.lanes and el = em.Exec.lanes in
      let vi = fr.vi and base = sc * fr.cap in
      let ws = fr.ctx.Exec.ws in
      let ta = ref 0 and ea = ref 0 and tw = ref 0 and ew = ref 0 in
      let c = fr.m.Exec.counters in
      let i = ref 0 in
      while !i < pa do
        let hi = ((Array.unsafe_get pl !i / ws) + 1) * ws in
        let t0 = !ta and e0 = !ea in
        while !i < pa && Array.unsafe_get pl !i < hi do
          let l = Array.unsafe_get pl !i in
          if Array.unsafe_get vi (base + l) <> 0 then begin
            Array.unsafe_set tl !ta l;
            incr ta
          end
          else begin
            Array.unsafe_set el !ea l;
            incr ea
          end;
          incr i
        done;
        if !ta > t0 then incr tw;
        if !ea > e0 then incr ew;
        if !ta > t0 && !ea > e0 then
          c.Counters.divergent_branches <- c.Counters.divergent_branches +. 1.
      done;
      tm.Exec.active <- !ta;
      tm.Exec.warps <- !tw;
      em.Exec.active <- !ea;
      em.Exec.warps <- !ew;
      if !ta > 0 then begin
        run tcode fr tm;
        tcopies fr tm
      end;
      if !ea > 0 then begin
        run ecode fr em;
        ecopies fr em
      end
  end
  else begin
    let branch_copies term =
      match term with
      | _ when results = [] -> (fun _ -> ())
      | CYield vs -> (
          match yield_pairs st vs res_locs with
          | Some ps -> copies_full st ps
          | None -> fun _ -> Exec.device_fail "malformed if region")
      | CNone | CYield_while _ -> fun _ -> Exec.device_fail "malformed if region"
    in
    let tcopies = branch_copies tterm and ecopies = branch_copies eterm in
    let rc = ru_int lc in
    fun fr mask ->
      Exec.count_op fr.ctx mask Exec.Cint;
      if rc fr <> 0 then begin
        run tcode fr mask;
        tcopies fr
      end
      else begin
        run ecode fr mask;
        ecopies fr
      end
  end

and compile_for st ~vec iv lb ub step iter_args inits results body : code =
  let llb = loc_of st lb and lub = loc_of st ub and lstep = loc_of st step in
  let bounds_varying = llb.l_varying || lub.l_varying || lstep.l_varying in
  let liv = new_loc st iv in
  let larg = List.map (new_loc st) iter_args in
  let bcode, bterm = compile_block st ~vec body in
  let lres = List.map (new_loc st) results in
  let init_copies = copies_full st (List.map2 (fun i0 a -> (loc_of st i0, a)) inits larg) in
  let res_copies = copies_full st (List.map2 (fun a r -> (a, r)) larg lres) in
  let siv = liv.l_slot in
  if not bounds_varying then begin
    let yc =
      match bterm with
      | CYield vs -> (
          match yield_pairs st vs larg with
          | Some ps -> copies_full st ps
          | None -> fun _ -> Exec.device_fail "malformed for region")
      | CNone | CYield_while _ -> fun _ -> Exec.device_fail "malformed for region"
    in
    let r_lb = ru_int llb and r_ub = ru_int lub and r_step = ru_int lstep in
    fun fr mask ->
      let l0 = r_lb fr and u = r_ub fr and s = r_step fr in
      if s <= 0 then Exec.device_fail "for loop with non-positive step";
      init_copies fr;
      let k = ref l0 in
      while !k < u do
        fr.ui.(siv) <- !k;
        Exec.count_op fr.ctx mask Exec.Cint;
        Exec.count_op fr.ctx mask Exec.Cint;
        run bcode fr mask;
        yc fr;
        k := !k + s
      done;
      res_copies fr
  end
  else begin
    let ycm =
      match bterm with
      | CYield vs -> (
          match yield_pairs st vs larg with
          | Some ps -> copies_masked st ps
          | None -> fun _ _ -> Exec.device_fail "malformed for region")
      | CNone | CYield_while _ -> fun _ _ -> Exec.device_fail "malformed for region"
    in
    let r_lb = rd_int llb and r_ub = rd_int lub and r_step = rd_int lstep in
    let kv = new_ints st and kb = new_mask st in
    fun fr mask ->
      let n = fr.nlanes in
      let ivv = lane_ints fr kv n in
      let pl = mask.Exec.lanes in
      for i = 0 to mask.Exec.active - 1 do
        let l = pl.(i) in
        ivv.(l) <- r_lb fr l
      done;
      (* at one lane every value is dynamically uniform: the
         interpreter takes its scalar path, step check included *)
      if n = 1 && r_step fr 0 <= 0 then Exec.device_fail "for loop with non-positive step";
      init_copies fr;
      (* the first iteration filters the parent's list; a lane that
         leaves stays out (its bound is fixed and its iv unchanged), so
         each later one filters the loop's own list in place *)
      let am = lane_mask fr kb n in
      (filter [@inlined]) true ivv r_ub fr mask am;
      while am.Exec.active > 0 do
        let al = am.Exec.lanes and aa = am.Exec.active in
        let base = siv * fr.cap in
        for i = 0 to aa - 1 do
          let l = al.(i) in
          fr.vi.(base + l) <- ivv.(l)
        done;
        Exec.count_op fr.ctx am Exec.Cint;
        Exec.count_op fr.ctx am Exec.Cint;
        run bcode fr am;
        ycm fr am;
        for i = 0 to aa - 1 do
          let l = al.(i) in
          ivv.(l) <- ivv.(l) + r_step fr l
        done;
        (filter [@inlined]) true ivv r_ub fr am am
      done;
      res_copies fr
  end

and compile_while st ~vec iter_args inits results body : code =
  let larg = List.map (new_loc st) iter_args in
  let bcode, bterm = compile_block st ~vec body in
  let lres = List.map (new_loc st) results in
  let init_copies = copies_full st (List.map2 (fun i0 a -> (loc_of st i0, a)) inits larg) in
  let res_copies = copies_full st (List.map2 (fun a r -> (a, r)) larg lres) in
  match bterm with
  | CYield_while (c, vs) when List.length vs = List.length larg ->
      let lc = loc_of st c in
      (* the interpreter captures the condition before merging the
         iter-args; stage it when the merge would overwrite its slot *)
      let lc_eff, cond_stage =
        if List.exists (loc_same lc) larg then begin
          let t = temp_loc st lc in
          (t, copy_full lc t)
        end
        else (lc, fun (_ : frame) -> ())
      in
      let ycm = copies_masked st (List.map2 (fun sv d -> (loc_of st sv, d)) vs larg) in
      if lc.l_varying then begin
        let rc = rd_int lc_eff in
        let kb = new_mask st in
        fun fr mask ->
          init_copies fr;
          let active = ref mask in
          let continue_ = ref true in
          (* the first iteration filters the caller's list into the
             loop's own, each later one that list in place (the
             caller's mask is never written) *)
          let am = lane_mask fr kb fr.nlanes in
          while !continue_ do
            Exec.count_op fr.ctx !active Exec.Cint;
            run bcode fr !active;
            cond_stage fr;
            ycm fr !active;
            (filter [@inlined]) false [||] rc fr !active am;
            active := am;
            if am.Exec.active = 0 then continue_ := false
          done;
          res_copies fr
      end
      else begin
        let rc = ru_int lc_eff in
        fun fr mask ->
          init_copies fr;
          let continue_ = ref true in
          while !continue_ do
            Exec.count_op fr.ctx mask Exec.Cint;
            run bcode fr mask;
            cond_stage fr;
            ycm fr mask;
            if rc fr = 0 then continue_ := false
          done;
          res_copies fr
      end
  | _ ->
      fun fr mask ->
        init_copies fr;
        Exec.count_op fr.ctx mask Exec.Cint;
        run bcode fr mask;
        Exec.device_fail "malformed while region"

and compile_threads st ivs ubs body : code =
  let dim_readers = Array.of_list (List.map (fun u -> ru_int (loc_of st u)) ubs) in
  let iv_locs = List.map (new_loc st) ivs in
  let tp_id = st.ntp in
  st.ntp <- tp_id + 1;
  let bcode, _ = compile_block st ~vec:true body in
  let iv_slots = Array.of_list (List.map (fun (l : loc) -> l.l_slot) iv_locs) in
  let ndims = Array.length dim_readers in
  fun fr _mask ->
    if fr.nlanes <> 1 then Exec.device_fail "nested thread parallels";
    (* compare with the dims of the last fill before building an array *)
    let last = fr.tp_dims.(tp_id) in
    let same = ref (Array.length last = ndims) in
    let nlanes = ref 1 in
    for k = 0 to ndims - 1 do
      let d = dim_readers.(k) fr in
      nlanes := !nlanes * d;
      if !same && last.(k) <> d then same := false
    done;
    let nlanes = !nlanes in
    if nlanes <= 0 then Exec.device_fail "thread parallel with empty dimension";
    if nlanes > fr.m.Exec.observed_threads then fr.m.Exec.observed_threads <- nlanes;
    ensure_cap fr nlanes;
    fr.nlanes <- nlanes;
    fr.ctx.Exec.nlanes <- nlanes;
    (* iv rows depend only on the dims: fill once per launch (or after
       capacity growth) and reuse across blocks *)
    if not (!same && fr.tp_caps.(tp_id) = fr.cap) then begin
      let dims = Array.map (fun r -> r fr) dim_readers in
      (* lane order: x fastest, matching CUDA's warp lane numbering;
         run-length fill of (l / stride) mod d, no per-lane division *)
      let vi = fr.vi in
      let stride = ref 1 in
      for k = 0 to ndims - 1 do
        let d = dims.(k) in
        let base = iv_slots.(k) * fr.cap in
        let str = !stride in
        let l = ref 0 in
        while !l < nlanes do
          let v = ref 0 in
          while !v < d && !l < nlanes do
            let stop = Int.min nlanes (!l + str) in
            for i = !l to stop - 1 do
              Array.unsafe_set vi (base + i) !v
            done;
            l := stop;
            incr v
          done
        done;
        stride := str * d
      done;
      fr.tp_dims.(tp_id) <- dims;
      fr.tp_caps.(tp_id) <- fr.cap
    end;
    let mask =
      if Array.length fr.fmask.Exec.lanes = nlanes then fr.fmask
      else begin
        let mk = Exec.full_mask fr.ctx in
        fr.fmask <- mk;
        mk
      end
    in
    run bcode fr mask;
    fr.nlanes <- 1;
    fr.ctx.Exec.nlanes <- 1

(* ------------------------------------------------------------------ *)
(* Kernel compilation and launch                                       *)
(* ------------------------------------------------------------------ *)

(** A compiled kernel bound to one machine and one launch environment:
    register files allocated, kernel arguments loaded into their
    slots, grid geometry resolved. *)
type instance = {
  i_fr : frame;
  i_code : code array;
  i_iv_slots : int array;
  i_dx : int;
  i_dy : int;
  i_bmask : Exec.mask;  (** the single-lane block-zone mask, shared by all blocks *)
}

type t = {
  ck_id : int;  (** process-unique, keys the frames of a {!frames} table *)
  ck_code : code array;
  ck_iv_slots : int array;  (** uniform int slots of the block coordinates *)
  ck_ubs : Value.t list;  (** grid dimensions, resolved through the env *)
  ck_frees : (Value.t * loc) list;  (** kernel arguments to load at instantiation *)
  ck_nui : int;
  ck_nuf : int;
  ck_nub : int;
  ck_nvi : int;
  ck_nvf : int;
  ck_nvb : int;
  ck_ntp : int;  (** thread-parallel nodes, sizing the per-frame iv memos *)
  ck_nmasks : int;
  ck_nints : int;
  ck_nshared : int;
}

let next_id = Atomic.make 0

let compile (p : Instr.instr) : t =
  match p with
  | Instr.Parallel { level = Instr.Blocks; ivs; ubs; body; _ } ->
      let varying = analyze body in
      let st =
        {
          locs = Value.Tbl.create 256;
          varying;
          nui = 0;
          nuf = 0;
          nub = 0;
          nvi = 0;
          nvf = 0;
          nvb = 0;
          ntp = 0;
          nmasks = 0;
          nints = 0;
          nshared = 0;
        }
      in
      let frees = List.map (fun v -> (v, new_loc st v)) (Instr.free_values [ p ]) in
      let iv_locs = List.map (new_loc st) ivs in
      let code, _ = compile_block st ~vec:false body in
      {
        ck_id = Atomic.fetch_and_add next_id 1;
        ck_code = code;
        ck_iv_slots = Array.of_list (List.map (fun (l : loc) -> l.l_slot) iv_locs);
        ck_ubs = ubs;
        ck_frees = frees;
        ck_nui = st.nui;
        ck_nuf = st.nuf;
        ck_nub = st.nub;
        ck_nvi = st.nvi;
        ck_nvf = st.nvf;
        ck_nvb = st.nvb;
        ck_ntp = st.ntp;
        ck_nmasks = st.nmasks;
        ck_nints = st.nints;
        ck_nshared = st.nshared;
      }
  | _ -> raise (Exec.Device_error "launch expects a blocks-level parallel")

(** Load the kernel arguments and grid geometry of one launch into
    [fr]'s uniform slots. *)
let bind_launch (ck : t) (fr : frame) ~(env : Exec.env) =
  List.iter
    (fun ((v : Value.t), (l : loc)) ->
      let rv = Exec.lookup env v in
      match l.l_kind with
      | KInt -> fr.ui.(l.l_slot) <- Exec.ui_of rv
      | KFloat -> fr.uf.(l.l_slot) <- Exec.uf_of rv
      | KBuf -> fr.ub.(l.l_slot) <- Exec.to_ub rv)
    ck.ck_frees;
  let dims = List.map (fun u -> Exec.ui_of (Exec.lookup env u)) ck.ck_ubs in
  let dx = match dims with d :: _ -> d | [] -> 1 in
  let dy = match dims with _ :: d :: _ -> d | _ -> 1 in
  (dx, dy)

let instantiate (ck : t) (m : Exec.machine) ~(env : Exec.env) : instance =
  let fr =
    {
      m;
      ui = Array.make (max 1 ck.ck_nui) 0;
      uf = Array.make (max 1 ck.ck_nuf) 0.;
      ub = Array.make (max 1 ck.ck_nub) dummy_buf;
      vi = Array.make (max 1 ck.ck_nvi) 0;
      vf = Array.make (max 1 ck.ck_nvf) 0.;
      vb = Array.make (max 1 ck.ck_nvb) dummy_buf;
      cap = 1;
      nlanes = 1;
      addrs = Array.make 1 0;
      ctx =
        { Exec.m; nlanes = 1; ws = m.Exec.target.Pgpu_target.Descriptor.warp_size; sm = 0 };
      f_nvi = ck.ck_nvi;
      f_nvf = ck.ck_nvf;
      f_nvb = ck.ck_nvb;
      tp_dims = Array.make (max 1 ck.ck_ntp) [||];
      tp_caps = Array.make (max 1 ck.ck_ntp) (-1);
      fmask = no_mask;
      lane_masks = Array.make ck.ck_nmasks no_mask;
      lane_ints = Array.make ck.ck_nints [||];
      sh_bufs = Array.make ck.ck_nshared dummy_buf;
      sh_stamps = Array.make ck.ck_nshared 0;
      blocks = 0;
    }
  in
  let dx, dy = bind_launch ck fr ~env in
  {
    i_fr = fr;
    i_code = ck.ck_code;
    i_iv_slots = ck.ck_iv_slots;
    i_dx = dx;
    i_dy = dy;
    i_bmask = Exec.full_mask fr.ctx;
  }

(** Reuse an instance for a new launch: reload the kernel arguments
    and grid dimensions, keep the register banks (every slot is
    written before it is read in verified IR) and the warm iv-row
    memos. Behaviourally identical to a fresh {!instantiate}. *)
let rebind (ck : t) (inst : instance) ~(env : Exec.env) : instance =
  let fr = inst.i_fr in
  fr.ctx.Exec.nlanes <- 1;
  fr.ctx.Exec.sm <- 0;
  fr.nlanes <- 1;
  let dx, dy = bind_launch ck fr ~env in
  { inst with i_dx = dx; i_dy = dy }

let run_block (inst : instance) ~(sm : int) (lb : int) : unit =
  let fr = inst.i_fr in
  fr.blocks <- fr.blocks + 1;
  fr.nlanes <- 1;
  fr.ctx.Exec.nlanes <- 1;
  fr.ctx.Exec.sm <- sm;
  let ivn = Array.length inst.i_iv_slots in
  if ivn > 0 then fr.ui.(inst.i_iv_slots.(0)) <- lb mod inst.i_dx;
  if ivn > 1 then fr.ui.(inst.i_iv_slots.(1)) <- lb / inst.i_dx mod inst.i_dy;
  if ivn > 2 then fr.ui.(inst.i_iv_slots.(2)) <- lb / (inst.i_dx * inst.i_dy);
  run inst.i_code fr inst.i_bmask;
  let c = fr.m.Exec.counters in
  c.Counters.blocks <- c.Counters.blocks +. 1.

(** The register files of one machine's launches, by kernel. *)
type frames = { f_m : Exec.machine; f_insts : (int, instance) Hashtbl.t }

let frames m = { f_m = m; f_insts = Hashtbl.create 8 }

let runner ?frames (ck : t) ~(env : Exec.env) : Exec.runner =
 fun m ->
  let inst =
    match frames with
    | Some fs when fs.f_m == m -> (
        match Hashtbl.find_opt fs.f_insts ck.ck_id with
        | Some inst -> rebind ck inst ~env
        | None ->
            let inst = instantiate ck m ~env in
            Hashtbl.replace fs.f_insts ck.ck_id inst;
            inst)
    | _ -> instantiate ck m ~env
  in
  fun ~sm lb -> run_block inst ~sm lb

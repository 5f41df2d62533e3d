(** Compiled execution engine: slot-indexed closure kernels.

    The tree-walking interpreter ({!Exec}) pays for its generality on
    every instruction of every lane of every block: hashtable
    environment lookups, boxed [rv] values, and a fresh [Array.init]
    per vector operation. This module removes all of it with a
    one-time lowering pass per kernel region:

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
    resolved at compile time; the inner loop performs no allocation
    beyond what the interpreter's observable semantics require
    (lane-mask buffers at divergence points, exactly where the
    interpreter allocates too).

    {b Event parity.} The closures drive the same performance model
    entry points ({!Exec.count_op}, {!Exec.global_request},
    {!Exec.shared_request}) in exactly the interpreter's order, so the
    two engines are bit-identical. The race detector stays an optional
    instrumentation hook — a single [match] on [None] per memory
    operation, free when disabled. *)

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
  mutable ctx : Exec.ctx;  (** mask/counter context, kept in sync with [nlanes] *)
  f_nvi : int;  (** varying bank sizes, for capacity growth *)
  f_nvf : int;
  f_nvb : int;
  tp_dims : int array array;
      (** per thread-parallel node: dims of the last iv-row fill. The
          rows depend only on the dims (not the block), so across the
          blocks of a launch they are filled once and reused. *)
  tp_caps : int array;  (** cap at the time of that fill; growth refills *)
  mutable fmask : Exec.mask;  (** cached all-true mask for the threads zone *)
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
}

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
let new_loc st (v : Value.t) : loc =
  let varying = Value.Tbl.mem st.varying v in
  let k = kind_of v.Value.ty in
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
(* Operand shapes for specialized loops                                *)
(* ------------------------------------------------------------------ *)

(* The generic readers above are closures: every per-lane float read
   through one boxes its result, which puts the compiled engine on par
   with the interpreter's allocation rate. The hot constructs below
   therefore pattern-match operand locations at compile time and emit
   loops that index the bank arrays directly — unboxed reads and
   writes, no calls in the lane loop. [Array.unsafe_get]/[unsafe_set]
   are safe here by construction: slot < bank count and lane < nlanes
   <= cap, so [slot * cap + lane] is always in range. The primitives
   must be spelled out at each site (an alias would generalize them to
   a boxing polymorphic closure). *)

(** Varying slot of exactly this kind, for direct row access. *)
let vf_slot (l : loc) = if l.l_varying && l.l_kind = KFloat then Some l.l_slot else None

let vi_slot (l : loc) = if l.l_varying && l.l_kind = KInt then Some l.l_slot else None

(** A uniform scalar (int or float): readable once per invocation via
    [ru_int]/[ru_float] and hoisted out of the lane loop — the
    per-lane coercion the generic reader would do is lane-invariant. *)
let uni_scalar (l : loc) = (not l.l_varying) && l.l_kind <> KBuf

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
      fun fr ->
        if fr.nlanes > 0 then begin
          let y = r fr in
          let vi = fr.vi and base = d * fr.cap in
          for l = 0 to fr.nlanes - 1 do
            Array.unsafe_set vi (base + l) y
          done
        end
  | KFloat, true, (KInt | KFloat), false ->
      let r = ru_float src in
      fun fr ->
        if fr.nlanes > 0 then begin
          let y = r fr in
          let vf = fr.vf and base = d * fr.cap in
          for l = 0 to fr.nlanes - 1 do
            Array.unsafe_set vf (base + l) y
          done
        end
  | KBuf, true, KBuf, false ->
      fun fr ->
        if fr.nlanes > 0 then begin
          let y = fr.ub.(s) in
          let vb = fr.vb and base = d * fr.cap in
          for l = 0 to fr.nlanes - 1 do
            Array.unsafe_set vb (base + l) y
          done
        end
  (* cross-kind coercions and kind errors: checked readers *)
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

(** Masked merge: lanes with the bit set take [src], others keep the
    destination's previous contents — the interpreter's
    [merge_masked]/[merge_branch] on a fresh-slot destination. *)
let copy_masked (src : loc) (dst : loc) : frame -> bool array -> unit =
  let d = dst.l_slot and s = src.l_slot in
  match (dst.l_kind, dst.l_varying, src.l_kind, src.l_varying) with
  (* same-kind row merges: direct masked element moves *)
  | KInt, true, KInt, true ->
      fun fr bits ->
        let vi = fr.vi and bd = d * fr.cap and bs = s * fr.cap in
        for l = 0 to fr.nlanes - 1 do
          if Array.unsafe_get bits l then
            Array.unsafe_set vi (bd + l) (Array.unsafe_get vi (bs + l))
        done
  | KFloat, true, KFloat, true ->
      fun fr bits ->
        let vf = fr.vf and bd = d * fr.cap and bs = s * fr.cap in
        for l = 0 to fr.nlanes - 1 do
          if Array.unsafe_get bits l then
            Array.unsafe_set vf (bd + l) (Array.unsafe_get vf (bs + l))
        done
  | KBuf, true, KBuf, true ->
      fun fr bits ->
        let vb = fr.vb and bd = d * fr.cap and bs = s * fr.cap in
        for l = 0 to fr.nlanes - 1 do
          if Array.unsafe_get bits l then
            Array.unsafe_set vb (bd + l) (Array.unsafe_get vb (bs + l))
        done
  (* scalar broadcasts under mask *)
  | KInt, true, (KInt | KFloat), false ->
      let r = ru_int src in
      fun fr bits ->
        if fr.nlanes > 0 then begin
          let y = r fr in
          let vi = fr.vi and bd = d * fr.cap in
          for l = 0 to fr.nlanes - 1 do
            if Array.unsafe_get bits l then Array.unsafe_set vi (bd + l) y
          done
        end
  | KFloat, true, (KInt | KFloat), false ->
      let r = ru_float src in
      fun fr bits ->
        if fr.nlanes > 0 then begin
          let y = r fr in
          let vf = fr.vf and bd = d * fr.cap in
          for l = 0 to fr.nlanes - 1 do
            if Array.unsafe_get bits l then Array.unsafe_set vf (bd + l) y
          done
        end
  | KBuf, true, KBuf, false ->
      fun fr bits ->
        if fr.nlanes > 0 then begin
          let y = fr.ub.(s) in
          let vb = fr.vb and bd = d * fr.cap in
          for l = 0 to fr.nlanes - 1 do
            if Array.unsafe_get bits l then Array.unsafe_set vb (bd + l) y
          done
        end
  (* cross-kind coercions: checked per-lane readers *)
  | KInt, true, _, _ ->
      let r = rd_int src in
      fun fr bits ->
        let base = d * fr.cap in
        for l = 0 to fr.nlanes - 1 do
          if bits.(l) then fr.vi.(base + l) <- r fr l
        done
  | KFloat, true, _, _ ->
      let r = rd_float src in
      fun fr bits ->
        let base = d * fr.cap in
        for l = 0 to fr.nlanes - 1 do
          if bits.(l) then fr.vf.(base + l) <- r fr l
        done
  | KBuf, true, _, _ ->
      let r = rd_buf src in
      fun fr bits ->
        let base = d * fr.cap in
        for l = 0 to fr.nlanes - 1 do
          if bits.(l) then fr.vb.(base + l) <- r fr l
        done
  | (KInt | KFloat | KBuf), false, _, _ ->
      (* the analysis marks every merge destination varying; keep a
         defensive scalar copy for the impossible case *)
      let c = copy_full src dst in
      fun fr _ -> c fr

let seq (cs : (frame -> unit) list) : frame -> unit =
  match cs with
  | [] -> fun _ -> ()
  | [ c ] -> c
  | _ ->
      let a = Array.of_list cs in
      fun fr -> Array.iter (fun c -> c fr) a

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

let copies_masked st (pairs : (loc * loc) list) : frame -> bool array -> unit =
  let direct ps =
    match List.map (fun (s, d) -> copy_masked s d) ps with
    | [] -> fun _ _ -> ()
    | [ c ] -> c
    | cs ->
        let a = Array.of_list cs in
        fun fr bits -> Array.iter (fun c -> c fr bits) a
  in
  let dsts = List.map snd pairs in
  if List.exists (fun (s, _) -> List.exists (loc_same s) dsts) pairs then begin
    let staged = List.map (fun (s, d) -> (s, temp_loc st s, d)) pairs in
    let pre = seq (List.map (fun (s, t, _) -> copy_full s t) staged) in
    let post = direct (List.map (fun (_, t, d) -> (t, d)) staged) in
    fun fr bits ->
      pre fr;
      post fr bits
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

(** The modelling half of [Exec.vec_access]: optional race recording,
    space resolution (with the shared-as-global demotion read
    dynamically), and one warp instruction plus one request per active
    warp. The functional half is inlined per load/store kind. *)
let mem_model (rb : frame -> int -> Memory.buf) ~is_store fr (mask : Exec.mask) =
  let n = fr.nlanes in
  let bits = mask.Exec.bits in
  let addrs = fr.addrs in
  (match fr.m.Exec.racecheck with
  | None -> ()
  | Some rc ->
      for l = 0 to n - 1 do
        if bits.(l) && (rb fr l).Memory.space = Types.Shared then
          Racecheck.record rc ~is_store ~lane:l ~addr:addrs.(l)
      done);
  let space =
    let rec first l =
      if l >= n then Types.Global else if bits.(l) then (rb fr l).Memory.space else first (l + 1)
    in
    first 0
  in
  let effective =
    match space with Types.Shared when fr.m.Exec.shared_as_global -> Types.Global | sp -> sp
  in
  let ws = fr.ctx.Exec.ws in
  let nwarps = Pgpu_support.Util.ceil_div n ws in
  let c = fr.m.Exec.counters in
  for w = 0 to nwarps - 1 do
    let lo = w * ws and hi = min ((w + 1) * ws) n in
    let any = ref false in
    for l = lo to hi - 1 do
      if bits.(l) then any := true
    done;
    if !any then begin
      c.Counters.warp_insts <- c.Counters.warp_insts +. 1.;
      match effective with
      | Types.Global | Types.Host -> Exec.global_request fr.ctx ~is_store addrs mask lo hi
      | Types.Shared -> Exec.shared_request fr.ctx ~is_store addrs mask lo hi
    end
  done

let set_op_hook opname fr =
  match fr.m.Exec.racecheck with None -> () | Some rc -> Racecheck.set_op rc opname

let compile_load st (v : Value.t) (mem : Value.t) (idx : Value.t) : code =
  let lmem = loc_of st mem and lidx = loc_of st idx in
  let lv = new_loc st v in
  if not (Types.is_memref mem.Value.ty) then fun _ _ -> invalid_arg "exec: expected buffer"
  else begin
    let rb = rd_buf lmem and ri = rd_int lidx in
    let opname = Fmt.str "load %a" Value.pp mem in
    let felt = Types.is_float (Types.elem mem.Value.ty) in
    let s = lv.l_slot in
    let sm = lmem.l_slot in
    (* uniform buffer + varying int index is the canonical kernel
       access; hoist the buffer and its data-representation match out
       of the lane loop and index the element array directly *)
    let mem_uni = lmem.l_kind = KBuf && not lmem.l_varying in
    let functional : frame -> Exec.mask -> unit =
      match (felt, lv.l_kind, lv.l_varying, (if mem_uni then vi_slot lidx else None)) with
      | _, KBuf, _, _ -> fun _ _ -> invalid_arg "exec: expected buffer"
      | true, KFloat, true, Some si ->
          fun fr mask ->
            let b = fr.ub.(sm) in
            let bits = mask.Exec.bits in
            let cap = fr.cap in
            let bd = s * cap and bi = si * cap in
            let vf = fr.vf and vi = fr.vi and addrs = fr.addrs in
            let bb = b.Memory.base and len = b.Memory.len in
            let esz = Memory.elt_size b in
            (match b.Memory.data with
            | Memory.F arr ->
                for l = 0 to fr.nlanes - 1 do
                  if Array.unsafe_get bits l then begin
                    let i = Array.unsafe_get vi (bi + l) in
                    if i < 0 || i >= len then Memory.check_bounds b i;
                    Array.unsafe_set addrs l (bb + (i * esz));
                    Array.unsafe_set vf (bd + l) (Array.unsafe_get arr i)
                  end
                done
            | Memory.I arr ->
                for l = 0 to fr.nlanes - 1 do
                  if Array.unsafe_get bits l then begin
                    let i = Array.unsafe_get vi (bi + l) in
                    if i < 0 || i >= len then Memory.check_bounds b i;
                    Array.unsafe_set addrs l (bb + (i * esz));
                    Array.unsafe_set vf (bd + l) (float_of_int (Array.unsafe_get arr i))
                  end
                done)
      | false, KInt, true, Some si ->
          fun fr mask ->
            let b = fr.ub.(sm) in
            let bits = mask.Exec.bits in
            let cap = fr.cap in
            let bd = s * cap and bi = si * cap in
            let vi = fr.vi and addrs = fr.addrs in
            let bb = b.Memory.base and len = b.Memory.len in
            let esz = Memory.elt_size b in
            (match b.Memory.data with
            | Memory.I arr ->
                for l = 0 to fr.nlanes - 1 do
                  if Array.unsafe_get bits l then begin
                    let i = Array.unsafe_get vi (bi + l) in
                    if i < 0 || i >= len then Memory.check_bounds b i;
                    Array.unsafe_set addrs l (bb + (i * esz));
                    Array.unsafe_set vi (bd + l) (Array.unsafe_get arr i)
                  end
                done
            | Memory.F arr ->
                for l = 0 to fr.nlanes - 1 do
                  if Array.unsafe_get bits l then begin
                    let i = Array.unsafe_get vi (bi + l) in
                    if i < 0 || i >= len then Memory.check_bounds b i;
                    Array.unsafe_set addrs l (bb + (i * esz));
                    Array.unsafe_set vi (bd + l) (int_of_float (Array.unsafe_get arr i))
                  end
                done)
      | true, KFloat, true, None ->
          fun fr mask ->
            let bits = mask.Exec.bits in
            let base = s * fr.cap in
            for l = 0 to fr.nlanes - 1 do
              if bits.(l) then begin
                let b = rb fr l in
                let i = ri fr l in
                Memory.check_bounds b i;
                fr.addrs.(l) <- Memory.addr b i;
                fr.vf.(base + l) <- Memory.get_f b i
              end
            done
      | false, KInt, true, None ->
          fun fr mask ->
            let bits = mask.Exec.bits in
            let base = s * fr.cap in
            for l = 0 to fr.nlanes - 1 do
              if bits.(l) then begin
                let b = rb fr l in
                let i = ri fr l in
                Memory.check_bounds b i;
                fr.addrs.(l) <- Memory.addr b i;
                fr.vi.(base + l) <- Memory.get_i b i
              end
            done
      | true, KInt, true, _ ->
          (* unverified elem/result kind mismatch: convert at the write,
             like the interpreter's read-side [to_vi] coercion *)
          fun fr mask ->
            let bits = mask.Exec.bits in
            let base = s * fr.cap in
            for l = 0 to fr.nlanes - 1 do
              if bits.(l) then begin
                let b = rb fr l in
                let i = ri fr l in
                Memory.check_bounds b i;
                fr.addrs.(l) <- Memory.addr b i;
                fr.vi.(base + l) <- int_of_float (Memory.get_f b i)
              end
            done
      | false, KFloat, true, _ ->
          fun fr mask ->
            let bits = mask.Exec.bits in
            let base = s * fr.cap in
            for l = 0 to fr.nlanes - 1 do
              if bits.(l) then begin
                let b = rb fr l in
                let i = ri fr l in
                Memory.check_bounds b i;
                fr.addrs.(l) <- Memory.addr b i;
                fr.vf.(base + l) <- float_of_int (Memory.get_i b i)
              end
            done
      | _, ((KInt | KFloat) as k), false, _ ->
          (* uniform destination: only reachable at [nlanes = 1] (block
             zone); the interpreter's n=1 path binds a uniform scalar *)
          fun fr mask ->
            if mask.Exec.bits.(0) then begin
              let b = rb fr 0 in
              let i = ri fr 0 in
              Memory.check_bounds b i;
              fr.addrs.(0) <- Memory.addr b i;
              match (felt, k) with
              | true, KFloat -> fr.uf.(s) <- Memory.get_f b i
              | false, KInt -> fr.ui.(s) <- Memory.get_i b i
              | true, KInt -> fr.ui.(s) <- int_of_float (Memory.get_f b i)
              | false, KFloat -> fr.uf.(s) <- float_of_int (Memory.get_i b i)
              | _, KBuf -> ()
            end
            else if k = KFloat then fr.uf.(s) <- 0.
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
    let sm = lmem.l_slot in
    let mem_uni = lmem.l_kind = KBuf && not lmem.l_varying in
    let functional : frame -> Exec.mask -> unit =
      match (felt, (if mem_uni then vi_slot lidx else None)) with
      | true, Some si -> (
          match (vf_slot lval, uni_scalar lval) with
          | Some sv, _ ->
              fun fr mask ->
                let b = fr.ub.(sm) in
                let bits = mask.Exec.bits in
                let cap = fr.cap in
                let bi = si * cap and bv = sv * cap in
                let vf = fr.vf and vi = fr.vi and addrs = fr.addrs in
                let bb = b.Memory.base and len = b.Memory.len in
                let esz = Memory.elt_size b in
                (match b.Memory.data with
                | Memory.F arr ->
                    for l = 0 to fr.nlanes - 1 do
                      if Array.unsafe_get bits l then begin
                        let i = Array.unsafe_get vi (bi + l) in
                        if i < 0 || i >= len then Memory.check_bounds b i;
                        Array.unsafe_set addrs l (bb + (i * esz));
                        Array.unsafe_set arr i (Array.unsafe_get vf (bv + l))
                      end
                    done
                | Memory.I arr ->
                    for l = 0 to fr.nlanes - 1 do
                      if Array.unsafe_get bits l then begin
                        let i = Array.unsafe_get vi (bi + l) in
                        if i < 0 || i >= len then Memory.check_bounds b i;
                        Array.unsafe_set addrs l (bb + (i * esz));
                        Array.unsafe_set arr i (int_of_float (Array.unsafe_get vf (bv + l)))
                      end
                    done)
          | None, true ->
              let rv = ru_float lval in
              fun fr mask ->
                let b = fr.ub.(sm) in
                let bits = mask.Exec.bits in
                let cap = fr.cap in
                let bi = si * cap in
                let vi = fr.vi and addrs = fr.addrs in
                let bb = b.Memory.base and len = b.Memory.len in
                let esz = Memory.elt_size b in
                let y = rv fr in
                (match b.Memory.data with
                | Memory.F arr ->
                    for l = 0 to fr.nlanes - 1 do
                      if Array.unsafe_get bits l then begin
                        let i = Array.unsafe_get vi (bi + l) in
                        if i < 0 || i >= len then Memory.check_bounds b i;
                        Array.unsafe_set addrs l (bb + (i * esz));
                        Array.unsafe_set arr i y
                      end
                    done
                | Memory.I arr ->
                    let yi = int_of_float y in
                    for l = 0 to fr.nlanes - 1 do
                      if Array.unsafe_get bits l then begin
                        let i = Array.unsafe_get vi (bi + l) in
                        if i < 0 || i >= len then Memory.check_bounds b i;
                        Array.unsafe_set addrs l (bb + (i * esz));
                        Array.unsafe_set arr i yi
                      end
                    done)
          | _ ->
              let rv = rd_float lval in
              fun fr mask ->
                let bits = mask.Exec.bits in
                for l = 0 to fr.nlanes - 1 do
                  if bits.(l) then begin
                    let b = rb fr l in
                    let i = ri fr l in
                    Memory.check_bounds b i;
                    fr.addrs.(l) <- Memory.addr b i;
                    Memory.set_f b i (rv fr l)
                  end
                done)
      | false, Some si -> (
          match (vi_slot lval, uni_scalar lval) with
          | Some sv, _ ->
              fun fr mask ->
                let b = fr.ub.(sm) in
                let bits = mask.Exec.bits in
                let cap = fr.cap in
                let bi = si * cap and bv = sv * cap in
                let vi = fr.vi and addrs = fr.addrs in
                let bb = b.Memory.base and len = b.Memory.len in
                let esz = Memory.elt_size b in
                (match b.Memory.data with
                | Memory.I arr ->
                    for l = 0 to fr.nlanes - 1 do
                      if Array.unsafe_get bits l then begin
                        let i = Array.unsafe_get vi (bi + l) in
                        if i < 0 || i >= len then Memory.check_bounds b i;
                        Array.unsafe_set addrs l (bb + (i * esz));
                        Array.unsafe_set arr i (Array.unsafe_get vi (bv + l))
                      end
                    done
                | Memory.F arr ->
                    for l = 0 to fr.nlanes - 1 do
                      if Array.unsafe_get bits l then begin
                        let i = Array.unsafe_get vi (bi + l) in
                        if i < 0 || i >= len then Memory.check_bounds b i;
                        Array.unsafe_set addrs l (bb + (i * esz));
                        Array.unsafe_set arr i (float_of_int (Array.unsafe_get vi (bv + l)))
                      end
                    done)
          | None, true ->
              let rv = ru_int lval in
              fun fr mask ->
                let b = fr.ub.(sm) in
                let bits = mask.Exec.bits in
                let cap = fr.cap in
                let bi = si * cap in
                let vi = fr.vi and addrs = fr.addrs in
                let bb = b.Memory.base and len = b.Memory.len in
                let esz = Memory.elt_size b in
                let y = rv fr in
                (match b.Memory.data with
                | Memory.I arr ->
                    for l = 0 to fr.nlanes - 1 do
                      if Array.unsafe_get bits l then begin
                        let i = Array.unsafe_get vi (bi + l) in
                        if i < 0 || i >= len then Memory.check_bounds b i;
                        Array.unsafe_set addrs l (bb + (i * esz));
                        Array.unsafe_set arr i y
                      end
                    done
                | Memory.F arr ->
                    let yf = float_of_int y in
                    for l = 0 to fr.nlanes - 1 do
                      if Array.unsafe_get bits l then begin
                        let i = Array.unsafe_get vi (bi + l) in
                        if i < 0 || i >= len then Memory.check_bounds b i;
                        Array.unsafe_set addrs l (bb + (i * esz));
                        Array.unsafe_set arr i yf
                      end
                    done)
          | _ ->
              let rv = rd_int lval in
              fun fr mask ->
                let bits = mask.Exec.bits in
                for l = 0 to fr.nlanes - 1 do
                  if bits.(l) then begin
                    let b = rb fr l in
                    let i = ri fr l in
                    Memory.check_bounds b i;
                    fr.addrs.(l) <- Memory.addr b i;
                    Memory.set_i b i (rv fr l)
                  end
                done)
      | true, None ->
          let rv = rd_float lval in
          fun fr mask ->
            let bits = mask.Exec.bits in
            for l = 0 to fr.nlanes - 1 do
              if bits.(l) then begin
                let b = rb fr l in
                let i = ri fr l in
                Memory.check_bounds b i;
                fr.addrs.(l) <- Memory.addr b i;
                Memory.set_f b i (rv fr l)
              end
            done
      | false, None ->
          let rv = rd_int lval in
          fun fr mask ->
            let bits = mask.Exec.bits in
            for l = 0 to fr.nlanes - 1 do
              if bits.(l) then begin
                let b = rb fr l in
                let i = ri fr l in
                Memory.check_bounds b i;
                fr.addrs.(l) <- Memory.addr b i;
                Memory.set_i b i (rv fr l)
              end
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
      | KFloat, true -> (
          (* direct-bank loops per operand shape; the dominant
             operators are additionally specialized so the lane loop
             is pure unboxed float arithmetic *)
          match (vf_slot la, vf_slot lb) with
          | Some sa, Some sb -> (
              match op with
              | Ops.Add ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask cls;
                    let cap = fr.cap in
                    let vf = fr.vf in
                    let bd = s * cap and ba = sa * cap and bb = sb * cap in
                    for l = 0 to fr.nlanes - 1 do
                      Array.unsafe_set vf (bd + l)
                        (Array.unsafe_get vf (ba + l) +. Array.unsafe_get vf (bb + l))
                    done
              | Ops.Sub ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask cls;
                    let cap = fr.cap in
                    let vf = fr.vf in
                    let bd = s * cap and ba = sa * cap and bb = sb * cap in
                    for l = 0 to fr.nlanes - 1 do
                      Array.unsafe_set vf (bd + l)
                        (Array.unsafe_get vf (ba + l) -. Array.unsafe_get vf (bb + l))
                    done
              | Ops.Mul ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask cls;
                    let cap = fr.cap in
                    let vf = fr.vf in
                    let bd = s * cap and ba = sa * cap and bb = sb * cap in
                    for l = 0 to fr.nlanes - 1 do
                      Array.unsafe_set vf (bd + l)
                        (Array.unsafe_get vf (ba + l) *. Array.unsafe_get vf (bb + l))
                    done
              | Ops.Div ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask cls;
                    let cap = fr.cap in
                    let vf = fr.vf in
                    let bd = s * cap and ba = sa * cap and bb = sb * cap in
                    for l = 0 to fr.nlanes - 1 do
                      Array.unsafe_set vf (bd + l)
                        (Array.unsafe_get vf (ba + l) /. Array.unsafe_get vf (bb + l))
                    done
              | _ ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask cls;
                    let cap = fr.cap in
                    let vf = fr.vf in
                    let bd = s * cap and ba = sa * cap and bb = sb * cap in
                    for l = 0 to fr.nlanes - 1 do
                      vf.(bd + l) <- Ops.eval_float_binop op vf.(ba + l) vf.(bb + l)
                    done)
          | Some sa, None when uni_scalar lb -> (
              let rb = ru_float lb in
              match op with
              | Ops.Add ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask cls;
                    let y = rb fr in
                    let cap = fr.cap in
                    let vf = fr.vf in
                    let bd = s * cap and ba = sa * cap in
                    for l = 0 to fr.nlanes - 1 do
                      Array.unsafe_set vf (bd + l) (Array.unsafe_get vf (ba + l) +. y)
                    done
              | Ops.Sub ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask cls;
                    let y = rb fr in
                    let cap = fr.cap in
                    let vf = fr.vf in
                    let bd = s * cap and ba = sa * cap in
                    for l = 0 to fr.nlanes - 1 do
                      Array.unsafe_set vf (bd + l) (Array.unsafe_get vf (ba + l) -. y)
                    done
              | Ops.Mul ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask cls;
                    let y = rb fr in
                    let cap = fr.cap in
                    let vf = fr.vf in
                    let bd = s * cap and ba = sa * cap in
                    for l = 0 to fr.nlanes - 1 do
                      Array.unsafe_set vf (bd + l) (Array.unsafe_get vf (ba + l) *. y)
                    done
              | Ops.Div ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask cls;
                    let y = rb fr in
                    let cap = fr.cap in
                    let vf = fr.vf in
                    let bd = s * cap and ba = sa * cap in
                    for l = 0 to fr.nlanes - 1 do
                      Array.unsafe_set vf (bd + l) (Array.unsafe_get vf (ba + l) /. y)
                    done
              | _ ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask cls;
                    let y = rb fr in
                    let cap = fr.cap in
                    let vf = fr.vf in
                    let bd = s * cap and ba = sa * cap in
                    for l = 0 to fr.nlanes - 1 do
                      vf.(bd + l) <- Ops.eval_float_binop op vf.(ba + l) y
                    done)
          | None, Some sb when uni_scalar la -> (
              let ra = ru_float la in
              match op with
              | Ops.Add ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask cls;
                    let x = ra fr in
                    let cap = fr.cap in
                    let vf = fr.vf in
                    let bd = s * cap and bb = sb * cap in
                    for l = 0 to fr.nlanes - 1 do
                      Array.unsafe_set vf (bd + l) (x +. Array.unsafe_get vf (bb + l))
                    done
              | Ops.Sub ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask cls;
                    let x = ra fr in
                    let cap = fr.cap in
                    let vf = fr.vf in
                    let bd = s * cap and bb = sb * cap in
                    for l = 0 to fr.nlanes - 1 do
                      Array.unsafe_set vf (bd + l) (x -. Array.unsafe_get vf (bb + l))
                    done
              | Ops.Mul ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask cls;
                    let x = ra fr in
                    let cap = fr.cap in
                    let vf = fr.vf in
                    let bd = s * cap and bb = sb * cap in
                    for l = 0 to fr.nlanes - 1 do
                      Array.unsafe_set vf (bd + l) (x *. Array.unsafe_get vf (bb + l))
                    done
              | Ops.Div ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask cls;
                    let x = ra fr in
                    let cap = fr.cap in
                    let vf = fr.vf in
                    let bd = s * cap and bb = sb * cap in
                    for l = 0 to fr.nlanes - 1 do
                      Array.unsafe_set vf (bd + l) (x /. Array.unsafe_get vf (bb + l))
                    done
              | _ ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask cls;
                    let x = ra fr in
                    let cap = fr.cap in
                    let vf = fr.vf in
                    let bd = s * cap and bb = sb * cap in
                    for l = 0 to fr.nlanes - 1 do
                      vf.(bd + l) <- Ops.eval_float_binop op x vf.(bb + l)
                    done)
          | _ ->
              let ra = rd_float la and rb = rd_float lb in
              fun fr mask ->
                Exec.count_op fr.ctx mask cls;
                let base = s * fr.cap in
                for l = 0 to fr.nlanes - 1 do
                  fr.vf.(base + l) <- Ops.eval_float_binop op (ra fr l) (rb fr l)
                done)
      | KFloat, false ->
          let ra = ru_float la and rb = ru_float lb in
          fun fr mask ->
            Exec.count_op fr.ctx mask cls;
            fr.uf.(s) <- Ops.eval_float_binop op (ra fr) (rb fr)
      | KInt, true -> (
          match (vi_slot la, vi_slot lb) with
          | Some sa, Some sb -> (
              match op with
              | Ops.Add ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask cls;
                    let cap = fr.cap in
                    let vi = fr.vi in
                    let bd = s * cap and ba = sa * cap and bb = sb * cap in
                    for l = 0 to fr.nlanes - 1 do
                      Array.unsafe_set vi (bd + l)
                        (Array.unsafe_get vi (ba + l) + Array.unsafe_get vi (bb + l))
                    done
              | Ops.Sub ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask cls;
                    let cap = fr.cap in
                    let vi = fr.vi in
                    let bd = s * cap and ba = sa * cap and bb = sb * cap in
                    for l = 0 to fr.nlanes - 1 do
                      Array.unsafe_set vi (bd + l)
                        (Array.unsafe_get vi (ba + l) - Array.unsafe_get vi (bb + l))
                    done
              | Ops.Mul ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask cls;
                    let cap = fr.cap in
                    let vi = fr.vi in
                    let bd = s * cap and ba = sa * cap and bb = sb * cap in
                    for l = 0 to fr.nlanes - 1 do
                      Array.unsafe_set vi (bd + l)
                        (Array.unsafe_get vi (ba + l) * Array.unsafe_get vi (bb + l))
                    done
              | _ ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask cls;
                    let cap = fr.cap in
                    let vi = fr.vi in
                    let bd = s * cap and ba = sa * cap and bb = sb * cap in
                    for l = 0 to fr.nlanes - 1 do
                      vi.(bd + l) <- Ops.eval_int_binop op vi.(ba + l) vi.(bb + l)
                    done)
          | Some sa, None when uni_scalar lb -> (
              let rb = ru_int lb in
              match op with
              | Ops.Add ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask cls;
                    let y = rb fr in
                    let cap = fr.cap in
                    let vi = fr.vi in
                    let bd = s * cap and ba = sa * cap in
                    for l = 0 to fr.nlanes - 1 do
                      Array.unsafe_set vi (bd + l) (Array.unsafe_get vi (ba + l) + y)
                    done
              | Ops.Sub ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask cls;
                    let y = rb fr in
                    let cap = fr.cap in
                    let vi = fr.vi in
                    let bd = s * cap and ba = sa * cap in
                    for l = 0 to fr.nlanes - 1 do
                      Array.unsafe_set vi (bd + l) (Array.unsafe_get vi (ba + l) - y)
                    done
              | Ops.Mul ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask cls;
                    let y = rb fr in
                    let cap = fr.cap in
                    let vi = fr.vi in
                    let bd = s * cap and ba = sa * cap in
                    for l = 0 to fr.nlanes - 1 do
                      Array.unsafe_set vi (bd + l) (Array.unsafe_get vi (ba + l) * y)
                    done
              | _ ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask cls;
                    let y = rb fr in
                    let cap = fr.cap in
                    let vi = fr.vi in
                    let bd = s * cap and ba = sa * cap in
                    for l = 0 to fr.nlanes - 1 do
                      vi.(bd + l) <- Ops.eval_int_binop op vi.(ba + l) y
                    done)
          | None, Some sb when uni_scalar la -> (
              let ra = ru_int la in
              match op with
              | Ops.Add ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask cls;
                    let x = ra fr in
                    let cap = fr.cap in
                    let vi = fr.vi in
                    let bd = s * cap and bb = sb * cap in
                    for l = 0 to fr.nlanes - 1 do
                      Array.unsafe_set vi (bd + l) (x + Array.unsafe_get vi (bb + l))
                    done
              | Ops.Sub ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask cls;
                    let x = ra fr in
                    let cap = fr.cap in
                    let vi = fr.vi in
                    let bd = s * cap and bb = sb * cap in
                    for l = 0 to fr.nlanes - 1 do
                      Array.unsafe_set vi (bd + l) (x - Array.unsafe_get vi (bb + l))
                    done
              | Ops.Mul ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask cls;
                    let x = ra fr in
                    let cap = fr.cap in
                    let vi = fr.vi in
                    let bd = s * cap and bb = sb * cap in
                    for l = 0 to fr.nlanes - 1 do
                      Array.unsafe_set vi (bd + l) (x * Array.unsafe_get vi (bb + l))
                    done
              | _ ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask cls;
                    let x = ra fr in
                    let cap = fr.cap in
                    let vi = fr.vi in
                    let bd = s * cap and bb = sb * cap in
                    for l = 0 to fr.nlanes - 1 do
                      vi.(bd + l) <- Ops.eval_int_binop op x vi.(bb + l)
                    done)
          | _ ->
              let ra = rd_int la and rb = rd_int lb in
              fun fr mask ->
                Exec.count_op fr.ctx mask cls;
                let base = s * fr.cap in
                for l = 0 to fr.nlanes - 1 do
                  fr.vi.(base + l) <- Ops.eval_int_binop op (ra fr l) (rb fr l)
                done)
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
      | KFloat, true -> (
          match vf_slot la with
          | Some sa -> (
              (* every float unop maps to an unboxed primitive or
                 [[@@unboxed]] external when applied directly *)
              match op with
              | Ops.Neg ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask cls;
                    let cap = fr.cap in
                    let vf = fr.vf in
                    let bd = s * cap and ba = sa * cap in
                    for l = 0 to fr.nlanes - 1 do
                      Array.unsafe_set vf (bd + l) (-.Array.unsafe_get vf (ba + l))
                    done
              | Ops.Sqrt ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask cls;
                    let cap = fr.cap in
                    let vf = fr.vf in
                    let bd = s * cap and ba = sa * cap in
                    for l = 0 to fr.nlanes - 1 do
                      Array.unsafe_set vf (bd + l) (sqrt (Array.unsafe_get vf (ba + l)))
                    done
              | Ops.Exp ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask cls;
                    let cap = fr.cap in
                    let vf = fr.vf in
                    let bd = s * cap and ba = sa * cap in
                    for l = 0 to fr.nlanes - 1 do
                      Array.unsafe_set vf (bd + l) (exp (Array.unsafe_get vf (ba + l)))
                    done
              | Ops.Log ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask cls;
                    let cap = fr.cap in
                    let vf = fr.vf in
                    let bd = s * cap and ba = sa * cap in
                    for l = 0 to fr.nlanes - 1 do
                      Array.unsafe_set vf (bd + l) (log (Array.unsafe_get vf (ba + l)))
                    done
              | Ops.Sin ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask cls;
                    let cap = fr.cap in
                    let vf = fr.vf in
                    let bd = s * cap and ba = sa * cap in
                    for l = 0 to fr.nlanes - 1 do
                      Array.unsafe_set vf (bd + l) (sin (Array.unsafe_get vf (ba + l)))
                    done
              | Ops.Cos ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask cls;
                    let cap = fr.cap in
                    let vf = fr.vf in
                    let bd = s * cap and ba = sa * cap in
                    for l = 0 to fr.nlanes - 1 do
                      Array.unsafe_set vf (bd + l) (cos (Array.unsafe_get vf (ba + l)))
                    done
              | Ops.Abs ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask cls;
                    let cap = fr.cap in
                    let vf = fr.vf in
                    let bd = s * cap and ba = sa * cap in
                    for l = 0 to fr.nlanes - 1 do
                      Array.unsafe_set vf (bd + l) (Float.abs (Array.unsafe_get vf (ba + l)))
                    done
              | Ops.Floor ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask cls;
                    let cap = fr.cap in
                    let vf = fr.vf in
                    let bd = s * cap and ba = sa * cap in
                    for l = 0 to fr.nlanes - 1 do
                      Array.unsafe_set vf (bd + l) (Float.floor (Array.unsafe_get vf (ba + l)))
                    done
              | Ops.Ceil ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask cls;
                    let cap = fr.cap in
                    let vf = fr.vf in
                    let bd = s * cap and ba = sa * cap in
                    for l = 0 to fr.nlanes - 1 do
                      Array.unsafe_set vf (bd + l) (Float.ceil (Array.unsafe_get vf (ba + l)))
                    done
              | Ops.Rsqrt ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask cls;
                    let cap = fr.cap in
                    let vf = fr.vf in
                    let bd = s * cap and ba = sa * cap in
                    for l = 0 to fr.nlanes - 1 do
                      Array.unsafe_set vf (bd + l) (1. /. sqrt (Array.unsafe_get vf (ba + l)))
                    done
              | Ops.Not ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask cls;
                    let cap = fr.cap in
                    let vf = fr.vf in
                    let bd = s * cap and ba = sa * cap in
                    for l = 0 to fr.nlanes - 1 do
                      vf.(bd + l) <- Ops.eval_float_unop op vf.(ba + l)
                    done)
          | None ->
              let ra = rd_float la in
              fun fr mask ->
                Exec.count_op fr.ctx mask cls;
                let base = s * fr.cap in
                for l = 0 to fr.nlanes - 1 do
                  fr.vf.(base + l) <- Ops.eval_float_unop op (ra fr l)
                done)
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
                let vi = fr.vi in
                let bd = s * cap and ba = sa * cap in
                for l = 0 to fr.nlanes - 1 do
                  vi.(bd + l) <- Ops.eval_int_unop op vi.(ba + l)
                done
          | None ->
              let ra = rd_int la in
              fun fr mask ->
                Exec.count_op fr.ctx mask cls;
                let base = s * fr.cap in
                for l = 0 to fr.nlanes - 1 do
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
      let fl = Types.is_float a.Value.ty in
      (* decompose the comparison into a primitive ([<], [<=] or [=]),
         an operand swap (Gt is swapped Lt, Ge swapped Le — exact
         under NaN, unlike output complementation) and complemented
         result constants for Ne, so each operand shape needs three
         direct loops instead of six *)
      let _, swap, t1, t0 =
        match op with
        | Ops.Lt -> (0, false, 1, 0)
        | Ops.Gt -> (0, true, 1, 0)
        | Ops.Le -> (1, false, 1, 0)
        | Ops.Ge -> (1, true, 1, 0)
        | Ops.Eq -> (2, false, 1, 0)
        | Ops.Ne -> (2, false, 0, 1)
      in
      let prim = match op with Ops.Lt | Ops.Gt -> `Lt | Ops.Le | Ops.Ge -> `Le | Ops.Eq | Ops.Ne -> `Eq in
      let lp, lq = if swap then (lb, la) else (la, lb) in
      match (lv.l_varying, fl) with
      | true, true -> (
          match (vf_slot lp, vf_slot lq) with
          | Some sp, Some sq -> (
              match prim with
              | `Lt ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask Exec.Cint;
                    let cap = fr.cap in
                    let vf = fr.vf and vi = fr.vi in
                    let bd = s * cap and bp = sp * cap and bq = sq * cap in
                    for l = 0 to fr.nlanes - 1 do
                      Array.unsafe_set vi (bd + l)
                        (if Array.unsafe_get vf (bp + l) < Array.unsafe_get vf (bq + l) then t1
                         else t0)
                    done
              | `Le ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask Exec.Cint;
                    let cap = fr.cap in
                    let vf = fr.vf and vi = fr.vi in
                    let bd = s * cap and bp = sp * cap and bq = sq * cap in
                    for l = 0 to fr.nlanes - 1 do
                      Array.unsafe_set vi (bd + l)
                        (if Array.unsafe_get vf (bp + l) <= Array.unsafe_get vf (bq + l) then t1
                         else t0)
                    done
              | `Eq ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask Exec.Cint;
                    let cap = fr.cap in
                    let vf = fr.vf and vi = fr.vi in
                    let bd = s * cap and bp = sp * cap and bq = sq * cap in
                    for l = 0 to fr.nlanes - 1 do
                      Array.unsafe_set vi (bd + l)
                        (if Array.unsafe_get vf (bp + l) = Array.unsafe_get vf (bq + l) then t1
                         else t0)
                    done)
          | Some sp, None when uni_scalar lq -> (
              let rq = ru_float lq in
              match prim with
              | `Lt ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask Exec.Cint;
                    let y = rq fr in
                    let cap = fr.cap in
                    let vf = fr.vf and vi = fr.vi in
                    let bd = s * cap and bp = sp * cap in
                    for l = 0 to fr.nlanes - 1 do
                      Array.unsafe_set vi (bd + l)
                        (if Array.unsafe_get vf (bp + l) < y then t1 else t0)
                    done
              | `Le ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask Exec.Cint;
                    let y = rq fr in
                    let cap = fr.cap in
                    let vf = fr.vf and vi = fr.vi in
                    let bd = s * cap and bp = sp * cap in
                    for l = 0 to fr.nlanes - 1 do
                      Array.unsafe_set vi (bd + l)
                        (if Array.unsafe_get vf (bp + l) <= y then t1 else t0)
                    done
              | `Eq ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask Exec.Cint;
                    let y = rq fr in
                    let cap = fr.cap in
                    let vf = fr.vf and vi = fr.vi in
                    let bd = s * cap and bp = sp * cap in
                    for l = 0 to fr.nlanes - 1 do
                      Array.unsafe_set vi (bd + l)
                        (if Array.unsafe_get vf (bp + l) = y then t1 else t0)
                    done)
          | None, Some sq when uni_scalar lp -> (
              let rp = ru_float lp in
              match prim with
              | `Lt ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask Exec.Cint;
                    let x = rp fr in
                    let cap = fr.cap in
                    let vf = fr.vf and vi = fr.vi in
                    let bd = s * cap and bq = sq * cap in
                    for l = 0 to fr.nlanes - 1 do
                      Array.unsafe_set vi (bd + l)
                        (if x < Array.unsafe_get vf (bq + l) then t1 else t0)
                    done
              | `Le ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask Exec.Cint;
                    let x = rp fr in
                    let cap = fr.cap in
                    let vf = fr.vf and vi = fr.vi in
                    let bd = s * cap and bq = sq * cap in
                    for l = 0 to fr.nlanes - 1 do
                      Array.unsafe_set vi (bd + l)
                        (if x <= Array.unsafe_get vf (bq + l) then t1 else t0)
                    done
              | `Eq ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask Exec.Cint;
                    let x = rp fr in
                    let cap = fr.cap in
                    let vf = fr.vf and vi = fr.vi in
                    let bd = s * cap and bq = sq * cap in
                    for l = 0 to fr.nlanes - 1 do
                      Array.unsafe_set vi (bd + l)
                        (if x = Array.unsafe_get vf (bq + l) then t1 else t0)
                    done)
          | _ ->
              let ra = rd_float la and rb = rd_float lb in
              fun fr mask ->
                Exec.count_op fr.ctx mask Exec.Cint;
                let base = s * fr.cap in
                for l = 0 to fr.nlanes - 1 do
                  fr.vi.(base + l) <- (if Ops.eval_float_cmp op (ra fr l) (rb fr l) then 1 else 0)
                done)
      | true, false -> (
          match (vi_slot lp, vi_slot lq) with
          | Some sp, Some sq -> (
              match prim with
              | `Lt ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask Exec.Cint;
                    let cap = fr.cap in
                    let vi = fr.vi in
                    let bd = s * cap and bp = sp * cap and bq = sq * cap in
                    for l = 0 to fr.nlanes - 1 do
                      Array.unsafe_set vi (bd + l)
                        (if Array.unsafe_get vi (bp + l) < Array.unsafe_get vi (bq + l) then t1
                         else t0)
                    done
              | `Le ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask Exec.Cint;
                    let cap = fr.cap in
                    let vi = fr.vi in
                    let bd = s * cap and bp = sp * cap and bq = sq * cap in
                    for l = 0 to fr.nlanes - 1 do
                      Array.unsafe_set vi (bd + l)
                        (if Array.unsafe_get vi (bp + l) <= Array.unsafe_get vi (bq + l) then t1
                         else t0)
                    done
              | `Eq ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask Exec.Cint;
                    let cap = fr.cap in
                    let vi = fr.vi in
                    let bd = s * cap and bp = sp * cap and bq = sq * cap in
                    for l = 0 to fr.nlanes - 1 do
                      Array.unsafe_set vi (bd + l)
                        (if Array.unsafe_get vi (bp + l) = Array.unsafe_get vi (bq + l) then t1
                         else t0)
                    done)
          | Some sp, None when uni_scalar lq -> (
              let rq = ru_int lq in
              match prim with
              | `Lt ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask Exec.Cint;
                    let y = rq fr in
                    let cap = fr.cap in
                    let vi = fr.vi in
                    let bd = s * cap and bp = sp * cap in
                    for l = 0 to fr.nlanes - 1 do
                      Array.unsafe_set vi (bd + l)
                        (if Array.unsafe_get vi (bp + l) < y then t1 else t0)
                    done
              | `Le ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask Exec.Cint;
                    let y = rq fr in
                    let cap = fr.cap in
                    let vi = fr.vi in
                    let bd = s * cap and bp = sp * cap in
                    for l = 0 to fr.nlanes - 1 do
                      Array.unsafe_set vi (bd + l)
                        (if Array.unsafe_get vi (bp + l) <= y then t1 else t0)
                    done
              | `Eq ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask Exec.Cint;
                    let y = rq fr in
                    let cap = fr.cap in
                    let vi = fr.vi in
                    let bd = s * cap and bp = sp * cap in
                    for l = 0 to fr.nlanes - 1 do
                      Array.unsafe_set vi (bd + l)
                        (if Array.unsafe_get vi (bp + l) = y then t1 else t0)
                    done)
          | None, Some sq when uni_scalar lp -> (
              let rp = ru_int lp in
              match prim with
              | `Lt ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask Exec.Cint;
                    let x = rp fr in
                    let cap = fr.cap in
                    let vi = fr.vi in
                    let bd = s * cap and bq = sq * cap in
                    for l = 0 to fr.nlanes - 1 do
                      Array.unsafe_set vi (bd + l)
                        (if x < Array.unsafe_get vi (bq + l) then t1 else t0)
                    done
              | `Le ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask Exec.Cint;
                    let x = rp fr in
                    let cap = fr.cap in
                    let vi = fr.vi in
                    let bd = s * cap and bq = sq * cap in
                    for l = 0 to fr.nlanes - 1 do
                      Array.unsafe_set vi (bd + l)
                        (if x <= Array.unsafe_get vi (bq + l) then t1 else t0)
                    done
              | `Eq ->
                  fun fr mask ->
                    Exec.count_op fr.ctx mask Exec.Cint;
                    let x = rp fr in
                    let cap = fr.cap in
                    let vi = fr.vi in
                    let bd = s * cap and bq = sq * cap in
                    for l = 0 to fr.nlanes - 1 do
                      Array.unsafe_set vi (bd + l)
                        (if x = Array.unsafe_get vi (bq + l) then t1 else t0)
                    done)
          | _ ->
              let ra = rd_int la and rb = rd_int lb in
              fun fr mask ->
                Exec.count_op fr.ctx mask Exec.Cint;
                let base = s * fr.cap in
                for l = 0 to fr.nlanes - 1 do
                  fr.vi.(base + l) <- (if Ops.eval_int_cmp op (ra fr l) (rb fr l) then 1 else 0)
                done)
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
      | KFloat, true -> (
          match (vi_slot lc, vf_slot la, vf_slot lb) with
          | Some sc, Some sa, Some sb ->
              fun fr mask ->
                Exec.count_op fr.ctx mask Exec.Cint;
                let cap = fr.cap in
                let vf = fr.vf and vi = fr.vi in
                let bd = s * cap and bc = sc * cap and ba = sa * cap and bb = sb * cap in
                for l = 0 to fr.nlanes - 1 do
                  Array.unsafe_set vf (bd + l)
                    (if Array.unsafe_get vi (bc + l) <> 0 then Array.unsafe_get vf (ba + l)
                     else Array.unsafe_get vf (bb + l))
                done
          | Some sc, Some sa, None when uni_scalar lb ->
              let rb = ru_float lb in
              fun fr mask ->
                Exec.count_op fr.ctx mask Exec.Cint;
                let y = rb fr in
                let cap = fr.cap in
                let vf = fr.vf and vi = fr.vi in
                let bd = s * cap and bc = sc * cap and ba = sa * cap in
                for l = 0 to fr.nlanes - 1 do
                  Array.unsafe_set vf (bd + l)
                    (if Array.unsafe_get vi (bc + l) <> 0 then Array.unsafe_get vf (ba + l)
                     else y)
                done
          | Some sc, None, Some sb when uni_scalar la ->
              let ra = ru_float la in
              fun fr mask ->
                Exec.count_op fr.ctx mask Exec.Cint;
                let x = ra fr in
                let cap = fr.cap in
                let vf = fr.vf and vi = fr.vi in
                let bd = s * cap and bc = sc * cap and bb = sb * cap in
                for l = 0 to fr.nlanes - 1 do
                  Array.unsafe_set vf (bd + l)
                    (if Array.unsafe_get vi (bc + l) <> 0 then x
                     else Array.unsafe_get vf (bb + l))
                done
          | Some sc, None, None when uni_scalar la && uni_scalar lb ->
              let ra = ru_float la and rb = ru_float lb in
              fun fr mask ->
                Exec.count_op fr.ctx mask Exec.Cint;
                let x = ra fr and y = rb fr in
                let cap = fr.cap in
                let vf = fr.vf and vi = fr.vi in
                let bd = s * cap and bc = sc * cap in
                for l = 0 to fr.nlanes - 1 do
                  Array.unsafe_set vf (bd + l)
                    (if Array.unsafe_get vi (bc + l) <> 0 then x else y)
                done
          | _ ->
              let rc = rd_int lc and ra = rd_float la and rb = rd_float lb in
              fun fr mask ->
                Exec.count_op fr.ctx mask Exec.Cint;
                let base = s * fr.cap in
                for l = 0 to fr.nlanes - 1 do
                  fr.vf.(base + l) <- (if rc fr l <> 0 then ra fr l else rb fr l)
                done)
      | KInt, true -> (
          match (vi_slot lc, vi_slot la, vi_slot lb) with
          | Some sc, Some sa, Some sb ->
              fun fr mask ->
                Exec.count_op fr.ctx mask Exec.Cint;
                let cap = fr.cap in
                let vi = fr.vi in
                let bd = s * cap and bc = sc * cap and ba = sa * cap and bb = sb * cap in
                for l = 0 to fr.nlanes - 1 do
                  Array.unsafe_set vi (bd + l)
                    (if Array.unsafe_get vi (bc + l) <> 0 then Array.unsafe_get vi (ba + l)
                     else Array.unsafe_get vi (bb + l))
                done
          | Some sc, Some sa, None when uni_scalar lb ->
              let rb = ru_int lb in
              fun fr mask ->
                Exec.count_op fr.ctx mask Exec.Cint;
                let y = rb fr in
                let cap = fr.cap in
                let vi = fr.vi in
                let bd = s * cap and bc = sc * cap and ba = sa * cap in
                for l = 0 to fr.nlanes - 1 do
                  Array.unsafe_set vi (bd + l)
                    (if Array.unsafe_get vi (bc + l) <> 0 then Array.unsafe_get vi (ba + l)
                     else y)
                done
          | Some sc, None, Some sb when uni_scalar la ->
              let ra = ru_int la in
              fun fr mask ->
                Exec.count_op fr.ctx mask Exec.Cint;
                let x = ra fr in
                let cap = fr.cap in
                let vi = fr.vi in
                let bd = s * cap and bc = sc * cap and bb = sb * cap in
                for l = 0 to fr.nlanes - 1 do
                  Array.unsafe_set vi (bd + l)
                    (if Array.unsafe_get vi (bc + l) <> 0 then x
                     else Array.unsafe_get vi (bb + l))
                done
          | Some sc, None, None when uni_scalar la && uni_scalar lb ->
              let ra = ru_int la and rb = ru_int lb in
              fun fr mask ->
                Exec.count_op fr.ctx mask Exec.Cint;
                let x = ra fr and y = rb fr in
                let cap = fr.cap in
                let vi = fr.vi in
                let bd = s * cap and bc = sc * cap in
                for l = 0 to fr.nlanes - 1 do
                  Array.unsafe_set vi (bd + l)
                    (if Array.unsafe_get vi (bc + l) <> 0 then x else y)
                done
          | _ ->
              let rc = rd_int lc and ra = rd_int la and rb = rd_int lb in
              fun fr mask ->
                Exec.count_op fr.ctx mask Exec.Cint;
                let base = s * fr.cap in
                for l = 0 to fr.nlanes - 1 do
                  fr.vi.(base + l) <- (if rc fr l <> 0 then ra fr l else rb fr l)
                done)
      | KBuf, true ->
          let rc = rd_int lc and ra = rd_buf la and rb = rd_buf lb in
          fun fr mask ->
            Exec.count_op fr.ctx mask Exec.Cint;
            let base = s * fr.cap in
            for l = 0 to fr.nlanes - 1 do
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
      let la = loc_of st a in
      let lv = new_loc st v in
      let s = lv.l_slot in
      match (lv.l_kind, lv.l_varying) with
      | KFloat, true -> (
          match (vf_slot la, vi_slot la) with
          | Some sa, _ ->
              fun fr mask ->
                Exec.count_op fr.ctx mask Exec.Cint;
                Array.blit fr.vf (sa * fr.cap) fr.vf (s * fr.cap) fr.nlanes
          | _, Some sa ->
              fun fr mask ->
                Exec.count_op fr.ctx mask Exec.Cint;
                let cap = fr.cap in
                let vf = fr.vf and vi = fr.vi in
                let bd = s * cap and ba = sa * cap in
                for l = 0 to fr.nlanes - 1 do
                  Array.unsafe_set vf (bd + l) (float_of_int (Array.unsafe_get vi (ba + l)))
                done
          | _ ->
              let ra = rd_float la in
              fun fr mask ->
                Exec.count_op fr.ctx mask Exec.Cint;
                let base = s * fr.cap in
                for l = 0 to fr.nlanes - 1 do
                  fr.vf.(base + l) <- ra fr l
                done)
      | KInt, true -> (
          match (vi_slot la, vf_slot la) with
          | Some sa, _ ->
              fun fr mask ->
                Exec.count_op fr.ctx mask Exec.Cint;
                Array.blit fr.vi (sa * fr.cap) fr.vi (s * fr.cap) fr.nlanes
          | _, Some sa ->
              fun fr mask ->
                Exec.count_op fr.ctx mask Exec.Cint;
                let cap = fr.cap in
                let vf = fr.vf and vi = fr.vi in
                let bd = s * cap and ba = sa * cap in
                for l = 0 to fr.nlanes - 1 do
                  Array.unsafe_set vi (bd + l) (int_of_float (Array.unsafe_get vf (ba + l)))
                done
          | _ ->
              let ra = rd_int la in
              fun fr mask ->
                Exec.count_op fr.ctx mask Exec.Cint;
                let base = s * fr.cap in
                for l = 0 to fr.nlanes - 1 do
                  fr.vi.(base + l) <- ra fr l
                done)
      | KFloat, false ->
          let ra = ru_float la in
          fun fr mask ->
            Exec.count_op fr.ctx mask Exec.Cint;
            fr.uf.(s) <- ra fr
      | KInt, false ->
          let ra = ru_int la in
          fun fr mask ->
            Exec.count_op fr.ctx mask Exec.Cint;
            fr.ui.(s) <- ra fr
      | KBuf, _ -> kbuf_arith_fail la.l_varying Exec.Cint)

(* ------------------------------------------------------------------ *)
(* Region codegen                                                      *)
(* ------------------------------------------------------------------ *)

type cterm = CNone | CYield of Value.t list | CYield_while of Value.t * Value.t list

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
      else
        fun fr _ ->
          let space = if fr.m.Exec.shared_as_global then Types.Global else Types.Shared in
          fr.ub.(s) <- Memory.alloc fr.m.Exec.alloc space elt size
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
    let rc = rd_int lc in
    let sc = vi_slot lc in
    (* one warp-strided pass builds both branch masks, their
       active/warp statistics, and the divergence counter — the
       generic path needed four scans (fill, two [mk_mask]s, warp
       recount) *)
    fun fr mask ->
      Exec.count_op fr.ctx mask Exec.Cint;
      let n = fr.nlanes in
      let mb = mask.Exec.bits in
      let tb = Array.make n false and eb = Array.make n false in
      let ws = fr.ctx.Exec.ws in
      let ta = ref 0 and ea = ref 0 and tw = ref 0 and ew = ref 0 in
      let c = fr.m.Exec.counters in
      let lane_true =
        match sc with
        | Some si ->
            let base = si * fr.cap in
            let vi = fr.vi in
            fun i -> Array.unsafe_get vi (base + i) <> 0
        | None -> fun i -> rc fr i <> 0
      in
      let l = ref 0 in
      while !l < n do
        let hi = min (!l + ws) n in
        let twany = ref false and ewany = ref false in
        for i = !l to hi - 1 do
          if Array.unsafe_get mb i then
            if lane_true i then begin
              Array.unsafe_set tb i true;
              incr ta;
              twany := true
            end
            else begin
              Array.unsafe_set eb i true;
              incr ea;
              ewany := true
            end
        done;
        if !twany then incr tw;
        if !ewany then incr ew;
        if !twany && !ewany then
          c.Counters.divergent_branches <- c.Counters.divergent_branches +. 1.;
        l := hi
      done;
      if !ta > 0 then begin
        run tcode fr { Exec.bits = tb; active = !ta; warps = !tw };
        tcopies fr tb
      end;
      if !ea > 0 then begin
        run ecode fr { Exec.bits = eb; active = !ea; warps = !ew };
        ecopies fr eb
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
    fun fr mask ->
      let n = fr.nlanes in
      let ivv = Array.make n 0 in
      for l = 0 to n - 1 do
        ivv.(l) <- r_lb fr l
      done;
      (* at one lane every value is dynamically uniform: the
         interpreter takes its scalar path, step check included *)
      if n = 1 && r_step fr 0 <= 0 then Exec.device_fail "for loop with non-positive step";
      init_copies fr;
      let bits = Array.make n false in
      let continue_ = ref true in
      while !continue_ do
        let mb = mask.Exec.bits in
        for l = 0 to n - 1 do
          bits.(l) <- mb.(l) && ivv.(l) < r_ub fr l
        done;
        let am = Exec.mk_mask fr.ctx bits in
        if am.Exec.active = 0 then continue_ := false
        else begin
          let base = siv * fr.cap in
          for l = 0 to n - 1 do
            fr.vi.(base + l) <- ivv.(l)
          done;
          Exec.count_op fr.ctx am Exec.Cint;
          Exec.count_op fr.ctx am Exec.Cint;
          run bcode fr am;
          ycm fr bits;
          for l = 0 to n - 1 do
            if bits.(l) then ivv.(l) <- ivv.(l) + r_step fr l
          done
        end
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
        fun fr mask ->
          init_copies fr;
          let active = ref mask in
          let continue_ = ref true in
          (* reused across iterations: each element's new value depends
             only on its own old value, so once [active] aliases [bits]
             the in-place update stays exact (the caller's mask is
             never written) *)
          let bits = Array.make fr.nlanes false in
          while !continue_ do
            Exec.count_op fr.ctx !active Exec.Cint;
            run bcode fr !active;
            cond_stage fr;
            ycm fr !active.Exec.bits;
            let n = fr.nlanes in
            let ab = !active.Exec.bits in
            for l = 0 to n - 1 do
              bits.(l) <- ab.(l) && rc fr l <> 0
            done;
            let am = Exec.mk_mask fr.ctx bits in
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
            ycm fr mask.Exec.bits;
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
  fun fr _mask ->
    if fr.nlanes <> 1 then Exec.device_fail "nested thread parallels";
    let ndims = Array.length dim_readers in
    let dims = Array.map (fun r -> r fr) dim_readers in
    let nlanes = Array.fold_left ( * ) 1 dims in
    if nlanes <= 0 then Exec.device_fail "thread parallel with empty dimension";
    fr.m.Exec.observed_threads <- nlanes;
    ensure_cap fr nlanes;
    fr.nlanes <- nlanes;
    fr.ctx <- { fr.ctx with Exec.nlanes };
    (* iv rows depend only on the dims: fill once per launch (or after
       capacity growth) and reuse across blocks *)
    if not (fr.tp_caps.(tp_id) = fr.cap && fr.tp_dims.(tp_id) = dims) then begin
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
            let stop = min nlanes (!l + str) in
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
      if Array.length fr.fmask.Exec.bits = nlanes then fr.fmask
      else begin
        let mk = Exec.full_mask fr.ctx in
        fr.fmask <- mk;
        mk
      end
    in
    run bcode fr mask;
    fr.nlanes <- 1;
    fr.ctx <- { fr.ctx with Exec.nlanes = 1 }

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
  ck_p : Instr.instr;  (** the compiled grid-level parallel, for {!Exec.run_grid} *)
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
        }
      in
      let frees = List.map (fun v -> (v, new_loc st v)) (Instr.free_values [ p ]) in
      let iv_locs = List.map (new_loc st) ivs in
      let code, _ = compile_block st ~vec:false body in
      {
        ck_id = Atomic.fetch_and_add next_id 1;
        ck_p = p;
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
        { Exec.m; env; nlanes = 1; ws = m.Exec.target.Pgpu_target.Descriptor.warp_size; sm = 0 };
      f_nvi = ck.ck_nvi;
      f_nvf = ck.ck_nvf;
      f_nvb = ck.ck_nvb;
      tp_dims = Array.make (max 1 ck.ck_ntp) [||];
      tp_caps = Array.make (max 1 ck.ck_ntp) (-1);
      fmask = { Exec.bits = [||]; active = 0; warps = 0 };
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
  fr.ctx <- { fr.ctx with Exec.env; nlanes = 1; sm = 0 };
  fr.nlanes <- 1;
  let dx, dy = bind_launch ck fr ~env in
  { inst with i_dx = dx; i_dy = dy }

let run_block (inst : instance) ~(sm : int) (lb : int) : unit =
  let fr = inst.i_fr in
  fr.nlanes <- 1;
  fr.ctx <- { fr.ctx with Exec.nlanes = 1; sm };
  let ivn = Array.length inst.i_iv_slots in
  if ivn > 0 then fr.ui.(inst.i_iv_slots.(0)) <- lb mod inst.i_dx;
  if ivn > 1 then fr.ui.(inst.i_iv_slots.(1)) <- lb / inst.i_dx mod inst.i_dy;
  if ivn > 2 then fr.ui.(inst.i_iv_slots.(2)) <- lb / (inst.i_dx * inst.i_dy);
  run inst.i_code fr inst.i_bmask;
  let c = fr.m.Exec.counters in
  c.Counters.blocks <- c.Counters.blocks +. 1.

let runner (ck : t) ~(env : Exec.env) : Exec.runner =
 fun m ->
  let inst = instantiate ck m ~env in
  fun ~sm lb -> run_block inst ~sm lb

(** Instances reused across the launches of one machine, by kernel. *)
type frames = (int, instance) Hashtbl.t

let frames () : frames = Hashtbl.create 8

let launch ?jobs ?frames (m : Exec.machine) ~(mode : Exec.mode) ~(env : Exec.env) (ck : t) :
    Exec.launch_result =
  Exec.run_grid ?jobs m ~mode ~env ck.ck_p (fun mg ->
      let inst =
        match frames with
        | Some fs when mg == m -> (
            match Hashtbl.find_opt fs ck.ck_id with
            | Some inst when inst.i_fr.m == m -> rebind ck inst ~env
            | _ ->
                let inst = instantiate ck m ~env in
                Hashtbl.replace fs ck.ck_id inst;
                inst)
        | _ -> instantiate ck mg ~env
      in
      fun ~sm lb -> run_block inst ~sm lb)

(** Static barrier-safety and shared-memory race checking over the IR
    (in the spirit of GPUVerify, scaled to this IR's structured
    regions).

    The thread-level parallel body is partitioned into {e barrier
    epochs}: maximal access sets not separated by a scoped barrier.
    Two distinct threads of one block race iff two accesses to the
    same shared buffer, at least one a write, can touch the same
    element within one epoch. Every access is summarized as a
    thread-index-affine index (or an affine base XOR a uniform mask,
    for butterfly patterns) plus the stack of control-flow guards
    under which it executes; pairs are then discharged with the
    {!Affine} decision procedures over two renamed thread instances.

    Loops containing a scoped barrier execute in lockstep, so their
    counter is a single symbol shared by both instances and epochs
    wrap around the loop back-edge (the tail segment of iteration [i]
    shares an epoch with the head segment of iteration [i + step]).
    Loops without a barrier run independently per thread: their
    counter is renamed per instance. Data-dependent guards are dropped
    (a sound over-approximation); accesses whose index the affine
    domain cannot represent produce a conservative "unknown index"
    warning.

    Barrier divergence: a scoped barrier under control flow that
    depends on the barrier's own parallel's induction variables is an
    error (the paper's barrier legality rule); under uniform control
    flow that is merely opaque (e.g. block-index-dependent) it is a
    warning.

    Solver verdicts go through a memo the caller owns ({!Affine.memo}),
    keyed by the solver's exact input (depth, symbol bounds, the
    equality and inequality rows) without names or [sid]s. Coarsening
    replicates shared accesses, and replicas at the same distance from
    each other produce the same collision system under fresh symbols,
    so most queries repeat a decided one — within one region and
    across the candidates of one kernel. [Alternatives.expand] keeps
    one memo per expansion (one per worker slot under [--jobs], so no
    lock is needed) and drops it when it returns; [check_modul] keeps
    one per module.

    A pair's queries are built once, and cheaply: the guards of each
    access become rows once per epoch, the pair numbers its renamed
    symbols in the order it meets them instead of renaming anything,
    and a distinctness branch is the collision query with one row
    inserted ({!Affine.query}). Every query array is the one the
    renamed system would give, so every verdict and the solver's
    elimination order are those of building each system afresh. *)

open Pgpu_ir
module A = Affine

(* ------------------------------------------------------------------ *)
(* Classification domain                                               *)
(* ------------------------------------------------------------------ *)

type buf = { bid : int; bname : string; size : int }

(** What the checker knows about an SSA value. *)
type cls =
  | Aff of A.t
  | Xorv of { base : A.t; mask : A.t }  (** thread-dep base XOR uniform mask *)
  | Bufv of buf
  | Unk of bool  (** [true] = (possibly) thread-dependent *)

type guard =
  | Gcmp of Ops.cmpop * A.t * A.t
  | Gmod0 of { e : A.t; m : A.t }  (** [e % m == 0], [m] uniform *)
  | Gxor of { base : A.t; mask : A.t; gt : bool }
      (** [(base ^ mask) > base] when [gt], else [<=] *)
  | Gopaque of bool  (** dropped; [true] = thread-dependent *)

type iform = Ix of A.t | Ixor of { base : A.t; mask : A.t }

type access = {
  abuf : buf;
  idx : iform;
  write : bool;
  guards : guard list;
}

type st = {
  mutable diags : Report.diagnostic list;
  mutable counter : int;  (** symbol ids, local to one check *)
  defs : (int, Instr.expr) Hashtbl.t;
  free : (int, cls) Hashtbl.t;  (** classification of free values *)
  const_of : Value.t -> int option;
      (** resolver for constants defined outside the region (the host
          code CSEs block dimensions and literals out of the kernel) *)
  mutable quiet : bool;  (** suppress diagnostics (loop re-walks) *)
  mutable tsyms : (A.t * A.row list) list;
      (** thread ivs of the parallel being checked, with their
          distinctness branches *)
  memo : A.memo;  (** the caller's verdict memo *)
}

let mk_st ~memo ?(const_of = fun _ -> None) () =
  {
    diags = [];
    counter = 0;
    defs = Hashtbl.create 64;
    free = Hashtbl.create 16;
    const_of;
    quiet = false;
    tsyms = [];
    memo;
  }

let diag st ~kernel ~severity ~kind message =
  if not st.quiet then
    st.diags <- { Report.severity; kind; kernel; message } :: st.diags

let fresh_sym st ?(lo = None) ?(hi = None) ~kind name =
  st.counter <- st.counter + 1;
  { A.sid = st.counter; name; kind; lo; hi }

let opaque st ?lo ?hi name = Aff (A.of_sym (fresh_sym st ~lo ~hi ~kind:A.Shared name))

module Env = Map.Make (Int)

type env = cls Env.t

let thread_dep = function
  | Aff a -> A.is_thread_dep a
  | Xorv _ -> true
  | Bufv _ -> false
  | Unk td -> td

let uniform c = not (thread_dep c)

let lookup st (env : env) (v : Value.t) : cls =
  match Env.find_opt v.Value.id env with
  | Some c -> c
  | None -> (
      (* free value of the region: an opaque uniform (kernel argument,
         grid size, host-computed scalar, device buffer) *)
      match Hashtbl.find_opt st.free v.Value.id with
      | Some c -> c
      | None ->
          let c =
            match st.const_of v with
            | Some n -> Aff (A.const n)
            | None -> opaque st v.Value.hint
          in
          Hashtbl.add st.free v.Value.id c;
          c)

let interval_of st env (v : Value.t) =
  match lookup st env v with Aff a -> A.interval a | _ -> (None, None)

(* ------------------------------------------------------------------ *)
(* Expression classification                                           *)
(* ------------------------------------------------------------------ *)

(* Interval of [x op y] from the operands' intervals, under the
   semantics of [Ops.eval_int_binop]. Its native ints wrap, so a bound
   product or shift that leaves the native range says nothing about
   the value on either side: both sides are unbounded then. Shift
   counts of 63 or more are unspecified (x86 masks them), and
   [x % 0] and [x / 0] are 0. *)
let ival_binop op (l1, h1) (l2, h2) =
  let all4 f =
    match (l1, h1, l2, h2) with
    | Some a, Some b, Some c, Some d -> (
        match [ f a c; f a d; f b c; f b d ] with
        | xs -> (Some (List.fold_left min max_int xs), Some (List.fold_left max min_int xs))
        | exception A.Overflow -> (None, None))
    | _ -> (None, None)
  in
  let nonneg = match (l1, l2) with Some a, Some c -> a >= 0 && c >= 0 | _ -> false in
  match op with
  | Ops.Mul -> all4 A.mul_c
  | Ops.Min -> all4 min
  | Ops.Max -> all4 max
  | Ops.Shl when nonneg -> (
      match (l1, h1, l2, h2) with
      | Some a, Some b, Some c, Some d when d < 62 && b <= max_int asr d ->
          (Some (a lsl c), Some (b lsl d))
      | _ -> (None, None))
  | Ops.Shr when nonneg -> (
      match (l1, h1, l2, h2) with
      | Some a, Some b, Some c, Some d when d < 63 -> (Some (a asr d), Some (b asr c))
      | _ -> (None, None))
  | Ops.Div when nonneg -> (
      match (l1, h1, l2, h2) with
      | Some a, Some b, Some c, Some d when c > 0 -> (Some (a / d), Some (b / c))
      | _ -> (None, None))
  | Ops.Rem -> (
      match h2 with
      | Some d when nonneg ->
          let hi = max 0 (d - 1) in
          (Some 0, Some (match h1 with Some b -> min b hi | None -> hi))
      | _ -> (None, None))
  | _ -> (None, None)

let cls_expr st (env : env) (res : Value.t) (e : Instr.expr) : cls =
  let cv v = lookup st env v in
  let opaque_binop ~kind op a b =
    (* non-affine arithmetic: a fresh opaque symbol with an interval
       derived from the operands. [Shared] when the inputs are uniform
       across the block, [Local] when they depend on a per-instance
       loop counter (both instances of the pair check then disagree on
       its value, as they may in an unsynchronized loop). *)
    let ia = match cv a with Aff x -> A.interval x | _ -> (None, None) in
    let ib = match cv b with Aff x -> A.interval x | _ -> (None, None) in
    let lo, hi = ival_binop op ia ib in
    Aff (A.of_sym (fresh_sym st ~lo ~hi ~kind res.Value.hint))
  in
  let opaque_uniform = opaque_binop ~kind:A.Shared in
  match e with
  | Instr.Const (Instr.Ci n) -> Aff (A.const n)
  | Instr.Const (Instr.Cf _) -> Unk false
  | Instr.Cast a -> if Types.is_float res.Value.ty then Unk (thread_dep (cv a)) else cv a
  | Instr.Unop (_, a) -> Unk (thread_dep (cv a))
  | Instr.Cmp (_, a, b) -> Unk (thread_dep (cv a) || thread_dep (cv b))
  | Instr.Select (c, a, b) ->
      if List.for_all uniform [ cv c; cv a; cv b ] then opaque st res.Value.hint
      else Unk true
  | Instr.Load { mem; idx } -> Unk (thread_dep (cv mem) || thread_dep (cv idx))
  | Instr.Binop (op, a, b) -> (
      let ca = cv a and cb = cv b in
      let is_zero = function Aff z -> A.is_const z && z.A.const = 0 | _ -> false in
      match (op, ca, cb) with
      (* adding/xoring a provably-zero term preserves any class, in
         particular the XOR-partner form the frontend wraps in a
         `0 * dim + ixj` flattened 2-D index *)
      | (Ops.Add | Ops.Or | Ops.Xor), z, c when is_zero z -> c
      | (Ops.Add | Ops.Sub | Ops.Or | Ops.Xor), c, z when is_zero z -> c
      | Ops.Add, Aff x, Aff y -> Aff (A.add x y)
      | Ops.Sub, Aff x, Aff y -> Aff (A.sub x y)
      | Ops.Mul, Aff x, Aff y -> (
          match A.mul x y with
          | Some z -> Aff z
          | None ->
              if A.is_uniform x && A.is_uniform y then opaque_uniform op a b
              else if (not (A.has_thread x)) && not (A.has_thread y) then
                opaque_binop ~kind:A.Local op a b
              else Unk true)
      | Ops.Shl, Aff x, Aff y when A.is_const y && y.A.const >= 0 && y.A.const < 31 ->
          Aff (A.scale (1 lsl y.A.const) x)
      | Ops.Xor, Aff x, Aff y when A.is_thread_dep x && A.is_uniform y -> Xorv { base = x; mask = y }
      | Ops.Xor, Aff x, Aff y when A.is_uniform x && A.is_thread_dep y -> Xorv { base = y; mask = x }
      | (Ops.Div | Ops.Rem | Ops.And | Ops.Or | Ops.Xor | Ops.Shl | Ops.Shr | Ops.Min | Ops.Max | Ops.Pow), _, _
        when uniform ca && uniform cb ->
          opaque_uniform op a b
      | ( (Ops.Div | Ops.Rem | Ops.And | Ops.Or | Ops.Xor | Ops.Shl | Ops.Shr | Ops.Min | Ops.Max | Ops.Pow),
          Aff x,
          Aff y )
        when (not (A.has_thread x)) && not (A.has_thread y) ->
          opaque_binop ~kind:A.Local op a b
      | _, _, _ -> Unk (thread_dep ca || thread_dep cb))

(* ------------------------------------------------------------------ *)
(* Guards                                                              *)
(* ------------------------------------------------------------------ *)

let guard_thread_dep = function
  | Gcmp (_, x, y) -> A.is_thread_dep x || A.is_thread_dep y
  | Gmod0 { e; _ } -> A.is_thread_dep e
  | Gxor _ -> true
  | Gopaque td -> td

let neg_cmp = function
  | Ops.Eq -> Ops.Ne
  | Ops.Ne -> Ops.Eq
  | Ops.Lt -> Ops.Ge
  | Ops.Ge -> Ops.Lt
  | Ops.Le -> Ops.Gt
  | Ops.Gt -> Ops.Le

let negate_guard = function
  | Gcmp (op, x, y) -> Gcmp (neg_cmp op, x, y)
  | Gxor r -> Gxor { r with gt = not r.gt }
  | Gmod0 { e; _ } -> Gopaque (A.is_thread_dep e)
  | Gopaque td -> Gopaque td

(** Summarize an [If] condition as a guard by inspecting its defining
    comparison. *)
let guard_of_cond st (env : env) (cond : Value.t) : guard =
  let fallback () = Gopaque (thread_dep (lookup st env cond)) in
  match Hashtbl.find_opt st.defs cond.Value.id with
  | Some (Instr.Cmp (op, a, b)) -> (
      let mod_guard x mv =
        match (lookup st env x, lookup st env mv) with
        | Aff e, Aff m when A.is_uniform m -> Some (Gmod0 { e; m })
        | _ -> None
      in
      let is_zero v = match lookup st env v with Aff z -> A.is_const z && z.A.const = 0 | _ -> false in
      match (lookup st env a, lookup st env b) with
      | Aff x, Aff y -> Gcmp (op, x, y)
      | Xorv { base; mask }, Aff y when A.equal base y && (op = Ops.Gt || op = Ops.Le) ->
          Gxor { base; mask; gt = op = Ops.Gt }
      | Aff y, Xorv { base; mask } when A.equal base y && (op = Ops.Lt || op = Ops.Ge) ->
          Gxor { base; mask; gt = op = Ops.Lt }
      | _, _ -> (
          (* t % m == 0 (either side the Rem) *)
          let try_mod u v =
            if op = Ops.Eq && is_zero v then
              match Hashtbl.find_opt st.defs u.Value.id with
              | Some (Instr.Binop (Ops.Rem, x, mv)) -> mod_guard x mv
              | _ -> None
            else None
          in
          match try_mod a b with
          | Some g -> g
          | None -> ( match try_mod b a with Some g -> g | None -> fallback ())))
  | _ -> fallback ()

(* ------------------------------------------------------------------ *)
(* The epoch walker                                                    *)
(* ------------------------------------------------------------------ *)

(** Accesses of the thread body, partitioned by barriers: [closed] are
    the finished epochs inside the walked region, [open_] the accesses
    since the last barrier. *)
type flow = { closed : access list list; open_ : access list }

let fl0 = { closed = []; open_ = [] }

let pp_iform ppf = function
  | Ix a -> A.pp ppf a
  | Ixor { base; mask } -> Fmt.pf ppf "(%a) ^ (%a)" A.pp base A.pp mask

(** An access as diagnostics quote it, e.g. ["store smem[t + s]"]. *)
let descr a = Fmt.str "%s %s[%a]" (if a.write then "store" else "load") a.abuf.bname pp_iform a.idx

let record_access st ~kernel (env : env) guards fl ~write (mem : Value.t) (idxv : Value.t) =
  match lookup st env mem with
  | Bufv b -> (
      let push idx = { fl with open_ = { abuf = b; idx; write; guards } :: fl.open_ } in
      match lookup st env idxv with
      | Aff a -> push (Ix a)
      | Xorv { base; mask } -> push (Ixor { base; mask })
      | Unk _ | Bufv _ ->
          diag st ~kernel ~severity:Report.Warning ~kind:"unknown-index"
            (Fmt.str
               "cannot summarize the index %%%s of a %s to shared buffer %s; assuming it may \
                race"
               idxv.Value.hint
               (if write then "store" else "load")
               b.bname);
          fl)
  | _ -> fl (* global or host memory: out of scope *)

(** Branch flow normalized for merging: the segment glued to the
    preceding epoch, fully interior epochs, and the segment glued to
    the following epoch. A barrier-free branch contributes its
    accesses to both sides (sound whether or not the branch splits). *)
let branch_parts (f : flow) =
  match f.closed with
  | [] -> (f.open_, [], f.open_)
  | first :: rest -> (first, rest, f.open_)

(* [guards] is every predicate known to hold at the program point (used
   as constraints by the pair checker); [ctl] is the subset coming from
   actual branching ([If]/[While]) — only those witness that a barrier
   may be control-divergent. Thread-domain bounds and lockstep loop
   bounds hold for every thread and never divide a block. *)
let rec walk_block st ~kernel ~tpid (env : env) ~(ctl : guard list) (guards : guard list)
    (fl : flow) (b : Instr.block) : flow * env =
  List.fold_left
    (fun (fl, env) i -> walk_instr st ~kernel ~tpid env ~ctl guards fl i)
    (fl, env) b

and walk_instr st ~kernel ~tpid (env : env) ~ctl guards fl (i : Instr.instr) : flow * env =
  match i with
  | Instr.Let (v, e) ->
      Hashtbl.replace st.defs v.Value.id e;
      let fl =
        match e with
        | Instr.Load { mem; idx } -> record_access st ~kernel env guards fl ~write:false mem idx
        | _ -> fl
      in
      (fl, Env.add v.Value.id (cls_expr st env v e) env)
  | Instr.Store { mem; idx; _ } ->
      (record_access st ~kernel env guards fl ~write:true mem idx, env)
  | Instr.Alloc_shared { res; size; _ } ->
      ( fl,
        Env.add res.Value.id
          (Bufv { bid = res.Value.id; bname = res.Value.hint; size })
          env )
  | Instr.Barrier { scope } ->
      if scope = tpid then begin
        (match List.find_opt guard_thread_dep ctl with
        | Some _ ->
            diag st ~kernel ~severity:Report.Error ~kind:"barrier-divergence"
              "barrier under thread-dependent control flow: threads of one block may not all \
               reach it"
        | None ->
            if ctl <> [] then
              diag st ~kernel ~severity:Report.Warning ~kind:"barrier-divergence"
                "barrier under non-affine (but block-uniform) control flow; epoch analysis \
                 assumes all threads reach it");
        ({ closed = fl.closed @ [ fl.open_ ]; open_ = [] }, env)
      end
      else (fl, env)
  | Instr.If { cond; results; then_; else_ } ->
      let g = guard_of_cond st env cond in
      let tfl, _ = walk_block st ~kernel ~tpid env ~ctl:(g :: ctl) (g :: guards) fl0 then_ in
      let efl, _ =
        walk_block st ~kernel ~tpid env ~ctl:(negate_guard g :: ctl) (negate_guard g :: guards)
          fl0 else_
      in
      let fl =
        if tfl.closed = [] && efl.closed = [] then
          { fl with open_ = fl.open_ @ tfl.open_ @ efl.open_ }
        else begin
          let tf, tm, tl = branch_parts tfl and ef, em, el = branch_parts efl in
          { closed = fl.closed @ [ fl.open_ @ tf @ ef ] @ tm @ em; open_ = tl @ el }
        end
      in
      let env =
        List.fold_left
          (fun env (r : Value.t) ->
            Env.add r.Value.id
              (if guard_thread_dep g then Unk true else opaque st r.Value.hint)
              env)
          env results
      in
      (fl, env)
  | Instr.For { iv; lb; ub; step; iter_args; results; body; _ } ->
      let clb = lookup st env lb and cub = lookup st env ub and cstep = lookup st env step in
      let lo_iv, _ = interval_of st env lb in
      let _, hi_ub = interval_of st env ub in
      let hi_iv = Option.map (fun h -> h - 1) hi_ub in
      let bound_guards ivc =
        let gs = match clb with Aff l -> [ Gcmp (Ops.Ge, ivc, l) ] | _ -> [] in
        match cub with Aff u -> Gcmp (Ops.Lt, ivc, u) :: gs | _ -> gs
      in
      let bind_iters env =
        List.fold_left (fun env (a : Value.t) -> Env.add a.Value.id (Unk true) env) env iter_args
      in
      let bind_results env =
        List.fold_left (fun env (r : Value.t) -> Env.add r.Value.id (Unk true) env) env results
      in
      let fl =
        if Instr.contains_barrier ~scope:tpid body then begin
          (* lockstep loop: one shared counter, wrap-around epochs *)
          if List.exists thread_dep [ clb; cub; cstep ] then
            diag st ~kernel ~severity:Report.Error ~kind:"barrier-divergence"
              "barrier inside a loop with thread-dependent bounds: threads may execute \
               different trip counts";
          let s = fresh_sym st ~lo:lo_iv ~hi:hi_iv ~kind:A.Shared iv.Value.hint in
          let ivc = A.of_sym s in
          let env_body = bind_iters (Env.add iv.Value.id (Aff ivc) env) in
          let bfl, _ =
            walk_block st ~kernel ~tpid env_body ~ctl (bound_guards ivc @ guards) fl0 body
          in
          (* the head segment of the next iteration, for the wrap-around
             epoch: re-walk with iv+step (locals get fresh symbols) *)
          let next_head =
            let stepc = match cstep with Aff a -> a | _ -> A.const 1 in
            let ivn = A.add ivc stepc in
            let envn = bind_iters (Env.add iv.Value.id (Aff ivn) env) in
            let gn =
              (match clb with Aff l -> [ Gcmp (Ops.Ge, ivn, A.add l stepc) ] | _ -> [])
              @ (match cub with Aff u -> [ Gcmp (Ops.Lt, ivn, u) ] | _ -> [])
              @ guards
            in
            let was_quiet = st.quiet in
            st.quiet <- true;
            let nfl, _ = walk_block st ~kernel ~tpid envn ~ctl gn fl0 body in
            st.quiet <- was_quiet;
            match nfl.closed with c :: _ -> c | [] -> nfl.open_
          in
          match bfl.closed with
          | [] -> { fl with open_ = fl.open_ @ bfl.open_ } (* barrier had a different scope *)
          | first :: middles ->
              let taken =
                match (clb, cub) with
                | Aff l, Aff u -> (
                    match (snd (A.interval l), fst (A.interval u)) with
                    | Some lbhi, Some ublo -> lbhi < ublo
                    | _ -> false)
                | _ -> false
              in
              {
                closed = fl.closed @ [ fl.open_ @ first ] @ middles @ [ bfl.open_ @ next_head ];
                open_ = (if taken then bfl.open_ else bfl.open_ @ fl.open_);
              }
        end
        else begin
          (* barrier-free loop: threads iterate independently *)
          let s = fresh_sym st ~lo:lo_iv ~hi:hi_iv ~kind:A.Local iv.Value.hint in
          let ivc = A.of_sym s in
          let env_body = bind_iters (Env.add iv.Value.id (Aff ivc) env) in
          let bfl, _ =
            walk_block st ~kernel ~tpid env_body ~ctl (bound_guards ivc @ guards) fl0 body
          in
          { fl with open_ = fl.open_ @ bfl.open_ @ List.concat bfl.closed }
        end
      in
      (fl, bind_results env)
  | Instr.While { iter_args; results; body; _ } ->
      if Instr.contains_barrier ~scope:tpid body then
        diag st ~kernel ~severity:Report.Error ~kind:"barrier-divergence"
          "barrier inside a data-dependent while loop: threads may execute different trip \
           counts";
      let env_body =
        List.fold_left (fun env (a : Value.t) -> Env.add a.Value.id (Unk true) env) env iter_args
      in
      let bfl, _ =
        walk_block st ~kernel ~tpid env_body ~ctl:(Gopaque true :: ctl)
          (Gopaque true :: guards) fl0 body
      in
      let env =
        List.fold_left (fun env (r : Value.t) -> Env.add r.Value.id (Unk true) env) env results
      in
      ({ fl with open_ = fl.open_ @ bfl.open_ @ List.concat bfl.closed }, env)
  | Instr.Parallel _ | Instr.Gpu_wrapper _ | Instr.Alternatives _ | Instr.Alloc _ | Instr.Free _
  | Instr.Memcpy _ | Instr.Intrinsic _ | Instr.Yield _ | Instr.Yield_while _ | Instr.Return _ ->
      (fl, env)

(* ------------------------------------------------------------------ *)
(* Pair checking                                                       *)
(* ------------------------------------------------------------------ *)

(** Affine constraint of a guard for one instance; [None] when the
    guard carries no conjunctive information. *)
let constraint_of_guard = function
  | Gcmp (Ops.Lt, x, y) -> Some (A.add_const (-1) (A.sub y x))
  | Gcmp (Ops.Le, x, y) -> Some (A.sub y x)
  | Gcmp (Ops.Gt, x, y) -> Some (A.add_const (-1) (A.sub x y))
  | Gcmp (Ops.Ge, x, y) -> Some (A.sub x y)
  | Gcmp ((Ops.Eq | Ops.Ne), _, _) | Gmod0 _ | Gxor _ | Gopaque _ -> None

let eq_of_guard = function Gcmp (Ops.Eq, x, y) -> Some (A.sub x y) | _ -> None

type verdict = Safe | Racy | Unprovable

(** Rows of one access under one instance, in query order. *)
type side = { eqs : A.row list; inb : A.row list; ges : A.row list }

(** What an access brings to the queries of each of its pairs, made
    once per epoch: its guards' constraints in guard order (the order
    in which the pair meets their symbols), its rows under either
    instance, the expression its collision row compares (the index, or
    the base of an XOR index) with its negation, and the [e], [-e] and
    [m] of each of its modulo guards. *)
type prepared = {
  acc : access;
  cons : A.t list;
  first : side;
  second : side;
  at : A.t;
  neg_at : A.t;
  mods : (A.t * A.t * A.t) list;
}

let prepare (a : access) =
  (* a guard has an inequality or an equality or neither *)
  let cons =
    List.filter_map
      (fun g ->
        match constraint_of_guard g with
        | Some c -> Some (false, c)
        | None -> Option.map (fun e -> (true, e)) (eq_of_guard g))
      a.guards
  in
  (* in query order: the last guard's row first; an index's bounds *)
  let rows eq = List.rev (List.filter_map (fun (e, c) -> if e = eq then Some c else None) cons) in
  let eqs = rows true and ges = rows false in
  let inb = match a.idx with Ix x -> [ x; A.sub (A.const (a.abuf.size - 1)) x ] | Ixor _ -> [] in
  let side inst =
    let under = List.map (fun c -> [ (inst, c) ]) in
    { eqs = under eqs; inb = under inb; ges = under ges }
  in
  let at = match a.idx with Ix x -> x | Ixor { base; _ } -> base in
  {
    acc = a;
    cons = List.map snd cons;
    first = side A.First;
    second = side A.Second;
    at;
    neg_at = A.neg at;
    mods = List.filter_map (function Gmod0 { e; m } -> Some (e, A.neg e, m) | _ -> None) a.guards;
  }

(** A thread symbol with its two distinctness branches across the
    instances, [t1 - t2 - 1 >= 0] and [t2 - t1 - 1 >= 0]. *)
let branches (t : A.sym) =
  let x = A.of_sym t in
  let x_1 = A.add_const (-1) x and neg = A.neg x in
  (x, [ [ (A.First, x_1); (A.Second, neg) ]; [ (A.Second, x_1); (A.First, neg) ] ])

(** Decide one pair of accesses for two distinct thread instances.
    The collision system is decided first, without a distinctness
    branch: when no two instances can touch one element at all, one
    query proves the pair safe. Otherwise each of the 2 × dims
    branches [t1 < t2] / [t1 > t2] must be infeasible; a branch query
    is the collision query with one more row.

    The per-instance symbols are numbered in the order the pair meets
    them — the collision's second half, then its first, the first
    access's guards, the second's, each matching pair of modulo guards
    (second, then first) and the thread symbols — so that every query
    is the one the pair's system would give with its symbols renamed
    to fresh ones in that order. *)
let check_pair st (p1 : prepared) (p2 : prepared) : verdict =
  let a1 = p1.acc and a2 = p2.acc in
  let collides =
    match (a1.idx, a2.idx) with
    | Ix _, Ix _ -> Some true
    | Ixor { mask = m1; _ }, Ixor { mask = m2; _ } -> if A.equal m1 m2 then Some true else None
    | Ix a, Ixor x | Ixor x, Ix a ->
        (* the antisymmetric swap rule: collision means a = base ^ mask;
           if both instances are guarded by (own ^ mask) > own, the
           XOR involution gives base > a and a > base: contradiction. *)
        let guarded base gs =
          List.exists
            (function
              | Gxor { base = gb; mask = gm; gt = true } -> A.equal gb base && A.equal gm x.mask
              | _ -> false)
            gs
        in
        let ga, gx = if match a1.idx with Ix _ -> true | _ -> false then (a1.guards, a2.guards) else (a2.guards, a1.guards) in
        if guarded a ga && guarded x.base gx then Some false else None
  in
  (* a collision that is a nonzero constant: no per-instance symbol,
     and the shared ones cancel *)
  let constant_apart () =
    A.is_uniform p1.at && A.is_uniform p2.at
    &&
    let c = A.sub p1.at p2.at in
    A.is_const c && c.A.const <> 0
  in
  match collides with
  | None -> Unprovable
  | Some false -> Safe (* swap rule discharged it *)
  | Some true when constant_apart () -> Safe
  | Some true when st.tsyms = [] -> Safe (* no thread dimension: single lane *)
  | Some true ->
      let num = A.numbering () in
      A.number num A.Second p2.at;
      A.number num A.First p1.at;
      List.iter (A.number num A.First) p1.cons;
      List.iter (A.number num A.Second) p2.cons;
      let mod_pairs =
        List.concat_map
          (fun (e1, _, m1) ->
            List.filter_map
              (fun (e2, neg_e2, m2) ->
                if A.equal m1 m2 then begin
                  A.number num A.Second e2;
                  A.number num A.First e1;
                  Some ([ (A.First, e1); (A.Second, neg_e2) ], m1)
                end
                else None)
              p2.mods)
          p1.mods
      in
      List.iter
        (fun (x, _) ->
          A.number num A.First x;
          A.number num A.Second x)
        st.tsyms;
      let collision = [ (A.First, p1.at); (A.Second, p2.neg_at) ] in
      let base =
        A.query num ~depth:2
          ~eqs:(p2.second.eqs @ p1.first.eqs @ [ collision ])
          ~ges:(p2.second.inb @ p1.first.inb @ p2.second.ges @ p1.first.ges)
      in
      let infeasible q =
        A.decide st.memo q || List.exists (fun (d, m) -> A.mod_guard st.memo q ~d ~m) mod_pairs
      in
      if infeasible base then Safe (* no collision, even for one thread *)
      else if
        List.for_all
          (fun (_, rows) -> List.for_all (fun row -> infeasible (A.and_ge base row)) rows)
          st.tsyms
      then Safe
      else Racy

let check_epochs st ~kernel (epochs : access list list) =
  List.iteri
    (fun ei accesses ->
      let arr = Array.of_list accesses in
      let n = Array.length arr in
      let prepared = Array.map (fun a -> lazy (prepare a)) arr in
      for i = 0 to n - 1 do
        for j = i to n - 1 do
          let a1 = arr.(i) and a2 = arr.(j) in
          if a1.abuf.bid = a2.abuf.bid && (a1.write || a2.write) then
            match check_pair st (Lazy.force prepared.(i)) (Lazy.force prepared.(j)) with
            | Safe -> ()
            | Racy ->
                diag st ~kernel ~severity:Report.Error ~kind:"shared-race"
                  (Fmt.str
                     "possible %s-%s race on shared buffer %s between '%s' and '%s' (barrier \
                      epoch %d): distinct threads can touch the same element"
                     (if a1.write then "write" else "read")
                     (if a2.write then "write" else "read")
                     a1.abuf.bname (descr a1) (descr a2) ei)
            | Unprovable ->
                diag st ~kernel ~severity:Report.Warning ~kind:"possible-race"
                  (Fmt.str
                     "cannot prove '%s' and '%s' disjoint on shared buffer %s (barrier epoch \
                      %d)"
                     (descr a1) (descr a2) a1.abuf.bname ei)
        done
      done)
    epochs

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(** Walk the uniform (host / grid) context: classify values, recurse
    through structure, and check every thread-level parallel found. *)
let rec walk_uniform st ~kernel (env : env) (b : Instr.block) : env =
  List.fold_left
    (fun env (i : Instr.instr) ->
      match i with
      | Instr.Let (v, e) ->
          Hashtbl.replace st.defs v.Value.id e;
          Env.add v.Value.id (cls_expr st env v e) env
      | Instr.Alloc_shared { res; size; _ } ->
          Env.add res.Value.id (Bufv { bid = res.Value.id; bname = res.Value.hint; size }) env
      | Instr.Gpu_wrapper { name; body; _ } ->
          ignore (walk_uniform st ~kernel:name env body);
          env
      | Instr.Alternatives { descs; regions; _ } ->
          List.iter2
            (fun desc region ->
              ignore (walk_uniform st ~kernel:(kernel ^ ":" ^ desc) env region))
            descs regions;
          env
      | Instr.Parallel { level = Instr.Blocks; ivs; ubs; body; _ } ->
          let env =
            List.fold_left2
              (fun env (iv : Value.t) ub ->
                let _, hi_ub = interval_of st env ub in
                let s =
                  fresh_sym st ~lo:(Some 0)
                    ~hi:(Option.map (fun h -> h - 1) hi_ub)
                    ~kind:A.Shared iv.Value.hint
                in
                Env.add iv.Value.id (Aff (A.of_sym s)) env)
              env ivs ubs
          in
          ignore (walk_uniform st ~kernel env body);
          env
      | Instr.Parallel { level = Instr.Threads; pid; ivs; ubs; body } ->
          let saved_tsyms = st.tsyms in
          let env_t, tsyms, tguards =
            List.fold_left2
              (fun (env, tsyms, gs) (iv : Value.t) ub ->
                let _, hi_ub = interval_of st env ub in
                let s =
                  fresh_sym st ~lo:(Some 0)
                    ~hi:(Option.map (fun h -> h - 1) hi_ub)
                    ~kind:(A.Thread (List.length tsyms))
                    iv.Value.hint
                in
                let ivc = A.of_sym s in
                let gs =
                  match lookup st env ub with
                  | Aff u -> Gcmp (Ops.Lt, ivc, u) :: Gcmp (Ops.Ge, ivc, A.const 0) :: gs
                  | _ -> Gcmp (Ops.Ge, ivc, A.const 0) :: gs
                in
                (Env.add iv.Value.id (Aff ivc) env, tsyms @ [ s ], gs))
              (env, [], []) ivs ubs
          in
          st.tsyms <- List.map branches tsyms;
          let fl, _ = walk_block st ~kernel ~tpid:pid env_t ~ctl:[] tguards fl0 body in
          check_epochs st ~kernel (fl.closed @ [ fl.open_ ]);
          st.tsyms <- saved_tsyms;
          env
      | Instr.If { then_; else_; results; _ } ->
          ignore (walk_uniform st ~kernel env then_);
          ignore (walk_uniform st ~kernel env else_);
          List.fold_left
            (fun env (r : Value.t) -> Env.add r.Value.id (opaque st r.Value.hint) env)
            env results
      | Instr.For { iv; lb; ub; iter_args; results; body; _ } ->
          let lo_iv, _ = interval_of st env lb in
          let _, hi_ub = interval_of st env ub in
          let s =
            fresh_sym st ~lo:lo_iv ~hi:(Option.map (fun h -> h - 1) hi_ub) ~kind:A.Shared
              iv.Value.hint
          in
          let env_body =
            List.fold_left
              (fun env (a : Value.t) -> Env.add a.Value.id (opaque st a.Value.hint) env)
              (Env.add iv.Value.id (Aff (A.of_sym s)) env)
              iter_args
          in
          ignore (walk_uniform st ~kernel env_body body);
          List.fold_left
            (fun env (r : Value.t) -> Env.add r.Value.id (opaque st r.Value.hint) env)
            env results
      | Instr.While { iter_args; results; body; _ } ->
          let env_body =
            List.fold_left
              (fun env (a : Value.t) -> Env.add a.Value.id (opaque st a.Value.hint) env)
              env iter_args
          in
          ignore (walk_uniform st ~kernel env_body body);
          List.fold_left
            (fun env (r : Value.t) -> Env.add r.Value.id (opaque st r.Value.hint) env)
            env results
      | Instr.Store _ | Instr.Barrier _ | Instr.Alloc _ | Instr.Free _ | Instr.Memcpy _
      | Instr.Intrinsic _ | Instr.Yield _ | Instr.Yield_while _ | Instr.Return _ ->
          env)
    env b

let dedup ds =
  List.sort_uniq compare ds

(** Whether [region] holds an [Alloc_shared] or a [Barrier]. Every
    diagnostic needs one: a race or an unknown index needs a shared
    buffer, which only [Alloc_shared] makes (a free value is never
    one), and a divergence needs a barrier. *)
let may_diagnose (region : Instr.block) =
  let found = ref false in
  Instr.iter_deep
    (function Instr.Alloc_shared _ | Instr.Barrier _ -> found := true | _ -> ())
    region;
  !found

(** Check a kernel region (the body of a [Gpu_wrapper], or a candidate
    region produced by [Alternatives.expand]). [const_of] resolves
    constants the host code defines outside the region — without it
    thread bounds and halo offsets degrade to opaque symbols and the
    checker loses most of its precision. A region that cannot be
    diagnosed ({!may_diagnose}) is not checked. *)
let check_region ~memo ?const_of ~kernel (region : Instr.block) : Report.diagnostic list =
  if not (may_diagnose region) then []
  else begin
    let st = mk_st ~memo ?const_of () in
    ignore (walk_uniform st ~kernel Env.empty region);
    dedup (List.rev st.diags)
  end

(** Check every kernel of a module. *)
let check_modul (m : Instr.modul) : Report.diagnostic list =
  let st = mk_st ~memo:(A.memo ()) () in
  List.iter (fun (f : Instr.func) -> ignore (walk_uniform st ~kernel:f.Instr.fname Env.empty f.Instr.body)) m.Instr.funcs;
  dedup (List.rev st.diags)

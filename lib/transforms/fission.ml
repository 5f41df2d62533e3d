(** Barrier fission: the sync-elimination lowering used to retarget
    GPU kernels to CPUs.

    A thread-level [Parallel] whose body contains [Barrier]s cannot be
    executed as a sequential per-thread loop: every thread must reach
    the barrier before any may pass it. Fission restores that order by
    splitting the thread body at each barrier into *epochs* — maximal
    barrier-free segments — and turning each epoch into its own
    thread-level [Parallel]. Running the epochs in sequence, each over
    all threads of the block, is observably equivalent to lockstep
    SPMD execution for race-free kernels (which the static race gate
    enforces for every [Alternatives] candidate).

    Structured control flow containing barriers is interchanged to
    block level first:
    - a [For] whose body synchronizes becomes a block-level loop over
      fissioned epochs — legal when its bounds are thread-invariant
      and it carries no iteration arguments;
    - an [If] whose branches synchronize becomes a block-level
      conditional — legal when its condition is thread-invariant;
    - a synchronizing [While] has no static trip count and is
      rejected (the kernel then runs unfissioned, each block in
      lockstep on its core).

    Values that *live across* a split are per-thread state the
    separate epoch loops no longer share. Two repairs apply:
    - **rematerialization**: a pure value whose defining chain depends
      only on thread ids and uniform values is recomputed in every
      epoch that needs it (the common case: index arithmetic);
    - **scalar expansion**: everything else (loaded values, results of
      thread-dependent control flow) is demoted to a per-thread
      scratch array indexed by the linear thread id — stored at the
      end of the defining epoch, reloaded at the top of each consuming
      epoch. Scratch lives in the block's shared space, sized by the
      static thread count, so it is instantiated per block like any
      [Alloc_shared].

    Thread-invariant pure lets (and [Alloc_shared]s) are hoisted to
    block level so they execute once per block instead of once per
    thread, and so they can serve as bounds and conditions of the
    interchanged control flow. *)

open Pgpu_ir

exception Failure_ of string

let fail fmt = Fmt.kstr (fun s -> raise (Failure_ s)) fmt

type stats = {
  epochs : int;  (** thread-level epoch loops emitted *)
  expanded : int;  (** values demoted to per-thread scratch arrays *)
  recomputed : int;  (** cross-epoch rematerialization sites *)
  hoisted : int;  (** uniform instructions moved to block level *)
}

type lowered = { region : Instr.block; stats : stats }

(* ------------------------------------------------------------------ *)
(* Static constants                                                    *)
(* ------------------------------------------------------------------ *)

(** Statically-known integer values of the region, folding pure
    integer chains: thread dimensions after coarsening are often
    [bs / tf] rather than a literal. Single forward pass — SSA defs
    dominate uses in traversal order. *)
let const_tbl (region : Instr.block) =
  let tbl = Value.Tbl.create 64 in
  let k v = Value.Tbl.find_opt tbl v in
  Instr.iter_deep
    (fun i ->
      match i with
      | Instr.Let (v, e) when not (Types.is_float v.Value.ty) -> (
          match e with
          | Instr.Const (Instr.Ci n) -> Value.Tbl.replace tbl v n
          | Instr.Binop (op, a, b) -> (
              match (k a, k b) with
              | Some x, Some y -> (
                  match Ops.eval_int_binop op x y with
                  | n -> Value.Tbl.replace tbl v n
                  | exception Invalid_argument _ -> ())
              | _ -> ())
          | Instr.Unop (op, a) -> (
              match k a with
              | Some x -> (
                  match Ops.eval_int_unop op x with
                  | n -> Value.Tbl.replace tbl v n
                  | exception Invalid_argument _ -> ())
              | None -> ())
          | Instr.Cast a -> ( match k a with Some x -> Value.Tbl.replace tbl v x | None -> ())
          | _ -> ())
      | _ -> ())
    region;
  fun v -> Value.Tbl.find_opt tbl v

(* ------------------------------------------------------------------ *)
(* Fission of one thread-level parallel                                *)
(* ------------------------------------------------------------------ *)

(* Strip a trailing [Yield []] terminator; interchanged regions get a
   fresh one at block level. *)
let strip_yield (b : Instr.block) =
  match List.rev b with
  | Instr.Yield [] :: rest -> List.rev rest
  | Instr.Yield _ :: _ -> fail "fission: synchronizing region yields values"
  | _ -> b

let fission_threads ~const_of (pid : int) (ivs : Value.t list) (ubs : Value.t list)
    (body : Instr.block) : Instr.block * stats =
  let dims =
    List.map
      (fun u ->
        match const_of u with
        | Some n when n > 0 -> n
        | Some _ | None -> fail "fission: thread extent %a is not statically known" Value.pp u)
      ubs
  in
  let nthreads = List.fold_left ( * ) 1 dims in

  let variant = Value.Tbl.create 64 in
  (* thread-dependent defs *)
  let hoist = Value.Tbl.create 16 in
  (* defs of block-level-hoisted instructions *)
  let def_epoch = Value.Tbl.create 64 in
  let def_order = Value.Tbl.create 64 in
  let def_expr = Value.Tbl.create 64 in
  let crossing = Value.Tbl.create 16 in
  List.iter (fun iv -> Value.Tbl.replace variant iv ()) ivs;
  let is_iv v = List.exists (Value.equal v) ivs in
  let uniform v = not (Value.Tbl.mem variant v) in
  let order = ref 0 in
  (* an instruction is hoistable when re-executing it at block level is
     safe and thread-invariant: pure lets over uniform operands, and
     static shared allocations *)
  let hoistable i =
    match i with
    | Instr.Let (_, _) -> Instr.is_pure i && List.for_all uniform (Instr.direct_uses i)
    | Instr.Alloc_shared _ -> true
    | _ -> false
  in

  (* --- pass A: epoch numbering, crossing analysis, legality --- *)
  let epoch = ref 0 in
  let note_use v =
    match Value.Tbl.find_opt def_epoch v with
    | Some e when e < !epoch -> Value.Tbl.replace crossing v ()
    | _ -> ()
  in
  let check_interchange_operand what v =
    if not (uniform v) then fail "fission: %s %a is thread-dependent" what Value.pp v;
    note_use v
  in
  let rec scan (b : Instr.block) =
    List.iter
      (fun i ->
        match i with
        | Instr.Barrier { scope } when scope = pid -> incr epoch
        | Instr.Barrier { scope } -> fail "fission: barrier scoped to foreign parallel #%d" scope
        | Instr.For { lb; ub; step; iter_args; body = fbody; _ }
          when Instr.contains_barrier fbody ->
            if iter_args <> [] then fail "fission: synchronizing loop carries iteration values";
            check_interchange_operand "loop bound" lb;
            check_interchange_operand "loop bound" ub;
            check_interchange_operand "loop step" step;
            incr epoch;
            scan (strip_yield fbody);
            incr epoch
        | Instr.If { cond; results; then_; else_; _ }
          when Instr.contains_barrier then_ || Instr.contains_barrier else_ ->
            if results <> [] then fail "fission: synchronizing conditional yields values";
            check_interchange_operand "branch condition" cond;
            incr epoch;
            scan (strip_yield then_);
            incr epoch;
            scan (strip_yield else_);
            incr epoch
        | Instr.While { body = wbody; _ } when Instr.contains_barrier wbody ->
            fail "fission: barrier inside a while loop (no static trip count)"
        | Instr.Parallel _ -> fail "fission: nested parallel inside a thread body"
        | _ ->
            List.iter note_use (Instr.deep_uses i);
            if hoistable i then List.iter (fun v -> Value.Tbl.replace hoist v ()) (Instr.defs i)
            else
              List.iter
                (fun (v : Value.t) ->
                  Value.Tbl.replace variant v ();
                  Value.Tbl.replace def_epoch v !epoch;
                  Value.Tbl.replace def_order v !order;
                  incr order;
                  match i with
                  | Instr.Let (_, e) -> Value.Tbl.replace def_expr v e
                  | _ -> ())
                (Instr.defs i))
      b
  in
  scan body;

  (* --- rematerializability (memoized; cycles cut conservatively) --- *)
  let remat_tbl = Value.Tbl.create 16 in
  let rec remat (v : Value.t) =
    match Value.Tbl.find_opt remat_tbl v with
    | Some r -> r
    | None ->
        Value.Tbl.replace remat_tbl v false;
        let r =
          match Value.Tbl.find_opt def_expr v with
          | Some (Instr.Load _) | None -> false
          | Some e ->
              List.for_all
                (fun o -> is_iv o || uniform o || remat o)
                (Instr.direct_uses (Instr.Let (v, e)))
        in
        Value.Tbl.replace remat_tbl v r;
        r
  in
  let crossing_list =
    Value.Tbl.fold (fun v () acc -> v :: acc) crossing []
    |> List.sort (fun x y -> compare (Value.Tbl.find def_order x) (Value.Tbl.find def_order y))
  in
  let expanded_list = List.filter (fun v -> not (remat v)) crossing_list in
  List.iter
    (fun (v : Value.t) ->
      if Types.is_memref v.Value.ty then
        fail "fission: buffer value %a lives across a barrier" Value.pp v)
    expanded_list;

  (* --- scratch arrays for scalar-expanded values --- *)
  let scratch = Value.Tbl.create 16 in
  let scratch_allocs =
    List.map
      (fun (v : Value.t) ->
        let elt = v.Value.ty in
        let buf = Value.fresh ~hint:("xp_" ^ v.Value.hint) (Types.Memref (Types.Shared, elt)) in
        Value.Tbl.replace scratch v buf;
        Instr.Alloc_shared { res = buf; elt; size = nthreads })
      expanded_list
  in

  let n_epochs = ref 0 and n_remat = ref 0 and n_hoisted = ref 0 in

  (* --- pass B: rebuild, mirroring pass A's epoch discipline --- *)
  let epoch = ref 0 in
  let rec rebuild (b : Instr.block) ~(emit : Instr.instr -> unit) =
    let cur = ref [] in
    let flush () =
      let instrs = List.rev !cur in
      cur := [];
      let e = !epoch in
      let outgoing =
        (* scalar-expanded values this epoch defines *)
        List.filter (fun v -> Value.Tbl.find_opt def_epoch v = Some e) expanded_list
      in
      if instrs = [] && outgoing = [] then ()
      else begin
        incr n_epochs;
        let ivs' = List.map Value.rebirth ivs in
        let rename = ref (List.combine ivs ivs') in
        (* earlier-epoch values this epoch reads, closed under the
           dependencies of rematerialized chains *)
        let needed = Value.Tbl.create 16 in
        let rec need v =
          match Value.Tbl.find_opt def_epoch v with
          | Some d when d < e && not (Value.Tbl.mem needed v) ->
              Value.Tbl.replace needed v ();
              if remat v then begin
                match Value.Tbl.find_opt def_expr v with
                | Some ex -> List.iter need (Instr.direct_uses (Instr.Let (v, ex)))
                | None -> ()
              end
          | _ -> ()
        in
        List.iter need (Instr.free_values instrs);
        let needed_list =
          Value.Tbl.fold (fun v () acc -> v :: acc) needed []
          |> List.sort (fun x y ->
                 compare (Value.Tbl.find def_order x) (Value.Tbl.find def_order y))
        in
        (* prologue: linear thread id (x fastest), scratch reloads and
           rematerialized chains, in original definition order *)
        let prologue = ref [] in
        let emit_thread i = prologue := i :: !prologue in
        let tid = ref None in
        let get_tid () =
          match !tid with
          | Some t -> t
          | None ->
              let t =
                match List.rev (List.combine ivs' dims) with
                | [] -> fail "fission: zero-dimensional thread loop"
                | [ (x, _) ] -> x
                | (slowest, _) :: faster ->
                    (* Horner from slowest to fastest dimension:
                       tid = (..(z*Dy + y)..)*Dx + x *)
                    List.fold_left
                      (fun acc (iv', d) ->
                        let cd = Value.fresh ~hint:"dim" Types.I32 in
                        emit_thread (Instr.Let (cd, Instr.Const (Instr.Ci d)));
                        let m = Value.fresh ~hint:"tid" Types.I32 in
                        emit_thread (Instr.Let (m, Instr.Binop (Ops.Mul, acc, cd)));
                        let s = Value.fresh ~hint:"tid" Types.I32 in
                        emit_thread (Instr.Let (s, Instr.Binop (Ops.Add, m, iv')));
                        s)
                      slowest faster
              in
              tid := Some t;
              t
        in
        List.iter
          (fun (v : Value.t) ->
            let v' = Value.rebirth v in
            (if remat v then begin
               incr n_remat;
               let ex = Value.Tbl.find def_expr v in
               match Clone.substitute ~rename:!rename [ Instr.Let (v', ex) ] with
               | [ i ] -> emit_thread i
               | _ -> assert false
             end
             else
               match Value.Tbl.find_opt scratch v with
               | Some buf ->
                   emit_thread (Instr.Let (v', Instr.Load { mem = buf; idx = get_tid () }))
               | None -> fail "fission: internal: %a has no scratch slot" Value.pp v);
            rename := (v, v') :: !rename)
          needed_list;
        let body' = Clone.substitute ~rename:!rename instrs in
        let epilogue =
          List.map
            (fun v ->
              let buf = Value.Tbl.find scratch v in
              Instr.Store { mem = buf; idx = get_tid (); v })
            outgoing
        in
        let body_full = List.rev !prologue @ body' @ epilogue in
        emit
          (Instr.Parallel
             {
               pid = Instr.fresh_region_id ();
               level = Instr.Threads;
               ivs = ivs';
               ubs;
               body = body_full;
             })
      end
    in
    List.iter
      (fun i ->
        match i with
        | Instr.Barrier { scope } when scope = pid ->
            flush ();
            incr epoch
        | Instr.For ({ body = fbody; _ } as f) when Instr.contains_barrier fbody ->
            flush ();
            incr epoch;
            let inner = ref [] in
            rebuild (strip_yield fbody) ~emit:(fun x -> inner := x :: !inner);
            incr epoch;
            emit (Instr.For { f with body = List.rev !inner @ [ Instr.Yield [] ] })
        | Instr.If ({ then_; else_; _ } as c)
          when Instr.contains_barrier then_ || Instr.contains_barrier else_ ->
            flush ();
            incr epoch;
            let tb = ref [] in
            rebuild (strip_yield then_) ~emit:(fun x -> tb := x :: !tb);
            incr epoch;
            let eb = ref [] in
            rebuild (strip_yield else_) ~emit:(fun x -> eb := x :: !eb);
            incr epoch;
            emit
              (Instr.If
                 {
                   c with
                   then_ = List.rev !tb @ [ Instr.Yield [] ];
                   else_ = List.rev !eb @ [ Instr.Yield [] ];
                 })
        | _ when Instr.defs i <> [] && List.for_all (Value.Tbl.mem hoist) (Instr.defs i) ->
            incr n_hoisted;
            emit i
        | _ -> cur := i :: !cur)
      b;
    flush ()
  in
  let out = ref [] in
  rebuild body ~emit:(fun i -> out := i :: !out);
  ( scratch_allocs @ List.rev !out,
    {
      epochs = !n_epochs;
      expanded = List.length expanded_list;
      recomputed = !n_remat;
      hoisted = !n_hoisted;
    } )

(* ------------------------------------------------------------------ *)
(* Region lowering                                                     *)
(* ------------------------------------------------------------------ *)

let add_stats x y =
  {
    epochs = x.epochs + y.epochs;
    expanded = x.expanded + y.expanded;
    recomputed = x.recomputed + y.recomputed;
    hoisted = x.hoisted + y.hoisted;
  }

(** Lower every synchronizing thread-level parallel of a kernel region
    (wrapper body or alternative candidate) to barrier-free epochs.
    Barrier-free thread loops and host-level structure are untouched.
    [Error] reports the first construct fission cannot handle — the
    caller then runs the region unfissioned on the compiled engine,
    each block in lockstep on its core, which is always correct. *)
let lower_region ?(const_of_ext = fun (_ : Value.t) -> None) (region : Instr.block) :
    (lowered, string) result =
  let static = const_tbl region in
  (* thread extents and coarsening factors are frequently host-computed
     (kernel parameters, sizes read at run time): the caller may supply
     their concrete values, e.g. from the runtime environment at first
     launch. Memoization keyed on those extents is the caller's duty. *)
  let const_of v = match static v with Some _ as r -> r | None -> const_of_ext v in
  let stats = ref { epochs = 0; expanded = 0; recomputed = 0; hoisted = 0 } in
  let rec walk (b : Instr.block) : Instr.block =
    List.concat_map
      (fun i ->
        match i with
        | Instr.Parallel { level = Instr.Threads; pid; ivs; ubs; body }
          when Instr.contains_barrier body ->
            let is, s = fission_threads ~const_of pid ivs ubs body in
            stats := add_stats !stats s;
            is
        | Instr.Parallel ({ level = Instr.Blocks; _ } as p) ->
            [ Instr.Parallel { p with body = walk p.body } ]
        | Instr.For f -> [ Instr.For { f with body = walk f.body } ]
        | Instr.While w -> [ Instr.While { w with body = walk w.body } ]
        | Instr.If c -> [ Instr.If { c with then_ = walk c.then_; else_ = walk c.else_ } ]
        | Instr.Gpu_wrapper w -> [ Instr.Gpu_wrapper { w with body = walk w.body } ]
        | Instr.Alternatives a ->
            [ Instr.Alternatives { a with regions = List.map walk a.regions } ]
        | _ -> [ i ])
      b
  in
  match walk region with
  | region -> Ok { region; stats = !stats }
  | exception Failure_ msg -> Error msg

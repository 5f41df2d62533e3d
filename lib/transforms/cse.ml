(** Common subexpression elimination, including redundant-load
    elimination and store-to-load forwarding.

    Load CSE is what lets block coarsening deduplicate global loads of
    tiles shared between merged blocks (the L2→L1 traffic reduction of
    Table II): after unroll-and-interleave, the copies of such loads
    have identical operands and no intervening stores or barriers, so
    they fold into one.

    Scopes. One pure table and one load table serve the whole run.
    Definitions made inside a nested region do not dominate code after
    it, so every addition is logged and a region's additions are
    undone when it ends. An effect (store, barrier, memcpy, intrinsic,
    alternatives) clears the load table; a nested region containing
    one leaves it cleared for the enclosing scope.

    Loops. A [for] or [while] body that deeply contains such an effect
    starts with no load knowledge: its stores change the memory the
    next iteration reads. A body without one inherits the knowledge
    from before the loop.

    Keys. Two expressions are one when they have the same operator and
    resolved operand ids, with commutative operands ordered by id, and
    the same result type for constants, binops, unops and casts. Float
    constants are equal when their bits are, except that all NaNs of
    one sign are one constant. A load is keyed by its resolved memref
    and index. *)

open Pgpu_ir

module Key = struct
  type t =
    | Ci of Types.t * int
    | Cf of Types.t * int64  (** bits, one pattern per NaN sign *)
    | Binop of Types.t * Ops.binop * int * int
    | Unop of Types.t * Ops.unop * int
    | Cmp of Ops.cmpop * int * int
    | Select of int * int * int
    | Cast of Types.t * int
    | Load of int * int  (** memref, index *)

  (* operators are constant constructors, so [==] is their equality *)
  let equal a b =
    match (a, b) with
    | Ci (t, n), Ci (t', n') -> n = n' && Types.equal t t'
    | Cf (t, x), Cf (t', x') -> Int64.equal x x' && Types.equal t t'
    | Binop (t, op, x, y), Binop (t', op', x', y') ->
        x = x' && y = y' && op == op' && Types.equal t t'
    | Unop (t, op, x), Unop (t', op', x') -> x = x' && op == op' && Types.equal t t'
    | Cmp (op, x, y), Cmp (op', x', y') -> x = x' && y = y' && op == op'
    | Select (c, x, y), Select (c', x', y') -> c = c' && x = x' && y = y'
    | Cast (t, x), Cast (t', x') -> x = x' && Types.equal t t'
    | Load (m, i), Load (m', i') -> m = m' && i = i'
    | (Ci _ | Cf _ | Binop _ | Unop _ | Cmp _ | Select _ | Cast _ | Load _), _ -> false

  let hash : t -> int = Hashtbl.hash
end

module Tbl = Hashtbl.Make (Key)

type env = {
  repl : Value.t Value.Tbl.t;  (** global replacement map *)
  pure : Value.t Tbl.t;  (** expression key -> value *)
  loads : Value.t Tbl.t;  (** (mem, idx) key -> known contents *)
  mutable pure_log : Key.t list;  (** keys added to [pure], newest first *)
  mutable load_log : (Key.t * Value.t option) list;
      (** keys set in [loads] since it was last cleared, newest first,
          with the binding each one replaced *)
}

(* rewrites performed by the last [run_*] call (pass telemetry) *)
let rewrites = ref 0

let rec resolve env v =
  match Value.Tbl.find_opt env.repl v with Some v' -> resolve env v' | None -> v

(* the bits of a float constant, all NaNs of one sign mapped to one
   pattern *)
let float_key f =
  if Float.is_nan f then if Float.sign_bit f then 0xFFF8_0000_0000_0000L else 0x7FF8_0000_0000_0000L
  else Int64.bits_of_float f

(** Structural key of an expression whose operands are already
    resolved; operand order is normalized for commutative operators. *)
let key_of (res : Value.t) (e : Instr.expr) : Key.t =
  let ty = res.Value.ty in
  match e with
  | Instr.Const (Instr.Ci n) -> Key.Ci (ty, n)
  | Instr.Const (Instr.Cf f) -> Key.Cf (ty, float_key f)
  | Instr.Binop (op, a, b) ->
      let x = a.Value.id and y = b.Value.id in
      if Ops.commutative op && y < x then Key.Binop (ty, op, y, x) else Key.Binop (ty, op, x, y)
  | Instr.Unop (op, a) -> Key.Unop (ty, op, a.Value.id)
  | Instr.Cmp (op, a, b) -> Key.Cmp (op, a.Value.id, b.Value.id)
  | Instr.Select (c, a, b) -> Key.Select (c.Value.id, a.Value.id, b.Value.id)
  | Instr.Cast a -> Key.Cast (ty, a.Value.id)
  | Instr.Load { mem; idx } -> Key.Load (mem.Value.id, idx.Value.id)

let rewrite_expr env (e : Instr.expr) : Instr.expr =
  let r = resolve env in
  match e with
  | Instr.Const _ -> e
  | Instr.Binop (op, a, b) -> Instr.Binop (op, r a, r b)
  | Instr.Unop (op, a) -> Instr.Unop (op, r a)
  | Instr.Cmp (op, a, b) -> Instr.Cmp (op, r a, r b)
  | Instr.Select (c, a, b) -> Instr.Select (r c, r a, r b)
  | Instr.Cast a -> Instr.Cast (r a)
  | Instr.Load { mem; idx } -> Instr.Load { mem = r mem; idx = r idx }

let set_load env k prev v =
  env.load_log <- (k, prev) :: env.load_log;
  Tbl.replace env.loads k v

(** Does reaching the instruction, or anything nested in it, clear the
    load table? *)
let rec kills_loads (i : Instr.instr) =
  match i with
  | Instr.Store _ | Instr.Barrier _ | Instr.Memcpy _ | Instr.Intrinsic _ | Instr.Alternatives _ ->
      true
  | Instr.If { then_; else_; _ } -> List.exists kills_loads then_ || List.exists kills_loads else_
  | Instr.For { body; _ }
  | Instr.While { body; _ }
  | Instr.Parallel { body; _ }
  | Instr.Gpu_wrapper { body; _ } ->
      List.exists kills_loads body
  | Instr.Let _ | Instr.Alloc_shared _ | Instr.Alloc _ | Instr.Free _ | Instr.Yield _
  | Instr.Yield_while _ | Instr.Return _ ->
      false

(** Process a block. Returns the rewritten block and whether it may
    have changed memory (or synchronized), which kills load knowledge
    in the enclosing scope. *)
let rec cse_block env (block : Instr.block) : Instr.block * bool =
  let out = ref [] in
  let killed = ref false in
  let push i = out := i :: !out in
  let kill_loads () =
    Tbl.reset env.loads;
    env.load_log <- [];
    killed := true
  in
  (* run a nested region, then undo its additions; a region that
     cleared the load table leaves it cleared *)
  let scoped blk =
    let pure_mark = env.pure_log and load_mark = env.load_log in
    let blk', k = cse_block env blk in
    let rec undo_pure = function
      | l when l == pure_mark -> ()
      | key :: l ->
          Tbl.remove env.pure key;
          undo_pure l
      | [] -> assert false
    in
    let rec undo_loads = function
      | l when l == load_mark -> ()
      | (key, Some u) :: l ->
          Tbl.replace env.loads key u;
          undo_loads l
      | (key, None) :: l ->
          Tbl.remove env.loads key;
          undo_loads l
      | [] -> assert false
    in
    undo_pure env.pure_log;
    env.pure_log <- pure_mark;
    if k then kill_loads ()
    else begin
      undo_loads env.load_log;
      env.load_log <- load_mark
    end;
    blk'
  in
  (* a loop body's effects reach the loads of its next iteration *)
  let loop_body body =
    if List.exists kills_loads body then kill_loads ();
    scoped body
  in
  List.iter
    (fun (i : Instr.instr) ->
      let r = resolve env in
      match i with
      | Instr.Let (v, (Instr.Load _ as e)) -> (
          let e = rewrite_expr env e in
          let k = key_of v e in
          match Tbl.find_opt env.loads k with
          | Some u when Types.equal u.Value.ty v.Value.ty ->
              incr rewrites;
              Value.Tbl.replace env.repl v u
          | prev ->
              set_load env k prev v;
              push (Instr.Let (v, e)))
      | Instr.Let (v, e) -> (
          let e = rewrite_expr env e in
          let k = key_of v e in
          match Tbl.find_opt env.pure k with
          | Some u ->
              incr rewrites;
              Value.Tbl.replace env.repl v u
          | None ->
              Tbl.add env.pure k v;
              env.pure_log <- k :: env.pure_log;
              push (Instr.Let (v, e)))
      | Instr.Store { mem; idx; v } ->
          let mem = r mem and idx = r idx and v = r v in
          kill_loads ();
          (* store-to-load forwarding: the stored value is now known *)
          set_load env (Key.Load (mem.Value.id, idx.Value.id)) None v;
          push (Instr.Store { mem; idx; v })
      | Instr.Barrier _ ->
          kill_loads ();
          push i
      | Instr.If ({ cond; then_; else_; _ } as f) ->
          let then' = scoped then_ in
          let else' = scoped else_ in
          push (Instr.If { f with cond = r cond; then_ = then'; else_ = else' })
      | Instr.For ({ lb; ub; step; inits; body; _ } as f) ->
          let body' = loop_body body in
          push
            (Instr.For
               {
                 f with
                 lb = r lb;
                 ub = r ub;
                 step = r step;
                 inits = List.map r inits;
                 body = body';
               })
      | Instr.While ({ inits; body; _ } as w) ->
          let body' = loop_body body in
          push (Instr.While { w with inits = List.map r inits; body = body' })
      | Instr.Parallel ({ ubs; body; _ } as p) ->
          let body' = scoped body in
          push (Instr.Parallel { p with ubs = List.map r ubs; body = body' })
      | Instr.Alloc_shared _ -> push i
      | Instr.Alloc ({ count; _ } as a) -> push (Instr.Alloc { a with count = r count })
      | Instr.Free v -> push (Instr.Free (r v))
      | Instr.Memcpy { dst; src; count } ->
          kill_loads ();
          push (Instr.Memcpy { dst = r dst; src = r src; count = r count })
      | Instr.Gpu_wrapper ({ body; _ } as w) ->
          let body' = scoped body in
          push (Instr.Gpu_wrapper { w with body = body' })
      | Instr.Alternatives ({ regions; _ } as a) ->
          let regions' = List.map scoped regions in
          kill_loads ();
          push (Instr.Alternatives { a with regions = regions' })
      | Instr.Intrinsic ({ args; _ } as c) ->
          kill_loads ();
          push (Instr.Intrinsic { c with args = List.map r args })
      | Instr.Yield vs -> push (Instr.Yield (List.map r vs))
      | Instr.Yield_while (c, vs) -> push (Instr.Yield_while (r c, List.map r vs))
      | Instr.Return vs -> push (Instr.Return (List.map r vs)))
    block;
  (List.rev !out, !killed)

let cse_top block =
  let env =
    {
      repl = Value.Tbl.create 256;
      pure = Tbl.create 256;
      loads = Tbl.create 64;
      pure_log = [];
      load_log = [];
    }
  in
  fst (cse_block env block)

let run_block block =
  rewrites := 0;
  cse_top block

let run_func (f : Instr.func) =
  rewrites := 0;
  { f with Instr.body = cse_top f.Instr.body }

let run_modul (m : Instr.modul) =
  rewrites := 0;
  { Instr.funcs = List.map (fun f -> { f with Instr.body = cse_top f.Instr.body }) m.Instr.funcs }

let rewrite_count () = !rewrites

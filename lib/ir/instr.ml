(** The Polygeist-GPU IR.

    A structured, region-based SSA IR modelled on the MLIR dialects the
    paper uses ([arith], [memref], [scf], [gpu], [polygeist]):

    - straight-line code is a list of [Let]-bound pure expressions,
      loads and stores;
    - structured control flow ([If], [For], [While]) carries regions
      and yields SSA results, exactly like [scf];
    - GPU blocks and threads are explicit multi-dimensional [Parallel]
      loops (the paper's central representation choice), and
      [Barrier] records the id of the parallel loop it synchronizes —
      the [polygeist.barrier] design;
    - device code is inlined in host code inside a [Gpu_wrapper]
      region op, enabling host/device co-optimization;
    - [Alternatives] is the multi-versioning op of Section VI. *)

type const = Ci of int | Cf of float

(** Pure or memory-reading right-hand sides of [Let]. *)
type expr =
  | Const of const
  | Binop of Ops.binop * Value.t * Value.t
  | Unop of Ops.unop * Value.t
  | Cmp of Ops.cmpop * Value.t * Value.t
  | Select of Value.t * Value.t * Value.t
  | Cast of Value.t  (** conversion; the target type is that of the bound value *)
  | Load of { mem : Value.t; idx : Value.t }

(** Whether a parallel loop nest stands for the grid (blocks) or for
    the threads of one block. *)
type par_level = Blocks | Threads

type instr =
  | Let of Value.t * expr
  | Store of { mem : Value.t; idx : Value.t; v : Value.t }
  | If of { cond : Value.t; results : Value.t list; then_ : block; else_ : block }
  | For of {
      iv : Value.t;
      lb : Value.t;
      ub : Value.t;
      step : Value.t;
      iter_args : Value.t list;  (** region arguments carried across iterations *)
      inits : Value.t list;
      results : Value.t list;
      body : block;
    }
  | While of {
      iter_args : Value.t list;
      inits : Value.t list;
      results : Value.t list;
      body : block;  (** do-while; terminated by [Yield_while (cond, next)] *)
    }
  | Parallel of {
      pid : int;  (** unique id; referenced by [Barrier] scopes *)
      level : par_level;
      ivs : Value.t list;  (** induction variables, dims ordered x, y, z *)
      ubs : Value.t list;  (** exclusive upper bounds; lb = 0, step = 1 *)
      body : block;
    }
  | Barrier of { scope : int }  (** synchronizes the parallel loop with this [pid] *)
  | Alloc_shared of { res : Value.t; elt : Types.t; size : int }
      (** static per-block shared memory; duplicated by block coarsening *)
  | Alloc of { res : Value.t; space : Types.space; elt : Types.t; count : Value.t }
      (** host-side allocation of host or device (global) buffers *)
  | Free of Value.t
  | Memcpy of { dst : Value.t; src : Value.t; count : Value.t }
      (** element-count copy; direction is implied by the memref spaces *)
  | Gpu_wrapper of { wid : int; name : string; body : block }
      (** a kernel launch: the region contains the grid-level [Parallel] *)
  | Alternatives of { aid : int; descs : string list; regions : block list }
      (** compile-time multi-versioning: each region computes the same result *)
  | Intrinsic of { results : Value.t list; name : string; args : Value.t list }
      (** host runtime helpers (timers, input generation, printing) *)
  | Yield of Value.t list  (** terminator of [If]/[For] regions *)
  | Yield_while of Value.t * Value.t list  (** terminator of [While] regions *)
  | Return of Value.t list  (** terminator of a function body *)

and block = instr list

type func = { fname : string; params : Value.t list; ret : Types.t list; body : block }
type modul = { funcs : func list }

(* Atomic so that region cloning is safe when candidate expansion runs
   on several domains concurrently. *)
let region_counter = Atomic.make 0

let fresh_region_id () = Atomic.fetch_and_add region_counter 1 + 1

let find_func m name =
  match List.find_opt (fun f -> String.equal f.fname name) m.funcs with
  | Some f -> f
  | None -> Pgpu_support.Util.failf "Instr.find_func: no function named %s" name

(** Values defined by an instruction (visible to subsequent
    instructions of the same block). *)
let defs = function
  | Let (v, _) -> [ v ]
  | If { results; _ } -> results
  | For { results; _ } -> results
  | While { results; _ } -> results
  | Alloc_shared { res; _ } -> [ res ]
  | Alloc { res; _ } -> [ res ]
  | Intrinsic { results; _ } -> results
  | Store _ | Parallel _ | Barrier _ | Free _ | Memcpy _ | Gpu_wrapper _ | Alternatives _ | Yield _
  | Yield_while _ | Return _ ->
      []

(** Values read directly by an instruction, excluding values used
    inside nested regions. *)
let direct_uses = function
  | Let (_, e) -> (
      match e with
      | Const _ -> []
      | Binop (_, a, b) | Cmp (_, a, b) -> [ a; b ]
      | Unop (_, a) | Cast a -> [ a ]
      | Select (c, a, b) -> [ c; a; b ]
      | Load { mem; idx } -> [ mem; idx ])
  | Store { mem; idx; v } -> [ mem; idx; v ]
  | If { cond; _ } -> [ cond ]
  | For { lb; ub; step; inits; _ } -> lb :: ub :: step :: inits
  | While { inits; _ } -> inits
  | Parallel { ubs; _ } -> ubs
  | Barrier _ -> []
  | Alloc_shared _ -> []
  | Alloc { count; _ } -> [ count ]
  | Free v -> [ v ]
  | Memcpy { dst; src; count } -> [ dst; src; count ]
  | Gpu_wrapper _ | Alternatives _ -> []
  | Intrinsic { args; _ } -> args
  | Yield vs -> vs
  | Yield_while (c, vs) -> c :: vs
  | Return vs -> vs

(** Nested regions of an instruction, with region arguments that are
    defined at the top of each region. *)
let regions = function
  | If { then_; else_; _ } -> [ ([], then_); ([], else_) ]
  | For { iv; iter_args; body; _ } -> [ (iv :: iter_args, body) ]
  | While { iter_args; body; _ } -> [ (iter_args, body) ]
  | Parallel { ivs; body; _ } -> [ (ivs, body) ]
  | Gpu_wrapper { body; _ } -> [ ([], body) ]
  | Alternatives { regions; _ } -> List.map (fun r -> ([], r)) regions
  | Let _ | Store _ | Barrier _ | Alloc_shared _ | Alloc _ | Free _ | Memcpy _ | Intrinsic _
  | Yield _ | Yield_while _ | Return _ ->
      []

(** Depth-first iteration over every instruction of a block, including
    instructions in nested regions. *)
let rec iter_deep f block =
  List.iter
    (fun i ->
      f i;
      List.iter (fun (_, r) -> iter_deep f r) (regions i))
    block

(** Free values of a block: values used but not defined within it
    (including region arguments of nested regions). *)
let free_values block =
  let bound = Value.Tbl.create 64 in
  let free = Value.Tbl.create 64 in
  let rec go block =
    List.iter
      (fun i ->
        List.iter
          (fun v -> if not (Value.Tbl.mem bound v) then Value.Tbl.replace free v ())
          (direct_uses i);
        List.iter
          (fun (args, r) ->
            List.iter (fun a -> Value.Tbl.replace bound a ()) args;
            go r;
            List.iter (fun a -> Value.Tbl.remove bound a) args)
          (regions i);
        List.iter (fun v -> Value.Tbl.replace bound v ()) (defs i))
      block
  in
  go block;
  Value.Tbl.fold (fun v () acc -> v :: acc) free []

(** Every value an instruction reads, including free uses of its
    nested regions (region arguments excluded) — the use set that
    decides whether a value lives across a barrier-fission split. *)
let deep_uses i =
  direct_uses i
  @ List.concat_map
      (fun (args, r) ->
        List.filter (fun v -> not (List.exists (Value.equal v) args)) (free_values r))
      (regions i)

(** Does the block (deeply) contain a barrier with the given scope, or
    any barrier at all when [scope] is [None]? *)
let contains_barrier ?scope block =
  let found = ref false in
  iter_deep
    (fun i ->
      match i with
      | Barrier { scope = s } -> (
          match scope with None -> found := true | Some sc -> if s = sc then found := true)
      | _ -> ())
    block;
  !found

(** Conservative purity: an instruction is pure if re-executing it or
    reordering it with memory operations cannot change behaviour. *)
let is_pure = function
  | Let (_, Load _) -> false
  | Let (_, (Const _ | Binop _ | Unop _ | Cmp _ | Select _ | Cast _)) -> true
  | Store _ | Barrier _ | Alloc_shared _ | Alloc _ | Free _ | Memcpy _ | Intrinsic _ -> false
  | If _ | For _ | While _ | Parallel _ | Gpu_wrapper _ | Alternatives _ -> false
  | Yield _ | Yield_while _ | Return _ -> false

(* ------------------------------------------------------------------ *)
(* Structural hashing                                                  *)
(* ------------------------------------------------------------------ *)

(* Alpha-invariant canonicalization: values defined inside the block
   (including region arguments) are numbered in traversal order, values
   defined outside it by first use, and parallel-loop ids as
   encountered, so two blocks of the same shape hash equal whatever
   their value ids: [Clone.block]'s renaming, or another build of the
   same program. Per-instance ids that cloning refreshes (wid, aid) are
   ignored. *)

type hasher = {
  h_idx : int Value.Tbl.t;  (** canonical number per value *)
  h_pids : (int, int) Hashtbl.t;  (** canonical number per parallel id *)
  mutable h_next : int;
  mutable h_acc : int;
}

let h_mix st n = st.h_acc <- (st.h_acc * 1000003) lxor n

(** Hash a *use*. Bound values hash by canonical number, free values by
    a canonical first-use number, so the hash is a pure function of the
    block's shape (stable across processes). *)
let h_value st (v : Value.t) =
  (match Value.Tbl.find_opt st.h_idx v with
  | Some k -> h_mix st k
  | None ->
      st.h_next <- st.h_next + 1;
      let k = -st.h_next in
      Value.Tbl.replace st.h_idx v k;
      h_mix st k);
  h_mix st (Hashtbl.hash v.Value.ty)

let h_bind st (v : Value.t) =
  st.h_next <- st.h_next + 1;
  Value.Tbl.replace st.h_idx v st.h_next;
  h_mix st (Hashtbl.hash v.Value.ty)

let h_const st = function
  | Ci n ->
      h_mix st 1;
      h_mix st n
  | Cf f ->
      h_mix st 2;
      h_mix st (Int64.to_int (Int64.bits_of_float f))

let h_expr st = function
  | Const c ->
      h_mix st 20;
      h_const st c
  | Binop (op, a, b) ->
      h_mix st 21;
      h_mix st (Hashtbl.hash op);
      h_value st a;
      h_value st b
  | Unop (op, a) ->
      h_mix st 22;
      h_mix st (Hashtbl.hash op);
      h_value st a
  | Cmp (op, a, b) ->
      h_mix st 23;
      h_mix st (Hashtbl.hash op);
      h_value st a;
      h_value st b
  | Select (c, a, b) ->
      h_mix st 24;
      h_value st c;
      h_value st a;
      h_value st b
  | Cast a ->
      h_mix st 25;
      h_value st a
  | Load { mem; idx } ->
      h_mix st 26;
      h_value st mem;
      h_value st idx

let rec h_instr st i =
  (match i with
  | Let (_, e) ->
      h_mix st 10;
      h_expr st e
  | Store { mem; idx; v } ->
      h_mix st 11;
      h_value st mem;
      h_value st idx;
      h_value st v
  | If { cond; _ } ->
      h_mix st 12;
      h_value st cond
  | For { lb; ub; step; inits; _ } ->
      h_mix st 13;
      h_value st lb;
      h_value st ub;
      h_value st step;
      List.iter (h_value st) inits
  | While { inits; _ } ->
      h_mix st 14;
      List.iter (h_value st) inits
  | Parallel { pid; level; ubs; _ } ->
      h_mix st 15;
      h_mix st (match level with Blocks -> 0 | Threads -> 1);
      st.h_next <- st.h_next + 1;
      Hashtbl.replace st.h_pids pid st.h_next;
      List.iter (h_value st) ubs
  | Barrier { scope } -> (
      h_mix st 16;
      match Hashtbl.find_opt st.h_pids scope with
      | Some k -> h_mix st k
      | None ->
          (* barrier scoped to a parallel loop outside the block *)
          h_mix st 0x5eed;
          h_mix st scope)
  | Alloc_shared { elt; size; _ } ->
      h_mix st 17;
      h_mix st (Hashtbl.hash elt);
      h_mix st size
  | Alloc { space; elt; count; _ } ->
      h_mix st 18;
      h_mix st (Hashtbl.hash space);
      h_mix st (Hashtbl.hash elt);
      h_value st count
  | Free v ->
      h_mix st 19;
      h_value st v
  | Memcpy { dst; src; count } ->
      h_mix st 30;
      h_value st dst;
      h_value st src;
      h_value st count
  | Gpu_wrapper { name; _ } ->
      h_mix st 31;
      h_mix st (Hashtbl.hash name)
  | Alternatives { descs; _ } ->
      h_mix st 32;
      List.iter (fun d -> h_mix st (Hashtbl.hash d)) descs
  | Intrinsic { name; args; _ } ->
      h_mix st 33;
      h_mix st (Hashtbl.hash name);
      List.iter (h_value st) args
  | Yield vs ->
      h_mix st 34;
      List.iter (h_value st) vs
  | Yield_while (c, vs) ->
      h_mix st 35;
      h_value st c;
      List.iter (h_value st) vs
  | Return vs ->
      h_mix st 36;
      List.iter (h_value st) vs);
  List.iter
    (fun (args, r) ->
      h_mix st 40;
      List.iter (h_bind st) args;
      h_block_inner st r)
    (regions i);
  List.iter (h_bind st) (defs i)

and h_block_inner st b =
  h_mix st 41;
  List.iter (h_instr st) b

(** Structural hash of a block, invariant under [Clone.block]'s
    renaming of defined values, parallel-loop ids and wrapper ids.
    Values defined *outside* the block are canonicalized by first use,
    so the hash depends only on the block's shape: the persistent TDO
    choice key. *)
let hash_block block =
  let st =
    { h_idx = Value.Tbl.create 64; h_pids = Hashtbl.create 8; h_next = 0; h_acc = 0x811c9dc5 }
  in
  h_block_inner st block;
  st.h_acc land max_int

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let pp_const ppf = function
  | Ci n -> Fmt.int ppf n
  | Cf f -> Fmt.pf ppf "%h" f

let pp_values = Fmt.(list ~sep:comma Value.pp)

let pp_expr ppf = function
  | Const c -> Fmt.pf ppf "const %a" pp_const c
  | Binop (op, a, b) -> Fmt.pf ppf "%a %a, %a" Ops.pp_binop op Value.pp a Value.pp b
  | Unop (op, a) -> Fmt.pf ppf "%a %a" Ops.pp_unop op Value.pp a
  | Cmp (op, a, b) -> Fmt.pf ppf "cmp %a %a, %a" Ops.pp_cmpop op Value.pp a Value.pp b
  | Select (c, a, b) -> Fmt.pf ppf "select %a, %a, %a" Value.pp c Value.pp a Value.pp b
  | Cast a -> Fmt.pf ppf "cast %a" Value.pp a
  | Load { mem; idx } -> Fmt.pf ppf "load %a[%a]" Value.pp mem Value.pp idx

let rec pp_instr ~indent ppf i =
  let pad ppf = Fmt.pf ppf "%s" (String.make indent ' ') in
  let pp_block = pp_block ~indent:(indent + 2) in
  match i with
  | Let (v, e) -> Fmt.pf ppf "%t%a = %a : %a" pad Value.pp v pp_expr e Types.pp v.Value.ty
  | Store { mem; idx; v } -> Fmt.pf ppf "%tstore %a, %a[%a]" pad Value.pp v Value.pp mem Value.pp idx
  | If { cond; results; then_; else_ } ->
      Fmt.pf ppf "%t%a = if %a {@\n%a@\n%t}" pad pp_values results Value.pp cond pp_block then_ pad;
      if else_ <> [ Yield [] ] then Fmt.pf ppf " else {@\n%a@\n%t}" pp_block else_ pad
  | For { iv; lb; ub; step; iter_args; inits; results; body } ->
      Fmt.pf ppf "%t%a = for %a = %a to %a step %a iter(%a = %a) {@\n%a@\n%t}" pad pp_values results
        Value.pp iv Value.pp lb Value.pp ub Value.pp step pp_values iter_args pp_values inits
        pp_block body pad
  | While { iter_args; inits; results; body } ->
      Fmt.pf ppf "%t%a = while iter(%a = %a) {@\n%a@\n%t}" pad pp_values results pp_values iter_args
        pp_values inits pp_block body pad
  | Parallel { pid; level; ivs; ubs; body } ->
      Fmt.pf ppf "%tparallel<%s #%d> (%a) = 0 to (%a) {@\n%a@\n%t}" pad
        (match level with Blocks -> "blocks" | Threads -> "threads")
        pid pp_values ivs pp_values ubs pp_block body pad
  | Barrier { scope } -> Fmt.pf ppf "%tbarrier #%d" pad scope
  | Alloc_shared { res; elt; size } ->
      Fmt.pf ppf "%t%a = alloc_shared %a x %d" pad Value.pp res Types.pp elt size
  | Alloc { res; space; elt; count } ->
      Fmt.pf ppf "%t%a = alloc %a %a x %a" pad Value.pp res Types.pp_space space Types.pp elt
        Value.pp count
  | Free v -> Fmt.pf ppf "%tfree %a" pad Value.pp v
  | Memcpy { dst; src; count } ->
      Fmt.pf ppf "%tmemcpy %a <- %a x %a" pad Value.pp dst Value.pp src Value.pp count
  | Gpu_wrapper { wid; name; body } ->
      Fmt.pf ppf "%tgpu_wrapper<%s #%d> {@\n%a@\n%t}" pad name wid pp_block body pad
  | Alternatives { aid; descs; regions } ->
      Fmt.pf ppf "%talternatives #%d {" pad aid;
      List.iteri
        (fun i (d, r) ->
          ignore i;
          Fmt.pf ppf "@\n%tregion %S {@\n%a@\n%t}" pad d pp_block r pad)
        (List.combine descs regions);
      Fmt.pf ppf "@\n%t}" pad
  | Intrinsic { results; name; args } ->
      Fmt.pf ppf "%t%a = intrinsic %S(%a)" pad pp_values results name pp_values args
  | Yield vs -> Fmt.pf ppf "%tyield %a" pad pp_values vs
  | Yield_while (c, vs) -> Fmt.pf ppf "%tyield_while %a, %a" pad Value.pp c pp_values vs
  | Return vs -> Fmt.pf ppf "%treturn %a" pad pp_values vs

and pp_block ~indent ppf block =
  Fmt.pf ppf "%a" Fmt.(list ~sep:(any "@\n") (pp_instr ~indent)) block

let pp_func ppf f =
  Fmt.pf ppf "func @%s(%a) -> (%a) {@\n%a@\n}" f.fname
    Fmt.(list ~sep:comma Value.pp_typed)
    f.params
    Fmt.(list ~sep:comma Types.pp)
    f.ret (pp_block ~indent:2) f.body

let pp_modul ppf m = Fmt.pf ppf "%a" Fmt.(list ~sep:(any "@\n@\n") pp_func) m.funcs
let func_to_string f = Fmt.str "%a" pp_func f
let modul_to_string m = Fmt.str "%a" pp_modul m

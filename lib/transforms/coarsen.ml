(** Thread and block coarsening (Section V), built on
    unroll-and-interleave.

    - Thread coarsening unrolls the thread-level parallel loop: one
      thread processes several threads' work of the *same* block.
      Factors are restricted to divisors of the (static) block size so
      that in-block synchronization is preserved (Section V-C).
    - Block coarsening unrolls the grid-level parallel loop: each
      thread now handles the workload of threads from *different*
      blocks, duplicating per-block shared memory. Any factor is
      allowed: an *epilogue kernel* finishes the remainder blocks when
      the factor does not divide the grid size. *)

open Pgpu_ir

type factors = { x : int; y : int; z : int }

let no_coarsening = { x = 1; y = 1; z = 1 }
let total f = f.x * f.y * f.z
let factor_list f = [ f.x; f.y; f.z ]

let of_list = function
  | [ x ] -> { x; y = 1; z = 1 }
  | [ x; y ] -> { x; y; z = 1 }
  | [ x; y; z ] -> { x; y; z }
  | _ -> invalid_arg "Coarsen.of_list"

let pp_factors ppf f = Fmt.pf ppf "(%d,%d,%d)" f.x f.y f.z

(** Balance a total factor over the usable dimensions, following the
    paper's rule (footnote 4): the dimensions are filled with the
    prime factors of the total, largest first. *)
let balance ~usable totalf = of_list (Pgpu_support.Util.balance_factor ~usable totalf)

(** Add the statically-known constants of [blocks] (constant [Let]s,
    found by a deep scan) to an existing table — used to top up a
    replica's environment with the constants coarsening introduced
    without rebuilding it from scratch. *)
let add_consts tbl (blocks : Instr.block list) =
  List.iter
    (fun b ->
      Instr.iter_deep
        (fun i ->
          match i with
          | Instr.Let (v, Instr.Const (Instr.Ci n)) -> Value.Tbl.replace tbl v n
          | _ -> ())
        b)
    blocks

(** Table from SSA values to their statically-known constant. Used for
    the thread-factor divisibility check and to elide epilogues for
    divisible grids. *)
let const_tbl (blocks : Instr.block list) =
  let tbl = Value.Tbl.create 64 in
  add_consts tbl blocks;
  tbl

let lookup_const tbl v = Value.Tbl.find_opt tbl v

(** [const_env blocks] is [lookup_const (const_tbl blocks)]. *)
let const_env blocks = lookup_const (const_tbl blocks)

(* ------------------------------------------------------------------ *)
(* Region plumbing                                                     *)
(* ------------------------------------------------------------------ *)

(** Split a kernel (gpu_wrapper) region into its host prefix and the
    unique grid-level parallel loop. *)
let split_region (region : Instr.block) =
  let rec go prefix = function
    | [] -> Error "kernel region has no grid-level parallel loop"
    | (Instr.Parallel { level = Instr.Blocks; _ } as p) :: rest ->
        if List.exists (function Instr.Parallel _ -> true | _ -> false) rest then
          Error "kernel region has several grid-level parallel loops"
        else Ok (List.rev prefix, p)
    | i :: rest -> go (i :: prefix) rest
  in
  go [] region

(** Rewrite the unique thread-level parallel nested in the grid-level
    loop [p]. [f] returns hoisted host instructions plus the new
    parallel. *)
let rewrite_threads (p : Instr.instr) ~(f : Instr.instr -> Instr.block * Instr.instr) =
  let hoisted = ref [] in
  let found = ref false in
  let rec go_block b = List.map go_instr b
  and go_instr (i : Instr.instr) =
    match i with
    | Instr.Parallel ({ level = Instr.Threads; _ } as _t) ->
        if !found then Pgpu_support.Util.failf "kernel has several thread-level parallels";
        found := true;
        let lets, p' = f i in
        hoisted := !hoisted @ lets;
        p'
    | Instr.Parallel ({ level = Instr.Blocks; body; _ } as r) ->
        Instr.Parallel { r with body = go_block body }
    | Instr.If ({ then_; else_; _ } as r) ->
        Instr.If { r with then_ = go_block then_; else_ = go_block else_ }
    | Instr.For ({ body; _ } as r) -> Instr.For { r with body = go_block body }
    | Instr.While ({ body; _ } as r) -> Instr.While { r with body = go_block body }
    | i -> i
  in
  let p' = go_instr p in
  if not !found then Error "kernel has no thread-level parallel loop"
  else Ok (!hoisted, p')

let dims_of = function
  | Instr.Parallel { ivs; _ } -> List.length ivs
  | _ -> 0

let ub_of_dim p d =
  match p with
  | Instr.Parallel { ubs; _ } -> List.nth ubs d
  | _ -> invalid_arg "ub_of_dim"

(* ------------------------------------------------------------------ *)
(* Thread coarsening                                                   *)
(* ------------------------------------------------------------------ *)

(** Coarsen the thread-level loop of kernel region [region] by
    [factors] (x, y, z). Factors of dimensions beyond the loop's rank
    must be 1. Each factor must statically divide the corresponding
    block dimension. *)
let coarsen_threads ?(mapping = Interleave.Cyclic) ~const_of factors (region : Instr.block) :
    (Instr.block, string) result =
  if total factors = 1 then Ok region
  else
    match split_region region with
    | Error e -> Error e
    | Ok (prefix, grid) -> (
        let apply tpar =
          let rank = dims_of tpar in
          let lets = ref [] in
          let cur = ref tpar in
          let err = ref None in
          List.iteri
            (fun d fd ->
              match !err with
              | Some _ -> ()
              | None ->
                  if fd > 1 then
                    if d >= rank then err := Some "thread factor on a missing dimension"
                    else
                      let ub = ub_of_dim !cur d in
                      (match const_of ub with
                      | None ->
                          err :=
                            Some
                              "thread coarsening requires a statically-known block dimension"
                      | Some n when n mod fd <> 0 || n / fd < 1 ->
                          err :=
                            Some
                              (Fmt.str
                                 "thread factor %d does not divide block dimension %d (size %d)"
                                 fd d n)
                      | Some _ -> (
                          match Interleave.unroll_parallel ~mapping ~dim:d ~factor:fd !cur with
                          | l, p' ->
                              lets := !lets @ l;
                              cur := p'
                          | exception Interleave.Illegal m -> err := Some m)))
            (factor_list factors);
          match !err with Some e -> Error e | None -> Ok (!lets, !cur)
        in
        let result = ref (Ok ()) in
        let f tpar =
          match apply tpar with
          | Ok (lets, p') -> (lets, p')
          | Error e ->
              result := Error e;
              ([], tpar)
        in
        match rewrite_threads grid ~f with
        | Error e -> Error e
        | Ok (hoisted, grid') -> (
            match !result with
            | Error e -> Error e
            | Ok () -> Ok (prefix @ hoisted @ [ grid' ])))

(* ------------------------------------------------------------------ *)
(* Block coarsening                                                    *)
(* ------------------------------------------------------------------ *)

(** Build the epilogue kernel covering grid indices
    [main_ub * factor, ub) of dimension [d] of [par], at the
    granularity [par] currently has. *)
let epilogue_kernel ~dim ~offset ~rem (par : Instr.instr) =
  match par with
  | Instr.Parallel { pid; level; ivs; ubs; body } ->
      let subst = Clone.create_subst () in
      let pid' = Instr.fresh_region_id () in
      Clone.bind_pid subst pid pid';
      let ivs' = List.map Value.rebirth ivs in
      let header = Builder.create () in
      List.iteri
        (fun k (iv : Value.t) ->
          let iv' = List.nth ivs' k in
          if k = dim then begin
            let shifted = Builder.add_ header iv' offset in
            Clone.bind subst iv shifted
          end
          else Clone.bind subst iv iv')
        ivs;
      let body' = Builder.finish header @ Clone.clone_block subst body in
      let ubs' = List.mapi (fun k ub -> if k = dim then rem else ub) ubs in
      Instr.Parallel { pid = pid'; level; ivs = ivs'; ubs = ubs'; body = body' }
  | _ -> invalid_arg "epilogue_kernel"

(** Coarsen the grid-level loop by [factors]. Emits epilogue kernels
    for dimensions whose size is not statically known to be divisible
    by the factor. *)
let coarsen_blocks ?(mapping = Interleave.Blocked) ~const_of factors (region : Instr.block) :
    (Instr.block, string) result =
  if total factors = 1 then Ok region
  else
    match split_region region with
    | Error e -> Error e
    | Ok (prefix, grid) -> (
        let rank = dims_of grid in
        let lets = ref [] in
        let cur = ref grid in
        let epilogues = ref [] in
        let err = ref None in
        List.iteri
          (fun d fd ->
            match !err with
            | Some _ -> ()
            | None ->
                if fd > 1 then
                  if d >= rank then err := Some "block factor on a missing dimension"
                  else begin
                    let ub = ub_of_dim !cur d in
                    let needs_epilogue =
                      match const_of ub with Some n -> n mod fd <> 0 | None -> true
                    in
                    (if needs_epilogue then begin
                       let b = Builder.create () in
                       let cf = Builder.const_i b ~ty:ub.Value.ty fd in
                       let main_ub = Builder.div_ b ub cf in
                       let offset = Builder.mul_ b main_ub cf in
                       let rem = Builder.sub_ b ub offset in
                       let epi = epilogue_kernel ~dim:d ~offset ~rem !cur in
                       lets := !lets @ Builder.finish b;
                       epilogues := !epilogues @ [ epi ]
                     end);
                    match Interleave.unroll_parallel ~mapping ~dim:d ~factor:fd !cur with
                    | l, p' ->
                        lets := !lets @ l;
                        cur := p'
                    | exception Interleave.Illegal m -> err := Some m
                  end)
          (factor_list factors);
        match !err with
        | Some e -> Error e
        | None -> Ok (prefix @ !lets @ [ !cur ] @ !epilogues))

(* ------------------------------------------------------------------ *)
(* Combined entry point                                                *)
(* ------------------------------------------------------------------ *)

(** A coarsening request per level: explicit per-dimension factors, or
    a *total* factor that Polygeist-GPU balances over the usable
    dimensions of the specific kernel (Section IV-C). *)
type request = Explicit of factors | Total of int

type spec = {
  block : request;
  thread : request;
  block_mapping : Interleave.mapping;
  thread_mapping : Interleave.mapping;
}

let spec ?(block = Explicit no_coarsening) ?(thread = Explicit no_coarsening)
    ?(block_mapping = Interleave.Blocked) ?(thread_mapping = Interleave.Cyclic) () =
  { block; thread; block_mapping; thread_mapping }

let pp_request ppf = function
  | Explicit f -> pp_factors ppf f
  | Total t -> Fmt.pf ppf "(total %d)" t

let pp_spec ppf s = Fmt.pf ppf "block%a thread%a" pp_request s.block pp_request s.thread

(** Static sizes of a parallel loop's dimensions, where known. *)
let static_dims ~const_of (p : Instr.instr) =
  match p with
  | Instr.Parallel { ubs; _ } -> List.map const_of ubs
  | _ -> []

(** Resolve a [Total] request against the dims of a concrete parallel
    loop: dimensions of statically-known size 1 (or missing) are not
    coarsened; the prime factors of the total are balanced over the
    rest. *)
let resolve_request ~dims (r : request) : factors =
  match r with
  | Explicit f -> f
  | Total t ->
      let usable =
        List.init 3 (fun d ->
            match List.nth_opt dims d with
            | None -> false
            | Some None -> true
            | Some (Some n) -> n > 1)
      in
      balance ~usable t

(** The thread-level parallel of a kernel region, if any. *)
let find_threads_parallel (region : Instr.block) =
  let found = ref None in
  List.iter
    (fun b ->
      Instr.iter_deep
        (fun i ->
          match i with
          | Instr.Parallel { level = Instr.Threads; _ } when !found = None -> found := Some i
          | _ -> ())
        [ b ])
    region;
  !found

let positive = function Explicit f -> f.x >= 1 && f.y >= 1 && f.z >= 1 | Total t -> t >= 1

(** Apply thread then block coarsening to a kernel region (the body of
    a gpu_wrapper). The thread-coarsened kernel is what the block
    epilogues replicate, so remainder blocks also run coarsened
    threads. *)
let coarsen_region ~const_of (s : spec) (region : Instr.block) : (Instr.block, string) result =
  let thread_factors =
    if not (positive s.thread && positive s.block) then Error "coarsening factors must be positive"
    else
      match find_threads_parallel region with
      | Some tp -> Ok (resolve_request ~dims:(static_dims ~const_of tp) s.thread)
      | None -> (
          match s.thread with
          | Explicit f when total f = 1 -> Ok no_coarsening
          | Total 1 -> Ok no_coarsening
          | _ -> Error "kernel has no thread-level parallel loop")
  in
  match thread_factors with
  | Error e -> Error e
  | Ok tf -> (
      match coarsen_threads ~mapping:s.thread_mapping ~const_of tf region with
      | Error e -> Error e
      | Ok region' -> (
          match split_region region' with
          | Error e -> Error e
          | Ok (_, grid) ->
              let bf = resolve_request ~dims:(static_dims ~const_of grid) s.block in
              coarsen_blocks ~mapping:s.block_mapping ~const_of bf region'))

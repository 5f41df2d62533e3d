(** Barrier elimination (one of the pre-existing Polygeist parallel
    optimizations the pipeline builds on, Section III).

    A barrier orders the memory effects of the threads it synchronizes.
    It is removable when that ordering is vacuous:

    - no memory *write* (store, or region containing one) has happened
      since the previous synchronization point — there is nothing new
      to publish;
    - or nothing at all follows it in the synchronized region — there
      is no later access to protect.

    Consecutive duplicate barriers are also collapsed (the
    canonicalizer already does this locally; this pass handles the
    general straight-line case across non-memory instructions). *)

open Pgpu_ir

(* barriers removed by the last [run_*] call (pass telemetry) *)
let rewrites = ref 0

let rec writes_memory (i : Instr.instr) =
  match i with
  | Instr.Store _ | Instr.Memcpy _ | Instr.Intrinsic _ -> true
  | Instr.Let _ | Instr.Barrier _ | Instr.Alloc_shared _ | Instr.Alloc _ | Instr.Free _ -> false
  | Instr.If { then_; else_; _ } ->
      List.exists writes_memory then_ || List.exists writes_memory else_
  | Instr.For { body; _ } | Instr.While { body; _ } | Instr.Parallel { body; _ } ->
      List.exists writes_memory body
  | Instr.Gpu_wrapper { body; _ } -> List.exists writes_memory body
  | Instr.Alternatives { regions; _ } -> List.exists (List.exists writes_memory) regions
  | Instr.Yield _ | Instr.Yield_while _ | Instr.Return _ -> false

let reads_memory (i : Instr.instr) =
  let found = ref false in
  Instr.iter_deep
    (fun x -> match x with Instr.Let (_, Instr.Load _) -> found := true | _ -> ())
    [ i ];
  !found

let touches_memory i = writes_memory i || reads_memory i

(** Remove vacuous barriers from a straight-line block (the body of a
    thread-level parallel). Barriers inside nested control flow are
    left in place — their trip-count interplay is handled by the
    coarsening legality rules instead. *)
let sweep_block (body : Instr.block) : Instr.block =
  (* forward pass: drop barriers with no memory access since the last
     sync (reads count too: a write after the barrier must not
     overtake an unsynchronized read before it) *)
  let dirty = ref false in
  let forward =
    List.filter_map
      (fun (i : Instr.instr) ->
        match i with
        | Instr.Barrier _ ->
            if !dirty then begin
              dirty := false;
              Some i
            end
            else begin
              incr rewrites;
              None
            end
        | _ ->
            if touches_memory i then dirty := true;
            Some i)
      body
  in
  (* backward pass: drop trailing barriers not followed by any memory
     access *)
  let rec backward acc seen_mem = function
    | [] -> acc
    | (Instr.Barrier _ as i) :: rest ->
        if seen_mem then backward (i :: acc) seen_mem rest
        else begin
          incr rewrites;
          backward acc seen_mem rest
        end
    | i :: rest -> backward (i :: acc) (seen_mem || touches_memory i) rest
  in
  backward [] false (List.rev forward)

let rec sweep_deep (block : Instr.block) : Instr.block =
  List.map
    (fun (i : Instr.instr) ->
      match i with
      | Instr.Parallel ({ level = Instr.Threads; body; _ } as p) ->
          Instr.Parallel { p with body = sweep_block (sweep_deep body) }
      | Instr.Parallel ({ body; _ } as p) -> Instr.Parallel { p with body = sweep_deep body }
      | Instr.If ({ then_; else_; _ } as r) ->
          Instr.If { r with then_ = sweep_deep then_; else_ = sweep_deep else_ }
      | Instr.For ({ body; _ } as r) -> Instr.For { r with body = sweep_deep body }
      | Instr.While ({ body; _ } as r) -> Instr.While { r with body = sweep_deep body }
      | Instr.Gpu_wrapper ({ body; _ } as r) -> Instr.Gpu_wrapper { r with body = sweep_deep body }
      | Instr.Alternatives ({ regions; _ } as r) ->
          Instr.Alternatives { r with regions = List.map sweep_deep regions }
      | i -> i)
    block

let run_block block =
  rewrites := 0;
  sweep_deep block

let run_func (f : Instr.func) =
  rewrites := 0;
  { f with Instr.body = sweep_deep f.Instr.body }

let run_modul (m : Instr.modul) =
  rewrites := 0;
  {
    Instr.funcs =
      List.map (fun f -> { f with Instr.body = sweep_deep f.Instr.body }) m.Instr.funcs;
  }

let rewrite_count () = !rewrites

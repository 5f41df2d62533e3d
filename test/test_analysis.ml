(** Tests for the shared-memory race & barrier-safety analyzer.

    The static checker must stay silent on every stock kernel and
    benchmark (zero false positives at the diagnostic level we gate
    on), and must flag 100% of mechanically injected race mutants:
    dropping any barrier, or collapsing any shared-store index to a
    constant, makes a race the checker has to prove. A qcheck
    generator drives the same mutators with random picks. The dynamic
    detector is exercised on a racy kernel (conflicts reported) and a
    race-free one (silent, and bit-identical to an uninstrumented
    run). Candidates rejected as racy must never materialize as
    [Alternatives] regions, so TDO can never trial them. Finally, the
    {!Pgpu_analysis.Affine} decision procedures are checked against
    brute-force enumeration of small boxed systems, and the coarsening
    configurations that cost the race gate most must stay
    diagnostic-free on the heaviest Rodinia kernels. *)

module Check = Pgpu_analysis.Check
module Report = Pgpu_analysis.Report
module Racecheck = Pgpu_gpusim.Racecheck
module Frontend = Pgpu_frontend.Frontend
module Runtime = Pgpu_runtime.Runtime
module Exec = Pgpu_gpusim.Exec
module Descriptor = Pgpu_target.Descriptor
module Pipeline = Pgpu_transforms.Pipeline
module Alternatives = Pgpu_transforms.Alternatives
module Bench_def = Pgpu_rodinia.Bench_def
open Pgpu_ir

(* ------------------------------------------------------------------ *)
(* IR mutators                                                         *)
(* ------------------------------------------------------------------ *)

(** Bottom-up rewrite: children first, then [f] on the instruction
    itself; [f] returns a replacement sequence (possibly empty). *)
let rec map_block f blk = List.concat_map (map_instr f) blk

and map_instr f i =
  let i =
    match i with
    | Instr.If { cond; results; then_; else_ } ->
        Instr.If { cond; results; then_ = map_block f then_; else_ = map_block f else_ }
    | Instr.For { iv; lb; ub; step; iter_args; inits; results; body } ->
        Instr.For { iv; lb; ub; step; iter_args; inits; results; body = map_block f body }
    | Instr.While { iter_args; inits; results; body } ->
        Instr.While { iter_args; inits; results; body = map_block f body }
    | Instr.Parallel { pid; level; ivs; ubs; body } ->
        Instr.Parallel { pid; level; ivs; ubs; body = map_block f body }
    | Instr.Gpu_wrapper { wid; name; body } ->
        Instr.Gpu_wrapper { wid; name; body = map_block f body }
    | Instr.Alternatives { aid; descs; regions } ->
        Instr.Alternatives { aid; descs; regions = List.map (map_block f) regions }
    | i -> i
  in
  f i

let map_modul f (m : Instr.modul) =
  {
    Instr.funcs =
      List.map (fun fn -> { fn with Instr.body = map_block f fn.Instr.body }) m.Instr.funcs;
  }

(** ids of every statically allocated shared buffer in [m] *)
let shared_ids (m : Instr.modul) =
  let ids = Hashtbl.create 8 in
  let f i =
    (match i with
    | Instr.Alloc_shared { res; _ } -> Hashtbl.replace ids res.Value.id ()
    | _ -> ());
    [ i ]
  in
  ignore (map_modul f m);
  ids

let count_barriers m =
  let n = ref 0 in
  let f i =
    (match i with Instr.Barrier _ -> incr n | _ -> ());
    [ i ]
  in
  ignore (map_modul f m);
  !n

let count_shared_stores m =
  let ids = shared_ids m in
  let n = ref 0 in
  let f i =
    (match i with
    | Instr.Store { mem; _ } when Hashtbl.mem ids mem.Value.id -> incr n
    | _ -> ());
    [ i ]
  in
  ignore (map_modul f m);
  !n

(** Mutant: delete the [k]-th barrier of the module. *)
let drop_barrier k m =
  let n = ref 0 in
  map_modul
    (fun i ->
      match i with
      | Instr.Barrier _ ->
          let j = !n in
          incr n;
          if j = k then [] else [ i ]
      | i -> [ i ])
    m

(** Mutant: collapse the index of the [k]-th shared-memory store to the
    constant 0, so every thread of the block hits the same element. *)
let zero_shared_store_idx k m =
  let ids = shared_ids m in
  let n = ref 0 in
  map_modul
    (fun i ->
      match i with
      | Instr.Store { mem; idx = _; v } when Hashtbl.mem ids mem.Value.id ->
          let j = !n in
          incr n;
          if j = k then begin
            let z = Value.fresh ~hint:"mut" Types.I32 in
            [ Instr.Let (z, Instr.Const (Instr.Ci 0)); Instr.Store { mem; idx = z; v } ]
          end
          else [ i ]
      | i -> [ i ])
    m

(* ------------------------------------------------------------------ *)
(* Static checker: stock kernels are clean                             *)
(* ------------------------------------------------------------------ *)

let check_clean name m () =
  match Check.check_modul m with
  | [] -> ()
  | d :: _ -> Alcotest.failf "%s: unexpected diagnostic: %a" name Report.pp_diagnostic d

let benches = Pgpu_rodinia.Registry.all @ Pgpu_hecbench.Registry.all

let bench_clean_cases =
  List.map
    (fun (b : Bench_def.t) ->
      Alcotest.test_case (b.Bench_def.name ^ " is diagnostic-free") `Quick (fun () ->
          check_clean b.Bench_def.name (Frontend.compile_string b.Bench_def.source) ()))
    benches

(* ------------------------------------------------------------------ *)
(* Static checker: every injected mutant is flagged                    *)
(* ------------------------------------------------------------------ *)

let stock = [ ("reduce", Kernels.reduce_module); ("tile_avg", Kernels.tile_avg_module) ]

let flags_mutant what mutant =
  match Report.errors (Check.check_modul mutant) with
  | [] -> Alcotest.failf "%s: mutant not flagged" what
  | _ -> ()

let test_all_mutants () =
  List.iter
    (fun (name, mk) ->
      let m = mk () in
      let nb = count_barriers m and ns = count_shared_stores m in
      Alcotest.(check bool) (name ^ " has barriers") true (nb > 0);
      Alcotest.(check bool) (name ^ " has shared stores") true (ns > 0);
      for k = 0 to nb - 1 do
        flags_mutant (Fmt.str "%s: drop barrier %d" name k) (drop_barrier k (mk ()))
      done;
      for k = 0 to ns - 1 do
        flags_mutant
          (Fmt.str "%s: zero shared-store index %d" name k)
          (zero_shared_store_idx k (mk ()))
      done)
    stock

let prop_mutants_flagged =
  QCheck.Test.make ~name:"random mutants of race-free kernels are flagged" ~count:40
    QCheck.(triple (int_range 0 1) (int_range 0 1) small_nat)
    (fun (which, kind, k) ->
      let _, mk = List.nth stock which in
      let m = mk () in
      let mutant =
        if kind = 0 then drop_barrier (k mod count_barriers m) m
        else zero_shared_store_idx (k mod count_shared_stores m) m
      in
      Report.errors (Check.check_modul mutant) <> [])

(* ------------------------------------------------------------------ *)
(* The affine decision procedure against brute force                   *)
(* ------------------------------------------------------------------ *)

module A = Pgpu_analysis.Affine

(* one query, answered through a fresh memo *)
let infeasible ?depth sys = A.infeasible (A.memo ()) ?depth sys
let mod_guard_infeasible sys ~d ~m = A.mod_guard_infeasible (A.memo ()) sys ~d ~m

let sym ?lo ?hi sid name = { A.sid; name; kind = A.Shared; lo; hi }
let lin terms k =
  List.fold_left (fun acc (c, s) -> A.add acc (A.scale c (A.of_sym s))) (A.const k) terms

let eval (a : A.t) (env : int array) =
  List.fold_left (fun acc ((s : A.sym), c) -> acc + (c * env.(s.A.sid))) a.A.const a.A.terms

(** Does some integer point of the symbols' box satisfy [sys] and
    [extra]? Symbol [sid]s index the assignment array. *)
let box_feasible ?(extra = fun _ -> true) (syms : A.sym list) (sys : A.system) =
  let env = Array.make (1 + List.fold_left (fun m (s : A.sym) -> max m s.A.sid) 0 syms) 0 in
  let holds () =
    List.for_all (fun e -> eval e env = 0) sys.A.eqs
    && List.for_all (fun g -> eval g env >= 0) sys.A.ges
    && extra env
  in
  let rec go = function
    | [] -> holds ()
    | (s : A.sym) :: rest ->
        let lo = Option.get s.A.lo and hi = Option.get s.A.hi in
        let rec try_v v = v <= hi && ((env.(s.A.sid) <- v; go rest) || try_v (v + 1)) in
        try_v lo
  in
  go syms

let pp_system ppf (sys : A.system) =
  Fmt.(list ~sep:(any "; ") string) ppf
    (List.map (Fmt.str "%a = 0" A.pp) sys.A.eqs @ List.map (Fmt.str "%a >= 0" A.pp) sys.A.ges)

let pp_box ppf syms =
  Fmt.(list ~sep:(any ", ") string) ppf
    (List.map
       (fun (s : A.sym) ->
         Fmt.str "%s in [%d, %d]" s.A.name (Option.get s.A.lo) (Option.get s.A.hi))
       syms)

(** Small systems: 2–4 symbols boxed in [-4, 4]; 0–2 equalities, some
    with a unit coefficient and some with only coefficients in
    {±2, ±3}; 1–4 inequalities with coefficients in [-3, 3], the first
    sometimes repeated. *)
let gen_system =
  let open QCheck.Gen in
  let* n = int_range 2 4 in
  let* bounds = list_repeat n (pair (int_range (-4) 4) (int_range (-4) 4)) in
  let syms =
    List.mapi
      (fun i (a, b) -> sym ~lo:(min a b) ~hi:(max a b) (i + 1) (Fmt.str "x%d" (i + 1)))
      bounds
  in
  let row coeff =
    let* cs = list_repeat n coeff in
    let+ k = int_range (-6) 6 in
    lin (List.combine cs syms) k
  in
  let non_unit = oneofl [ -3; -2; 0; 2; 3 ] in
  let* eqs = list_size (int_range 0 2) (oneof [ row (int_range (-3) 3); row non_unit ]) in
  let* ges = list_size (int_range 1 4) (row (int_range (-3) 3)) in
  let+ dup = bool in
  let ges = if dup then List.hd ges :: ges else ges in
  (syms, { A.eqs; ges })

let arb_system =
  QCheck.make
    ~print:(fun (syms, sys) -> Fmt.str "%a | %a" pp_system sys pp_box syms)
    gen_system

let prop_infeasible_sound =
  QCheck.Test.make ~name:"Affine.infeasible: true only on systems with no integer point"
    ~count:1000 ~long_factor:10 arb_system
    (fun (syms, sys) -> (not (infeasible sys)) || not (box_feasible syms sys))

(** The modulo-guard rule on a generated system plus a difference [d]
    and a modulus [m] that is a constant in [1, 3] or a symbol boxed in
    [1, 3]. *)
let arb_mod_guard =
  let gen =
    let open QCheck.Gen in
    let* syms, sys = gen_system in
    let* cs = list_repeat (List.length syms) (int_range (-3) 3) in
    let* k = int_range (-4) 4 in
    let d = lin (List.combine cs syms) k in
    let msym = sym ~lo:1 ~hi:3 9 "m" in
    let+ m =
      oneof [ map (fun c -> (None, A.const c)) (int_range 1 3); return (Some msym, A.of_sym msym) ]
    in
    (syms, sys, d, m)
  in
  QCheck.make
    ~print:(fun (syms, sys, d, (_, m)) ->
      Fmt.str "%a | d = %a, m = %a | %a" pp_system sys A.pp d A.pp m pp_box syms)
    gen

let prop_mod_guard_sound =
  QCheck.Test.make ~name:"Affine.mod_guard_infeasible: true only without a congruent point"
    ~count:1000 ~long_factor:10 arb_mod_guard
    (fun (syms, sys, d, (msym, m)) ->
      let syms = Option.to_list msym @ syms in
      (not (mod_guard_infeasible sys ~d ~m))
      || not (box_feasible ~extra:(fun env -> eval d env mod eval m env = 0) syms sys))

let test_affine_fixed () =
  let box lo hi sid name = sym ~lo ~hi sid name in
  (* hotspot's collision: t1 + 18*u1 = t2 + 18*u2 with t2 - t1 >= 1 *)
  let t1 = box 0 15 1 "t1" and u1 = box 0 15 2 "u1" and t2 = box 0 15 3 "t2"
  and u2 = box 0 15 4 "u2" in
  let collision =
    A.empty
    |> A.with_eq (lin [ (1, t1); (18, u1); (-1, t2); (-18, u2) ] 0)
    |> A.with_ge (lin [ (1, t2); (-1, t1) ] (-1))
  in
  Alcotest.(check bool) "hotspot collision is infeasible" true (infeasible collision);
  let x = sym 1 "x" in
  Alcotest.(check bool) "2x = 1 is infeasible" true
    (infeasible (A.with_eq (lin [ (2, x) ] (-1)) A.empty));
  let x = box 0 4 1 "x" and y = box 0 4 2 "y" in
  let feasible =
    A.empty |> A.with_eq (lin [ (1, x); (1, y) ] (-3)) |> A.with_ge (lin [ (1, x); (-1, y) ] (-1))
  in
  Alcotest.(check bool) "x + y = 3, x - y >= 1 is feasible" false (infeasible feasible)

(* eliminating x forms 1*(3x - y) + 3*(2^61 - x) = 3*2^61 - y, whose
   constant leaves the native int range: the solver must give up, not
   wrap it to -2^61 and prove the system infeasible *)
let test_affine_overflow () =
  let x = sym ~lo:0 ~hi:(1 lsl 61) 1 "x" and y = sym ~lo:0 ~hi:(1 lsl 61) 2 "y" in
  Alcotest.(check bool) "3x - y >= 0 on [0, 2^61] is feasible" false
    (infeasible (A.with_ge (lin [ (3, x); (-1, y) ] 0) A.empty))

(** Systems with a planted integer point: 2–4 symbols at coordinates
    up to 2^58 in magnitude, bounds out to ±2^61 (often exactly), and
    equalities and inequalities with coefficients in [-3, 3] drawn to
    hold at the point, so every system is feasible. The products the
    solver forms from such bounds leave the native int range. *)
let gen_planted =
  let open QCheck.Gen in
  let big = 1 lsl 61 and coord = 1 lsl 58 in
  let* n = int_range 2 4 in
  let* point = list_repeat n (int_range (-coord) coord) in
  let* bounds =
    flatten_l
      (List.map
         (fun p ->
           pair
             (oneof [ return (-big); map (fun r -> p - r) (int_range 0 (big + p)) ])
             (oneof [ return big; map (fun r -> p + r) (int_range 0 (big - p)) ]))
         point)
  in
  let syms = List.mapi (fun i (lo, hi) -> sym ~lo ~hi (i + 1) (Fmt.str "x%d" (i + 1))) bounds in
  let at_point cs = List.fold_left2 (fun acc c p -> acc + (c * p)) 0 cs point in
  let row slack =
    let+ cs = list_repeat n (int_range (-3) 3) and+ slack in
    lin (List.combine cs syms) (slack - at_point cs)
  in
  let* eqs = list_size (int_range 0 2) (row (return 0)) in
  let+ ges = list_size (int_range 1 4) (row (oneof [ return 0; int_range 0 coord ])) in
  (syms, point, { A.eqs; ges })

let arb_planted =
  QCheck.make
    ~print:(fun (syms, point, sys) ->
      Fmt.str "%a | %a | at %a" pp_system sys pp_box syms Fmt.(Dump.list int) point)
    gen_planted

let prop_planted_feasible =
  QCheck.Test.make ~name:"Affine.infeasible: never true with a planted point near 2^61"
    ~count:1000 ~long_factor:10 arb_planted
    (fun (_, _, sys) -> not (infeasible sys))

(* ------------------------------------------------------------------ *)
(* The verdict memo                                                    *)
(* ------------------------------------------------------------------ *)

(** [sys] with [f] applied to every symbol occurrence; [f] must keep
    the [sid] order. *)
let map_syms f (sys : A.system) =
  let row (a : A.t) = { a with A.terms = List.map (fun (s, c) -> (f s, c)) a.A.terms } in
  { A.eqs = List.map row sys.A.eqs; ges = List.map row sys.A.ges }

(** Sequences of queries at depth 0–2 over [gen_system] and
    [gen_planted] systems, plus repeats, copies with fresh [sid]s, and
    copies in which one symbol's bound moved by 1–3. *)
let arb_memo_sequence =
  let gen =
    let open QCheck.Gen in
    let system = oneof [ gen_system; map (fun (syms, _, sys) -> (syms, sys)) gen_planted ] in
    let variant ((syms : A.sym list), sys) =
      let* k = int_range 1 3 and* upper = bool and* (moved : A.sym) = oneofl syms in
      let move (s : A.sym) =
        let by = Option.map (fun b -> if upper then b + k else b - k) in
        if s.A.sid <> moved.A.sid then s
        else if upper then { s with A.hi = by s.A.hi }
        else { s with A.lo = by s.A.lo }
      in
      oneofl
        [ sys; map_syms (fun s -> { s with A.sid = s.A.sid + 100 }) sys; map_syms move sys ]
    in
    let* base = list_size (int_range 1 6) system in
    let* copies = list_size (int_range 0 10) (oneofl base >>= variant) in
    let* queries = shuffle_l (List.map snd base @ copies) in
    flatten_l (List.map (fun sys -> map (fun depth -> (depth, sys)) (int_range 0 2)) queries)
  in
  QCheck.make
    ~print:
      Fmt.(str "%a" (Dump.list (fun ppf (depth, sys) -> pf ppf "depth %d: %a" depth pp_system sys)))
    gen

let prop_memo_exact =
  QCheck.Test.make ~name:"Affine memo: shared answers equal fresh-memo answers" ~count:500
    ~long_factor:10 arb_memo_sequence
    (fun queries ->
      let memo = A.memo () in
      List.for_all
        (fun (depth, sys) -> A.infeasible memo ~depth sys = infeasible ~depth sys)
        queries)

(* ------------------------------------------------------------------ *)
(* The query builder against the list-based one                        *)
(* ------------------------------------------------------------------ *)

module R = Reference_query

(** Pair systems: 2–5 symbols, each [Shared], [Thread] or [Local] and
    each bound present or not; equality and inequality rows of 1–3
    parts under [Orig], [First] or [Second]; the order in which the
    pair meets part of them (the rest is met as the rows list them);
    one more row to derive, an equality or an inequality, and the
    depths of both queries. *)
let gen_pair_query =
  let open QCheck.Gen in
  let* k = int_range 2 5 in
  let bound = oneof [ return None; map Option.some (int_range (-4) 4) ] in
  let* specs = list_repeat k (triple (int_range 0 2) bound bound) in
  let syms =
    List.mapi
      (fun i (kind, lo, hi) ->
        let kind = match kind with 0 -> A.Shared | 1 -> A.Thread (i mod 2) | _ -> A.Local in
        { A.sid = i + 1; name = Fmt.str "x%d" (i + 1); kind; lo; hi })
      specs
  in
  let expr =
    let* cs = list_repeat k (oneof [ return 0; int_range (-3) 3 ]) in
    let+ c = int_range (-5) 5 in
    lin (List.combine cs syms) c
  in
  let row = list_size (int_range 1 3) (pair (oneofl [ A.Orig; A.First; A.Second ]) expr) in
  let* eqs = list_size (int_range 0 3) row and* ges = list_size (int_range 0 4) row in
  let* extra = row and* eq = bool and* depth = int_range 0 2 and* depth' = int_range 0 2 in
  let* met = shuffle_l (List.concat (extra :: (eqs @ ges))) in
  let+ cut = int_range 0 (List.length met) in
  (syms, List.filteri (fun i _ -> i < cut) met, eqs, ges, (extra, eq), (depth, depth'))

let pp_row ppf (r : A.row) =
  Fmt.(list ~sep:(any " + ") (pair ~sep:(any "@") A.pp string)) ppf
    (List.map (fun (inst, a) -> (a, match inst with A.Orig -> "o" | A.First -> "1" | A.Second -> "2")) r)

let arb_pair_query =
  QCheck.make
    ~print:(fun (syms, met, eqs, ges, (extra, eq), (depth, depth')) ->
      Fmt.str "symbols: %a@.met: %a@.eqs: %a@.ges: %a@.then %s %a, depths %d, %d"
        Fmt.(list ~sep:(any ", ") string)
        (List.map
           (fun (s : A.sym) ->
             Fmt.str "%s%s[%a, %a]" s.A.name
               (match s.A.kind with A.Shared -> "" | A.Thread d -> Fmt.str "/t%d" d | A.Local -> "/l")
               Fmt.(option ~none:(any "-") int) s.A.lo Fmt.(option ~none:(any "-") int) s.A.hi)
           syms)
        pp_row met
        Fmt.(list ~sep:(any "; ") pp_row) eqs
        Fmt.(list ~sep:(any "; ") pp_row) ges
        (if eq then "eq" else "ge") pp_row extra depth depth')
    gen_pair_query

(* the pair meets [met] first, then the rows as listed; the reference
   renames in that same order to fresh [sid]s above every symbol's *)
let prop_query_oracle =
  QCheck.Test.make ~name:"Affine.query: the list-based builder's array on the renamed system"
    ~count:1000 ~long_factor:10 arb_pair_query
    (fun (_, met, eqs, ges, (extra, eq), (depth, depth')) ->
      let num = A.numbering () and rn = R.renamer ~first:100 in
      List.iter
        (fun (inst, a) ->
          A.number num inst a;
          ignore (R.rename rn inst a))
        met;
      let b = A.query num ~depth ~eqs ~ges in
      (* the equalities are renamed before the inequalities *)
      let eqs' = List.map (R.row rn) eqs in
      let sys = { A.eqs = eqs'; ges = List.map (R.row rn) ges } in
      let expected = R.query ~depth sys in
      (* a branch: the base query with one more row *)
      let b' = (if eq then A.and_eq else A.and_ge) ~depth:depth' b extra in
      let x = R.row rn extra in
      let expected' = R.query ~depth:depth' (if eq then A.with_eq x sys else A.with_ge x sys) in
      A.dense b = expected && A.dense b' = expected')

(* each case asks through one memo two queries that differ in one key
   component only and have different verdicts *)
let test_memo_key () =
  let ask memo ?depth what expected sys =
    Alcotest.(check bool) what expected (A.infeasible memo ?depth sys)
  in
  (* the bounds: x - 5 >= 0 with x in [0, 4] and in [0, 9] *)
  let over hi = A.with_ge (lin [ (1, sym ~lo:0 ~hi 1 "x") ] (-5)) A.empty in
  let memo = A.memo () in
  ask memo "x in [0, 4]" true (over 4);
  ask memo "then x in [0, 9]" false (over 9);
  let memo = A.memo () in
  ask memo "x in [0, 9]" false (over 9);
  ask memo "then x in [0, 4]" true (over 4);
  (* the depth: 3x + 5y = 1 over [0, 1]^2 has rational points (x = 1/3),
     so elimination alone leaves it open; the modulus test with m = 3
     splits 5y - 1 into 0 and 3, neither divisible by 5 *)
  let x = sym ~lo:0 ~hi:1 1 "x" and y = sym ~lo:0 ~hi:1 2 "y" in
  let sys = A.with_eq (lin [ (3, x); (5, y) ] (-1)) A.empty in
  let memo = A.memo () in
  ask memo ~depth:0 "3x + 5y = 1 at depth 0" false sys;
  ask memo ~depth:2 "then at depth 2" true sys;
  (* the equality / inequality split: one row, 2x - 3, over [0, 4] *)
  let x = sym ~lo:0 ~hi:4 1 "x" in
  let memo = A.memo () in
  ask memo "2x - 3 >= 0" false (A.with_ge (lin [ (2, x) ] (-3)) A.empty);
  ask memo "then 2x - 3 = 0" true (A.with_eq (lin [ (2, x) ] (-3)) A.empty)

let test_memo_ignores_sids () =
  let sys sid =
    let x = sym ~lo:0 ~hi:4 sid "x" and y = sym ~lo:0 ~hi:4 (sid + 1) "y" in
    A.with_ge (lin [ (1, x); (-1, y) ] (-1)) A.empty
  in
  let memo = A.memo () in
  Alcotest.(check bool) "sids 1, 2" false (A.infeasible memo (sys 1));
  Alcotest.(check bool) "sids 7, 8" false (A.infeasible memo (sys 7));
  Alcotest.(check int) "one entry" 1 (A.memo_entries memo)

(* the modulus-interval test on a residue whose interval holds 2^39
   multiples: it must count them, not list them *)
let test_affine_wide_interval () =
  let x = sym ~lo:0 ~hi:(1 lsl 40) 1 "x" and y = sym ~lo:0 ~hi:(1 lsl 40) 2 "y" in
  Alcotest.(check bool) "2y + x - 1 = 0 is feasible" false
    (infeasible (A.with_eq (lin [ (2, y); (1, x) ] (-1)) A.empty))

(* ------------------------------------------------------------------ *)
(* Precision on the candidates that cost the gate most                 *)
(* ------------------------------------------------------------------ *)

let test_heavy_candidates_clean name () =
  let b = Pgpu_rodinia.Registry.find name in
  let opts =
    {
      (Pipeline.default_options Descriptor.a100) with
      Pipeline.coarsen_specs = Pipeline.specs_of_totals [ (1, 1); (1, 4); (8, 2) ];
    }
  in
  let m, report = Pipeline.compile opts (Frontend.compile_string b.Bench_def.source) in
  List.iter
    (fun (kr : Pipeline.kernel_report) ->
      List.iter
        (fun (c : Alternatives.candidate) ->
          match c.Alternatives.decision with
          | Alternatives.Rejected_racy msg ->
              Alcotest.failf "%s: candidate [%s] rejected as racy: %s" kr.Pipeline.kernel
                c.Alternatives.desc msg
          | _ -> ())
        kr.Pipeline.candidates)
    report.Pipeline.kernels;
  check_clean name m ()

let heavy_candidate_cases =
  List.map
    (fun name ->
      Alcotest.test_case (name ^ " at 1x1, 1x4, 8x2 is race-free") `Quick
        (test_heavy_candidates_clean name))
    [ "lud"; "hotspot"; "backprop"; "nw"; "srad_v1"; "pathfinder" ]

(* ------------------------------------------------------------------ *)
(* Intervals follow the program's integer semantics                    *)
(* ------------------------------------------------------------------ *)

(** A kernel of one 256-thread block, [t] its thread index, over a
    shared [s[512]], with [body] as its code. *)
let one_block_src body =
  Fmt.str
    {|
__global__ void k(float* out, int n) {
  __shared__ float s[512];
  int t = threadIdx.x;
  %s
}

float* main(int n) {
  float* hout = (float*)malloc(256 * sizeof(float));
  float* dout;
  cudaMalloc((void**)&dout, 256 * sizeof(float));
  k<<<1, 256>>>(dout, n);
  cudaMemcpy(hout, dout, 256 * sizeof(float), cudaMemcpyDeviceToHost);
  return hout;
}
|}
    body

(* [expected] lists the race kinds, as "write-write" / "read-write" *)
let test_interval_race body expected () =
  let m, _ =
    Pipeline.compile (Pipeline.default_options Descriptor.a100)
      (Frontend.compile_string (one_block_src body))
  in
  let races =
    List.filter_map
      (fun (d : Report.diagnostic) ->
        if d.Report.kind = "shared-race" then
          List.find_opt
            (fun k -> String.starts_with ~prefix:("possible " ^ k) d.Report.message)
            [ "write-write"; "read-write" ]
        else None)
      (Report.errors (Check.check_modul m))
  in
  Alcotest.(check (list string)) "races" expected (List.sort compare races)

let interval_cases =
  [
    (* x % 0 evaluates to 0, so q is 0 (no write-write race), not an
       empty interval that makes every pair vacuously safe *)
    ( "x % 0 is 0, not an empty interval",
      {|for (int p = 0; p < 2; p++) {
          int q = (p + 1) % (n - n);
          s[t + q] = 1.0f;
          out[t] = s[t + 1];
        }|},
      [ "read-write" ] );
    (* p * p over [0, 2^32] reaches 2^64: the corner product wraps to 0 *)
    ( "a wrapping product bound is unbounded",
      {|for (int p = 0; p < 4294967297; p++) {
          if (p < 2) { int q = p * p; s[t + q] = 1.0f; out[t] = s[t]; }
        }|},
      [ "read-write"; "write-write" ] );
    (* 8 >> 64 evaluates as 8 >> 0: a count range reaching 64 gave q the
       interval [8, 8], while 8 >> 3 = 1 lets threads 0 and 7 collide *)
    ( "a shift count of 63 or more is unbounded",
      {|for (int p = 0; p < 65; p++) { int q = 8 >> p; s[t + q] = 1.0f; }
        out[t] = 0.0f;|},
      [ "write-write" ] );
  ]
  |> List.map (fun (name, body, expected) ->
         Alcotest.test_case name `Quick (test_interval_race body expected))

(* ------------------------------------------------------------------ *)
(* Racy candidates never reach TDO                                     *)
(* ------------------------------------------------------------------ *)

let racy_src =
  {|
__global__ void blur(float* in, float* out, int n) {
  __shared__ float tile[256];
  int t = threadIdx.x;
  int i = blockIdx.x * 256 + t;
  tile[t] = in[i];
  out[i] = 0.5f * tile[t] + 0.5f * tile[255 - t];
}

float* main(int nb) {
  int n = nb * 256;
  float* hout = (float*)malloc(n * sizeof(float));
  float* din; float* dout;
  cudaMalloc((void**)&din, n * sizeof(float));
  cudaMalloc((void**)&dout, n * sizeof(float));
  float* hin = (float*)malloc(n * sizeof(float));
  fill_rand(hin, 3);
  cudaMemcpy(din, hin, n * sizeof(float), cudaMemcpyHostToDevice);
  blur<<<nb, 256>>>(din, dout, n);
  cudaMemcpy(hout, dout, n * sizeof(float), cudaMemcpyDeviceToHost);
  return hout;
}
|}

let count_alternatives m =
  let n = ref 0 in
  let f i =
    (match i with Instr.Alternatives _ -> incr n | _ -> ());
    [ i ]
  in
  ignore (map_modul f m);
  !n

let test_racy_never_reaches_tdo () =
  let m = Frontend.compile_string racy_src in
  let opts =
    {
      (Pipeline.default_options Descriptor.a100) with
      Pipeline.coarsen_specs = Pipeline.specs_of_totals [ (1, 1); (2, 1); (1, 2) ];
    }
  in
  let m', report = Pipeline.compile opts m in
  let candidates = List.concat_map (fun kr -> kr.Pipeline.candidates) report.Pipeline.kernels in
  Alcotest.(check bool) "candidates were expanded" true (candidates <> []);
  List.iter
    (fun (c : Alternatives.candidate) ->
      match c.Alternatives.decision with
      | Alternatives.Rejected_racy _ -> ()
      | d ->
          Alcotest.failf "candidate [%s] of a racy kernel was %a" c.Alternatives.desc
            Alternatives.pp_decision d)
    candidates;
  (* with every candidate rejected, no Alternatives region exists for
     TDO to trial: the runtime falls back to the cleaned baseline *)
  Alcotest.(check int) "no alternatives region" 0 (count_alternatives m');
  let config = { (Runtime.default_config Descriptor.a100) with Runtime.tune = true } in
  let results, _ = Runtime.run config m' [ Exec.UI 2 ] in
  Alcotest.(check int) "racy module still runs" 1 (List.length results)

(* ------------------------------------------------------------------ *)
(* Dynamic race detector                                               *)
(* ------------------------------------------------------------------ *)

let run_with rc m args =
  let config = { (Runtime.default_config Descriptor.a100) with Runtime.racecheck = rc } in
  let results, st = Runtime.run config m (List.map (fun n -> Exec.UI n) args) in
  (List.map Runtime.buffer_contents results, Runtime.composite_seconds st)

let test_dynamic_flags_racy () =
  let m = Frontend.compile_string racy_src in
  let m', _ = Pipeline.compile (Pipeline.default_options Descriptor.a100) m in
  let rc = Racecheck.create () in
  ignore (run_with (Some rc) m' [ 2 ]);
  Alcotest.(check bool) "conflicts detected" true (Racecheck.total_conflicts rc > 0);
  List.iter
    (fun (c : Racecheck.conflict) ->
      Alcotest.(check bool) "distinct lanes" true (c.Racecheck.lane1 <> c.Racecheck.lane2))
    (Racecheck.conflicts rc);
  let diags = Check.diagnostics_of_racecheck rc in
  Alcotest.(check bool) "diagnostics are errors" true (Report.has_errors diags)

let test_dynamic_silent_and_free_on_racefree () =
  let m = Kernels.reduce_module () in
  let m', _ = Pipeline.compile (Pipeline.default_options Descriptor.a100) m in
  let out_plain, t_plain = run_with None m' [ 6 ] in
  let rc = Racecheck.create () in
  let out_checked, t_checked = run_with (Some rc) m' [ 6 ] in
  Alcotest.(check int) "no conflicts" 0 (Racecheck.total_conflicts rc);
  Alcotest.(check (list (list (float 0.)))) "same outputs" out_plain out_checked;
  Alcotest.(check (float 0.)) "same composite time" t_plain t_checked

(* ------------------------------------------------------------------ *)
(* Golden text report on the racy fixture                              *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_golden_report () =
  (* cwd is _build/default/test under `dune runtest`, the workspace
     root under `dune exec test/main.exe` *)
  let path =
    List.find Sys.file_exists [ "../examples/racy.cu"; "examples/racy.cu" ]
  in
  let src = read_file path in
  let m = Frontend.compile_string src in
  let m', _ = Pipeline.compile (Pipeline.default_options Descriptor.a100) m in
  let report = Report.to_string (Report.sort (Check.check_modul m')) in
  let expected =
    "error[barrier-divergence] bad_reduce: barrier under thread-dependent control flow: \
     threads of one block may not all reach it\n\
     error[shared-race] blur: possible read-write race on shared buffer tile between 'load \
     tile[-t + 255]' and 'store tile[t]' (barrier epoch 0): distinct threads can touch the \
     same element\n\
     2 error(s), 0 warning(s)\n"
  in
  Alcotest.(check string) "pgpu check report" expected report

let suite =
  [
    ( "analysis",
      [
        Alcotest.test_case "stock reduce is diagnostic-free" `Quick
          (check_clean "reduce" (Kernels.reduce_module ()));
        Alcotest.test_case "stock tile_avg is diagnostic-free" `Quick
          (check_clean "tile_avg" (Kernels.tile_avg_module ()));
        Alcotest.test_case "stock vecadd is diagnostic-free" `Quick
          (check_clean "vecadd" (Kernels.vecadd_module ()));
        Alcotest.test_case "every injected mutant is flagged" `Quick test_all_mutants;
        QCheck_alcotest.to_alcotest prop_mutants_flagged;
        Alcotest.test_case "racy candidates never reach TDO" `Quick
          test_racy_never_reaches_tdo;
        Alcotest.test_case "dynamic detector flags the racy kernel" `Quick
          test_dynamic_flags_racy;
        Alcotest.test_case "dynamic detector silent and free on race-free" `Quick
          test_dynamic_silent_and_free_on_racefree;
        Alcotest.test_case "golden text report for examples/racy.cu" `Quick
          test_golden_report;
        QCheck_alcotest.to_alcotest prop_infeasible_sound;
        QCheck_alcotest.to_alcotest prop_mod_guard_sound;
        Alcotest.test_case "affine fixed cases" `Quick test_affine_fixed;
        Alcotest.test_case "modulus-interval test on a 2^40-wide interval" `Quick
          test_affine_wide_interval;
        Alcotest.test_case "solver gives up on overflow near 2^61" `Quick test_affine_overflow;
        QCheck_alcotest.to_alcotest prop_planted_feasible;
        QCheck_alcotest.to_alcotest prop_memo_exact;
        QCheck_alcotest.to_alcotest prop_query_oracle;
        Alcotest.test_case "Affine memo: the key keeps bounds, depth and row kinds" `Quick
          test_memo_key;
        Alcotest.test_case "Affine memo: systems differing only in sids share an entry" `Quick
          test_memo_ignores_sids;
      ]
      @ interval_cases @ heavy_candidate_cases @ bench_clean_cases );
  ]

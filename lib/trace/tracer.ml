(** Deterministic span-based tracer.

    Collects nested spans, instant events and counter samples from the
    compiler and the simulated runtime. There is no wall clock
    anywhere: every event is stamped by a caller-supplied *tick
    source* — pass sequence numbers on the compiler side, simulated
    seconds on the runtime side — so traces are bit-identical across
    runs and machines.

    A disabled tracer ([disabled], or [create ~enabled:false ()]) is a
    no-op sink: every operation returns immediately after one mutable
    field check, so instrumentation can stay threaded through the hot
    paths unconditionally. *)

type event =
  | Span of {
      name : string;
      cat : string;
      ts : float;  (** start tick *)
      dur : float;  (** duration in ticks *)
      args : (string * Json.t) list;
    }
  | Instant of { name : string; cat : string; ts : float; args : (string * Json.t) list }
  | Counter of { name : string; ts : float; value : float }

type open_span = { o_name : string; o_cat : string; o_ts : float; o_args : (string * Json.t) list }

type t = {
  enabled : bool;
  clock : unit -> float;
  mutable events : event list;  (** reverse emission order *)
  mutable stack : open_span list;
}

(** A clock that returns 0, 1, 2, ... — the deterministic default used
    for compiler-side traces (one tick per clock query). *)
let seq_clock () =
  let n = ref (-1.) in
  fun () ->
    n := !n +. 1.;
    !n

let disabled = { enabled = false; clock = (fun () -> 0.); events = []; stack = [] }

let create ?clock () =
  let clock = match clock with Some c -> c | None -> seq_clock () in
  { enabled = true; clock; events = []; stack = [] }

let enabled t = t.enabled
let now t = if t.enabled then t.clock () else 0.

let emit t e = t.events <- e :: t.events

let begin_span t ?(cat = "") ?(args = []) name =
  if t.enabled then
    t.stack <- { o_name = name; o_cat = cat; o_ts = t.clock (); o_args = args } :: t.stack

(** End the innermost open span, merging [args] into its begin-time
    arguments. A stray end with no open span is ignored. *)
let end_span t ?(args = []) () =
  if t.enabled then
    match t.stack with
    | [] -> ()
    | s :: rest ->
        t.stack <- rest;
        let ts_end = t.clock () in
        emit t
          (Span
             {
               name = s.o_name;
               cat = s.o_cat;
               ts = s.o_ts;
               dur = Float.max 0. (ts_end -. s.o_ts);
               args = s.o_args @ args;
             })

let with_span t ?cat ?args name f =
  if not t.enabled then f ()
  else begin
    begin_span t ?cat ?args name;
    match f () with
    | v ->
        end_span t ();
        v
    | exception e ->
        end_span t ~args:[ ("exception", Json.Str (Printexc.to_string e)) ] ();
        raise e
  end

(** A complete span with explicit timestamp and duration — used by the
    runtime, whose clock is the simulated time rather than a tick
    sequence. *)
let span_at t ?(cat = "") ?(args = []) ~ts ~dur name =
  if t.enabled then emit t (Span { name; cat; ts; dur = Float.max 0. dur; args })

let instant t ?(cat = "") ?(args = []) name =
  if t.enabled then emit t (Instant { name; cat; ts = t.clock (); args })

let instant_at t ?(cat = "") ?(args = []) ~ts name =
  if t.enabled then emit t (Instant { name; cat; ts; args })

let counter t ?ts name value =
  if t.enabled then
    let ts = match ts with Some ts -> ts | None -> t.clock () in
    emit t (Counter { name; ts; value })

(** Close every still-open span (innermost first). *)
let close_all t = if t.enabled then while t.stack <> [] do end_span t () done

let depth t = List.length t.stack

(** Events in emission order (spans appear at their end time). *)
let events t = List.rev t.events

let append t events = if t.enabled then List.iter (emit t) events

let clear t =
  if t.enabled then begin
    t.events <- [];
    t.stack <- []
  end

let event_name = function
  | Span { name; _ } | Instant { name; _ } | Counter { name; _ } -> name

let pp_event ppf = function
  | Span { name; cat; ts; dur; args } ->
      Fmt.pf ppf "span %s [%s] ts=%g dur=%g%a" name cat ts dur
        Fmt.(list ~sep:nop (any " " ++ pair ~sep:(any "=") string Json.pp))
        args
  | Instant { name; cat; ts; args } ->
      Fmt.pf ppf "instant %s [%s] ts=%g%a" name cat ts
        Fmt.(list ~sep:nop (any " " ++ pair ~sep:(any "=") string Json.pp))
        args
  | Counter { name; ts; value } -> Fmt.pf ppf "counter %s ts=%g value=%g" name ts value

(** Deterministic span-based tracer: nested spans, instant events and
    counter samples, stamped by caller-supplied tick sources (pass
    sequence numbers on the compiler side, simulated seconds on the
    runtime side) so traces are bit-identical across runs. A disabled
    tracer is a no-op sink — one mutable field check per call. *)

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

type t

(** The shared no-op sink: always disabled, never records. *)
val disabled : t

(** A fresh enabled tracer. The default [clock] is [seq_clock ()]. *)
val create : ?clock:(unit -> float) -> unit -> t

(** A deterministic 0, 1, 2, ... tick source. *)
val seq_clock : unit -> unit -> float

val enabled : t -> bool

(** The current clock value (advances sequence clocks); 0 when
    disabled. *)
val now : t -> float

val begin_span : t -> ?cat:string -> ?args:(string * Json.t) list -> string -> unit

(** End the innermost open span, merging [args] into its begin-time
    arguments; ignored when no span is open. *)
val end_span : t -> ?args:(string * Json.t) list -> unit -> unit

(** [with_span t name f] wraps [f] in a span; the span is closed on
    exceptions too (recording the exception as an argument). *)
val with_span : t -> ?cat:string -> ?args:(string * Json.t) list -> string -> (unit -> 'a) -> 'a

(** A complete span with explicit timestamp and duration (simulated
    time on the runtime side). *)
val span_at :
  t -> ?cat:string -> ?args:(string * Json.t) list -> ts:float -> dur:float -> string -> unit

val instant : t -> ?cat:string -> ?args:(string * Json.t) list -> string -> unit
val instant_at : t -> ?cat:string -> ?args:(string * Json.t) list -> ts:float -> string -> unit
val counter : t -> ?ts:float -> string -> float -> unit

(** Close every still-open span, innermost first. *)
val close_all : t -> unit

(** Number of currently open spans. *)
val depth : t -> int

(** Events in emission order (a span appears at its end time). *)
val events : t -> event list

(** [append t events] records [events], in order, after [t]'s own; a
    no-op when [t] is disabled. A batch that ran on private tracers
    joins the run's trace this way, in an order of its choosing. *)
val append : t -> event list -> unit

val clear : t -> unit
val event_name : event -> string
val pp_event : event Fmt.t

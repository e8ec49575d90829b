(** Fixed-step discretised fluid backend: n flows on one bottleneck,
    each advancing a {!Ccac.Model.fluid} per-RTT update law, the link
    integrating a fluid queue (occupancy ODE, proportional loss when
    the buffer is full, queueing-delay feedback plus per-flow jitter).

    Per step of length [dt] each active flow observes
    [delay = rm + q/C + jitter t], offers [cwnd/delay * dt]
    bytes, arrivals are clipped by the free buffer room (the clipped
    fraction dropped proportionally and flagged as loss), the queue
    serves [min(q, C*dt)] split by backlog, and a flow whose epoch is
    one observed RTT old runs its law's update.  Flows are long-lived:
    each runs from its start time to the horizon.

    Deterministic: a pure function of the config (jitter closures
    included).  The byte ledger is exact up to float rounding —
    {!conservation_error} is the oracle input. *)

type flow_spec

val flow :
  ?start_time:float ->
  ?jitter:(float -> float) ->
  ?mss:float ->
  Ccac.Model.fluid ->
  flow_spec
(** [jitter] maps absolute sim time to the flow's non-congestive extra
    delay (the model's D element).
    @raise Invalid_argument naming the field on a non-finite
    [start_time] or [mss] not finite and positive.  NaN fails every
    check. *)

type config = private {
  rate : float;  (** bottleneck, bytes/s *)
  buffer : float;  (** bytes; [infinity] = unbounded *)
  rm : float;  (** base propagation RTT, seconds *)
  dt : float;  (** step, seconds (default rm/8) *)
  t0 : float;
  duration : float;
  measure_from : float;  (** absolute time; counted bytes + queue integral *)
  initial_queue : float;  (** phantom backlog pre-loaded at [t0] *)
  flows : flow_spec array;
}

val config :
  rate:float ->
  ?buffer:float ->
  rm:float ->
  ?dt:float ->
  ?t0:float ->
  ?measure_from:float ->
  ?initial_queue:float ->
  duration:float ->
  flow_spec list ->
  config
(** @raise Invalid_argument naming the field on [rate], [rm] or [dt]
    not finite and positive, a negative [buffer] ([infinity], the
    default, is unbounded), a non-finite [t0] or [measure_from], or
    [initial_queue] or [duration] not finite and >= 0 (a zero
    [duration] is legal).  NaN fails every check. *)

type t

val create : config -> t
(** Flows with [start_time <= t0] are active immediately (so the hybrid
    driver can seed their state before stepping). *)

val run : t -> t
val run_config : config -> t

val steps : t -> int
val queue_bytes : t -> float
val mean_queue_bytes : t -> float
(** Time-average of the queue from [measure_from] to the current time. *)

val flow_cwnd : t -> int -> float
val set_flow_cwnd : t -> int -> float -> unit
(** Hybrid packet->fluid translation: seed the law state from an
    externally observed window (exits slow start). *)

val flow_min_delay : t -> int -> float
val set_flow_min_delay : t -> int -> float -> unit
val flow_rate : t -> int -> float
(** cwnd over the last observed delay — the paced-rate estimate handed
    to the packet backend at a fluid->packet switch. *)

val served_bytes : t -> int -> float
val counted_bytes : t -> int -> float
(** Bytes served after [measure_from]. *)

val goodput : t -> int -> float
(** Served bytes over the flow's own active lifetime. *)

val accepted_total : t -> float
val served_total : t -> float
(** Includes the phantom initial-queue bytes drained through the link. *)

val offered_total : t -> float
(** Bytes the flows offered, dropped ones included. *)

val conservation_error : t -> float
(** [|initial_queue + accepted - served - queue|] in bytes: every
    accepted byte is either still queued or was served.  Should be
    within float rounding of 0; the fluid conservation oracle asserts
    it. *)

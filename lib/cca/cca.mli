(** Common interface for congestion control algorithms.

    A CCA is a state machine driven by acknowledgment, loss and send events.
    It exposes its control decisions through a congestion window (bytes) and
    an optional pacing rate (bytes/s).  All times are absolute simulation
    times in seconds; all sizes are bytes.

    Instances own private mutable state (captured in the closures of {!t}),
    which lets an instance converge on one network and then keep running,
    state intact, on another — the operation at the heart of the paper's
    Theorem 1 construction. *)

(** Information delivered to the CCA for every acknowledged packet.

    Fields are mutable so drivers can reuse one scratch record across
    calls instead of allocating ~10 words per ACK on the hot path.  The
    record is only valid for the duration of the [on_ack] call: a CCA
    must copy out any field it needs later and must not retain the
    record itself. *)
type ack_info = {
  mutable now : float;  (** time the ACK reached the sender *)
  mutable rtt : float;  (** RTT sampled by this packet, seconds *)
  mutable acked_bytes : int;  (** bytes newly acknowledged by this ACK *)
  mutable sent_time : float;  (** when the acked packet was sent *)
  mutable delivered : int;
      (** cumulative bytes delivered (receiver side) when the acked packet
          was sent — used with [delivered_now] for rate samples, as in
          BBR's delivery-rate estimator *)
  mutable delivered_now : int;
      (** cumulative bytes delivered including this packet *)
  mutable inflight : int;  (** bytes in flight after processing this ACK *)
  mutable app_limited : bool;
      (** sender was application-limited for this sample *)
  mutable ecn_ce : bool;
      (** the acked packet carried a congestion-experienced mark *)
}

(** Information delivered on a loss event. *)
type loss_info = {
  now : float;
  lost_bytes : int;
  lost_packets : (float * int) list;
      (** (send time, bytes) of each lost packet — lets monitor-interval
          CCAs (PCC) attribute losses to the interval that sent them *)
  inflight : int;  (** bytes in flight after removing the lost bytes *)
  kind : [ `Dupack | `Timeout ];
}

(** Information delivered when a packet is sent.  Same reuse contract
    as {!ack_info}: valid only for the duration of the [on_send] call. *)
type send_info = {
  mutable now : float;
  mutable sent_bytes : int;
  mutable inflight : int;
}

(** A congestion control algorithm instance. *)
type t = {
  name : string;
  on_ack : ack_info -> unit;
  on_loss : loss_info -> unit;
  on_send : send_info -> unit;
  on_timer : float -> unit;  (** called at (or after) the requested time *)
  next_timer : unit -> float option;
      (** absolute time at which the CCA wants [on_timer] called; [None] if
          no timer is pending.  Re-read after every event. *)
  cwnd : unit -> float;  (** congestion window, bytes; [infinity] = unlimited *)
  pacing_rate : unit -> float option;
      (** bytes/s; [None] means no pacing (send whenever window allows) *)
  inspect : unit -> (string * float) list;
      (** named internals for tracing and tests *)
}

(** A CCA instance plus its lifecycle hooks, for populations that churn
    through many short flows.  Reno, Copa and Vegas build theirs with
    [make_in], which keeps the state in one row of a shared
    {!Columns} arena; their [make] is a one-row [make_in] that returns
    only [cca].  [reset] re-initializes the instance's state in place so
    one instance (and its arena row) can serve successive flow
    incarnations without allocating; [None] means the instance is
    single-use and a fresh one must be built per flow.  [release]
    returns any arena row to its free list, once: the instance must not
    be driven, reset or released afterwards, and a second [release]
    raises [Invalid_argument]. *)
type instance = {
  cca : t;
  reset : (unit -> unit) option;
  release : unit -> unit;
}

val default_mss : int
(** Default segment size, 1500 bytes, used by all CCAs in this library. *)

val instance_of : t -> instance
(** Wrap a boxed, single-use CCA as an {!instance} ([reset = None],
    [release] a no-op). *)

val bandwidth_sample : ack_info -> float
(** Delivery-rate sample implied by an ACK: bytes delivered between the
    acked packet's send and its acknowledgment, divided by the elapsed
    interval measured on the sender clock.  Returns [0.] for degenerate
    intervals. *)

(** Constant- or variable-rate FIFO bottleneck with a drop-tail buffer.

    Packets are served in arrival order at the link rate; a packet occupies
    the buffer from enqueue until its transmission completes.  The
    time-varying rate form implements the paper's "strong model" (§6.5)
    where an adversary may vary the link rate arbitrarily. *)

(** Service rate specification, bytes/s. *)
type rate =
  | Constant of float
  | Piecewise of (float * float) array
      (** [(t_i, r_i)] sorted by [t_i]; rate [r_i] applies from [t_i] until
          the next breakpoint.  [r_0] also applies before [t_0].  Rates may
          be 0 (the link pauses). *)

(** Queue scheduling discipline. *)
type discipline =
  | Fifo  (** single shared queue — the paper's §3 model *)
  | Drr of { quantum : int }
      (** per-flow queues served deficit-round-robin — the "stronger
          isolation" the conclusion suggests; [quantum] in bytes *)

val rate_at : rate -> float -> float

val transmit_end : rate -> start:float -> bytes:int -> float
(** Time at which a transmission of [bytes] beginning at [start] completes;
    [infinity] if the remaining rate trace cannot carry the bytes. *)

val mean_rate : rate -> t0:float -> t1:float -> float
(** Time-average of the rate over [t0, t1].  Exact piecewise integral for
    [Piecewise] (no sampling error); the constant for [Constant].  Falls
    back to [rate_at t0] when [t1 <= t0]. *)

type t

val create :
  eq:Event_queue.t -> rate:rate -> ?buffer:int -> ?ecn_threshold:int ->
  ?discipline:discipline -> record_queue:bool -> unit -> t
(** [buffer] is the queue capacity in bytes (including the packet in
    service); omit it for the paper's ideal unbounded queue.  When
    [record_queue] is set, the occupancy is logged to a series on every
    enqueue/dequeue.

    ECN (sec. 6.4): [ecn_threshold] installs the paper's simple
    threshold AQM, which marks congestion-experienced (CE) every
    admitted arrival that finds more than that many bytes queued.
    Unlike delay or loss, the CE mark is an unambiguous congestion
    signal. *)

val set_on_dequeue : t -> (Packet.t -> unit) -> unit
(** Called when a packet finishes transmission.  Must be set before any
    traffic arrives. *)

val enqueue : t -> Packet.t -> [ `Enqueued | `Dropped ]

val queued_bytes : t -> int
val queue_delay : t -> float
(** Current backlog divided by the current rate — the queueing delay a
    packet arriving now would see.  [infinity] when the rate is 0. *)

val drops : t -> int

val ce_marks : t -> int
(** Packets marked congestion-experienced so far. *)

val offered_bytes : t -> int
(** Total bytes presented to {!enqueue} (admitted or dropped). *)

val dropped_bytes : t -> int
(** Bytes rejected by the drop-tail buffer.  Conservation invariant:
    [offered_bytes = delivered_bytes + dropped_bytes + queued_bytes]. *)

val delivered_bytes : t -> int

val offered_bytes_for : t -> flow:int -> int
val delivered_bytes_for : t -> flow:int -> int
val dropped_bytes_for : t -> flow:int -> int
(** Per-flow slices of the byte counters above (flow id [-1] is the
    phantom initial-queue traffic).  Flows the link has never seen
    report 0.  Per-link-per-flow conservation holds exactly:
    [offered_for = delivered_for + dropped_for + bytes of that flow
    still queued or in service]. *)

val set_accounting_skew : int -> unit
(** Test-only fault injection: add this many bytes to the {e aggregate}
    delivered-bytes counter per serviced packet — a deliberate
    accounting bug that the conservation oracles in [lib/validate] must
    detect.  Global (not per link), so a shrinker re-running candidate
    configs reproduces the fault.  Callers must
    reset it to 0; production code never touches it. *)

val queue_series : t -> Series.t
(** Occupancy trace (bytes); empty unless [record_queue] was set. *)

val buffer : t -> int option
(** Current drop-tail capacity ([None] = unbounded). *)

val set_buffer : t -> int option -> unit
(** Resize the drop-tail buffer mid-run (fault injection).  Queued
    packets are never evicted; a shrink below the current occupancy only
    blocks new admissions until the queue drains below the new cap.
    @raise Invalid_argument on a negative size. *)

val fold_state : Buffer.t -> t -> unit
(** Append the queue contents (in service order), the ECN threshold and
    the byte/drop counters to a {!Statebuf} encoding — part of
    {!Network.state_hash}.  DRR per-flow queues are folded in sorted
    flow-id order so the encoding is canonical. *)

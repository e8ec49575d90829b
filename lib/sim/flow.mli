(** Sender endpoint: drives a {!Cca.t} against the simulated network.

    The flow sends fixed-size segments subject to the CCA's congestion
    window and pacing rate, detects losses by a packet-reordering threshold
    (3, the dup-ACK analogue) plus a retransmission timeout, feeds every
    event to the CCA, and records the traces the analysis layer consumes.

    Data is modeled as an infinite byte stream: a "lost" segment is not
    retransmitted, the sender just keeps sending new segments, and
    throughput is measured as acknowledged bytes over time.  This is the
    standard fluid abstraction and matches the paper's throughput
    definition (§4.2: bytes acknowledged in [0, t] divided by t).

    A flow may instead be given a finite [size_bytes]; it then stops
    producing new segments once that much data has been sent and
    {e completes} — quiescing all of its timers — when the last segment
    leaves the outstanding table.  Populations of such flows model churn
    (arrivals via [start_time], departures via completion). *)

type t

(** Structure-of-arrays arena for per-flow hot mutable state.  All flows
    of one simulation share a table: the pacing clock, progress clock and
    RTT estimator live in flat unboxed float arrays (one row per flow)
    rather than per-flow boxed records, and the CCA scratch event records
    are allocated once per table.  Sharing the scratch is safe because
    flow event processing is synchronous and non-reentrant across flows,
    and the {!Cca} contract forbids retaining the records. *)
module Table : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** Rows are added by {!Flow.create} and the arrays double on demand;
      [capacity] (default 16) merely pre-sizes them.  A flow keeps its
      row across {!Flow.respawn}, so a churning population needs as many
      rows as it has flows at once. *)
end

val create :
  eq:Event_queue.t ->
  id:int ->
  cca:Cca.t ->
  ?mss:int ->
  ?start_time:float ->
  ?initial_pacing:float ->
  ?record_series:bool ->
  ?table:Table.t ->
  ?size_bytes:int ->
  ?on_complete:(unit -> unit) ->
  transmit:(Packet.t -> unit) ->
  unit ->
  t
(** The flow schedules its own start at [start_time] (default 0).
    [transmit] injects a packet into the network.  The retransmission timeout is RFC 6298's
    [srtt + 4 rttvar], floored at 200 ms.

    [initial_pacing] (bytes/s) spreads the opening window over time instead
    of dumping it as a line-rate burst: it paces sends until the first ACK
    arrives, after which the CCA's own pacing (or lack of it) governs.  The
    Theorem 1 construction uses this to hand a converged CCA instance to a
    new network without a queue-spike transient, matching the fluid model's
    initial conditions.

    [record_series] (default [true]) controls the per-ACK RTT / cwnd /
    delivered traces.  Disabling it keeps {!delivered_bytes} and friends
    exact while bounding the flow's memory, which would otherwise grow
    with the run's length — census flows and long benchmark runs turn it
    off.

    [table] places the flow's hot state in a shared {!Table} (one fresh
    private row is allocated otherwise — equivalent, just less compact
    for large populations).  [size_bytes] bounds the data the flow
    sends; [on_complete] fires once when a sized flow completes.  The
    flow does not retransmit, so "complete" means every segment was
    acked or declared lost. *)

val respawn : t -> cca:Cca.t -> start_time:float -> ?size_bytes:int -> unit -> unit
(** Reincarnate a {!completed} sized flow as a new flow in place: same
    id, table row, outstanding rings and event handles, new CCA, start
    time and byte budget.  Counters, the RTT estimator and completion
    state are reset exactly as {!create} initializes them, and the start
    event is re-armed, so the observable event sequence is identical to
    destroying the flow and creating a fresh one — but nothing is
    allocated.  This is what lets a census run one million flows through
    a few thousand flow slots.  Only legal on flows created with
    [record_series = false] (traces would silently concatenate
    incarnations).
    @raise Invalid_argument if the flow has not completed or records
    traces. *)

val id : t -> int
val cca : t -> Cca.t
val mss : t -> int

val receive_ack : t -> Packet.delivery list -> unit
(** Deliver a batch of ACKed packets (oldest first) at the current
    simulation time.  A batch of size > 1 models a coalesced delayed ACK:
    the CCA sees a single [on_ack] whose [acked_bytes] covers the batch and
    whose RTT is sampled from the newest packet. *)

val receive_ack_one : t -> Packet.t -> unit
(** ACK a single packet at the current simulation time.  Behaviorally
    identical to [receive_ack t [ { packet; delivered_at } ]] (the
    delivery time is not consulted) but allocation-free — the hot path for
    immediate-ACK flows. *)

val sent_bytes : t -> int
(** Cumulative bytes handed to the transmit callback (every segment is
    mss-sized, so this is [mss * packets sent]).  Anchors the end-to-end
    conservation oracle: sent = delivered downstream + dropped along the
    path + still in flight. *)

val delivered_bytes : t -> int
(** Cumulative bytes acknowledged. *)

val lost_bytes : t -> int
val inflight : t -> int

val outstanding_bytes : t -> int
(** Bytes in the retransmission bookkeeping table.  Always equals
    {!inflight}; the invariant monitor cross-checks the two. *)

val degraded_count : t -> int
(** How often an insane CCA output (NaN or negative cwnd / pacing rate)
    was clamped instead of corrupting the run. *)

val stall_probes : t -> int
(** Probe segments forced out after a full RTO passed with nothing
    outstanding and the CCA's gates still refusing to send — the
    graceful-degradation path that recovers a flow from a collapsed
    window (e.g. after a link blackout ate every ACK). *)

val completed : t -> bool
(** Whether a sized flow has finished (always [false] when unbounded). *)

val completion_time : t -> float option
(** Simulation time the flow completed at, once {!completed}. *)

val throughput : t -> t0:float -> t1:float -> float
(** Mean delivery rate (bytes/s) over the interval, from the cumulative
    delivered-bytes trace. *)

val goodput : t -> horizon:float -> float
(** Delivered bytes per second over the flow's own active lifetime —
    from its start time to its completion, or to [horizon] while
    incomplete.  Needs no recorded series, so census populations can run
    with [record_series = false]. *)

val rtt_series : t -> Series.t
(** (ack time, RTT sample). *)

val cwnd_series : t -> Series.t
(** (ack time, cwnd bytes). *)

val delivered_series : t -> Series.t
(** (ack time, cumulative delivered bytes). *)

val rate_series : t -> window:float -> Series.t
(** Delivery rate (bytes/s) computed over trailing windows of the delivered
    trace — the "sending rate" series plotted in the paper's figures. *)

val fold_state : Buffer.t -> t -> unit
(** Append the flow's transport state (counters, RTT estimator, live
    outstanding window keyed by sequence number, recorded series) to a
    {!Statebuf} encoding — part of {!Network.state_hash}.  The encoding
    is independent of the outstanding ring's capacity, so it is stable
    across ring growth. *)

(** Full network assembly: n flows sharing one bottleneck (§3 model).

    Data path:  sender → (per-flow random loss) → shared FIFO bottleneck →
    propagation delay → receiver.
    ACK path:   receiver → per-flow ACK policy (immediate / delayed /
    aggregated) → per-flow non-congestive delay element ({!Jitter}) → sender.

    The resulting RTT is [queueing + transmission + Rm + jitter], matching
    the paper's decomposition in §2.1.

    Each flow lives in a {e slot} of a growable table: its {!Flow.t},
    jitter element, loss stream, ACK delay line and counters.  Flows with
    the same propagation delay share one post-bottleneck delay line.
    Besides the configured flows, sized flows can join a built network
    while it runs ({!spawn}); a completed spawned flow's slot is recycled
    for a later one, so a churning population needs as many slots as it
    has flows at once (the census of {!Population}). *)

(** Receiver-side acknowledgment generation. *)
type ack_policy =
  | Immediate
  | Delayed of { count : int; timeout : float }
      (** coalesce up to [count] deliveries or wait at most [timeout] — the
          delayed-ACK jitter source of Figure 7 *)
  | Aggregate of { period : float }
      (** ACKs leave the receiver only at integer multiples of [period] —
          the ACK-aggregation source of the PCC Vivace experiment (§5.3) *)

type flow_spec = {
  cca : Cca.t;
  start_time : float;
  extra_rm : float;  (** added to the base [rm], for unequal-RTT scenarios *)
  jitter : Jitter.policy;
  jitter_bound : float;  (** the model's D for this flow's path *)
  ack_policy : ack_policy;
  loss_rate : float;  (** i.i.d. drop probability on the data path *)
  mss : int;
  initial_pacing : float option;
      (** pace sends at this rate until the first ACK (see {!Flow.create}) *)
  record_series : bool;
      (** record the per-ACK RTT / cwnd / delivered traces (see
          {!Flow.create}); defaults to [true] *)
  size_bytes : int option;
      (** finite flow size: stop producing segments after this many bytes
          and complete when the last one is acked or lost (see
          {!Flow.create}); [None] (the default) is the unbounded stream *)
}

val flow : ?start_time:float -> ?extra_rm:float ->
  ?jitter:Jitter.policy -> ?jitter_bound:float -> ?ack_policy:ack_policy ->
  ?loss_rate:float -> ?mss:int -> ?initial_pacing:float ->
  ?record_series:bool -> ?size_bytes:int -> Cca.t -> flow_spec
(** Spec with defaults: starts at 0, no extra delay, no jitter (bound
    [infinity]), immediate ACKs, no random loss, 1500-byte MSS,
    unbounded size.
    @raise Invalid_argument naming the field on a non-finite [start_time],
    [extra_rm] not finite and >= 0, negative or NaN [jitter_bound],
    [loss_rate] outside [\[0, 1)], [mss] <= 0, [initial_pacing] not
    finite and positive, [size_bytes] <= 0, or a malformed [ack_policy]
    ([Delayed] count < 1 or timeout <= 0, [Aggregate] period <= 0).
    NaN fails every check. *)

type config = {
  rate : Link.rate;
  buffer : int option;  (** bottleneck buffer, bytes; [None] = unbounded *)
  ecn_threshold : int option;
      (** queue depth (bytes) above which arriving packets are CE-marked
          (sec. 6.4 explicit signaling); [None] disables ECN *)
  discipline : Link.discipline;
      (** queue scheduling: shared FIFO (the §3 model) or DRR per-flow
          isolation (the conclusion's "stronger isolation") *)
  rm : float;  (** base minimum propagation RTT, seconds *)
  flows : flow_spec list;
  t0 : float;  (** simulation start time; a flow whose [start_time] is
                   earlier than [t0] starts at [t0] *)
  duration : float;  (** horizon is [t0 + duration] *)
  seed : int;
  record_queue : bool;
  initial_queue_bytes : int;
      (** bytes of phantom traffic pre-loaded into the bottleneck at [t0] —
          sets the initial queueing delay d*(t0) that the Theorem 1
          construction chooses *)
  faults : Fault.plan;
      (** fault schedule: blackouts and rate steps compile into the link's
          service rate, buffer resizes become scheduled events, bursty loss
          and ACK blackholes hook the data / return paths (see {!Fault}) *)
  monitor_period : float option;
      (** audit the runtime invariants ({!invariant}) at this period;
          [None] (the default) disables the monitor *)
}

val config :
  rate:Link.rate -> ?buffer:int -> ?ecn_threshold:int ->
  ?discipline:Link.discipline -> rm:float -> ?seed:int -> ?record_queue:bool ->
  ?initial_queue_bytes:int -> ?t0:float -> ?faults:Fault.plan ->
  ?monitor_period:float -> duration:float -> flow_spec list -> config
(** @raise Invalid_argument naming the field on an empty flow list, a
    [Constant] rate that is not finite and positive ([Piecewise] rates
    may be 0), a negative [buffer] or [ecn_threshold], [duration] not
    finite and positive, [rm] not finite and >= 0, a non-finite [t0],
    negative [initial_queue_bytes], a non-positive [monitor_period], or
    any flow failing the checks of {!flow}.  NaN fails every check. *)

type t

val build : config -> t
(** Assemble the network without running it. *)

val run : t -> t
(** Run to [duration] and run the closing audit; returns the handle to
    read results from (the argument itself). *)

val run_config : config -> t
(** [build |> run]. *)

val run_to : t -> float -> unit
(** Advance the simulation to [min time horizon] without finalizing:
    the closing audit does not run and the network can be advanced
    further afterwards.  {!Population} runs the census with it.
    @raise Invalid_argument if [time] is NaN. *)

val now : t -> float
(** Current simulation time. *)

val config_of : t -> config

(** {2 Flow churn} *)

val spawn :
  t ->
  cca:(slot:int -> prev:Cca.instance option -> Cca.instance) ->
  jitter:Jitter.t ->
  mss:int ->
  size_bytes:int ->
  on_complete:(Flow.t -> unit) ->
  Flow.t
(** Add a sized flow that starts now: immediate ACKs, no random loss,
    propagation delay [rm], no recorded traces, [jitter] on its ACK
    path.  It takes a free slot if there is one and a new slot
    otherwise, through the same path {!build} adds the configured flows
    by; its {!Flow.id} is the slot.  [cca ~slot ~prev] supplies the
    controller: [prev] is the slot's previous instance when the slot is
    recycled, and a factory may reset and return it; returning a
    different instance releases the old one.

    [on_complete] is called once, when the flow completes.  The slot is
    free again once every packet the link admitted for the flow has
    been acked, so no packet of one incarnation reaches the next; the
    flow is then reincarnated in place by {!Flow.respawn}.  A packet
    leaves that count before the flow sees its ACK.  The slot's
    counters ({!received_bytes}, the link's per-flow bytes) add up over
    its incarnations.
    @raise Invalid_argument on a network with faults or a monitor, a
    non-positive [mss] or [size_bytes], or an [mss] other than the
    recycled slot's. *)

val state_hash : t -> string
(** Hex MD5 of the network's [Marshal] image (with closures): everything
    reachable from [t], CCA state and event actions included.  Two runs
    of the same configuration that have processed the same events hash
    identically; the fuzzer's determinism oracle compares two runs by
    it.  The image holds code pointers, so a hash is comparable only
    with one taken by the same binary.
    @raise Invalid_argument if a closure in the network captures a
    channel or another value [Marshal] cannot write. *)

val event_queue : t -> Event_queue.t
val link : t -> Link.t
val flows : t -> Flow.t array
(** Every slot's flow, indexed by slot (the configured flows first, in
    config order).  A fresh array per call, as are the other per-flow
    arrays below. *)

val jitters : t -> Jitter.t array
val random_losses : t -> int array
(** Packets dropped by the random-loss element, per flow. *)

val received_bytes : t -> int array
(** Bytes actually delivered to each flow's receiver (post-bottleneck,
    post-propagation) — the far end of the data path's conservation
    chain: sent = pre-link drops + link drops + in link + propagating +
    received.  A fresh copy per call. *)

val propagating_bytes : t -> int array
(** Bytes per flow currently in post-bottleneck propagation (out of the
    link, not yet at the receiver), counted per flow on the delay line
    it shares with every flow of the same propagation delay. *)

val phantom_flow_id : int
(** Flow id ([-1]) carried by the phantom packets that pre-load the
    bottleneck ([initial_queue_bytes]) — the id under which the link's
    per-flow byte counters account for that traffic. *)

val delay_line_fallbacks : t -> int
(** Total packets across all delay lines (each shared data propagation
    line once, and every ACK return path) that arrived with a non-monotone due time and fell
    back to a standalone per-packet event.  Expected to be 0 for every
    built-in jitter policy; a nonzero value means a [Controller] (or
    future policy) broke monotonicity and the simulator quietly paid
    the per-packet cost for those packets — results stay correct. *)

val invariant : t -> Invariant.t option
(** The runtime invariant monitor; [None] unless [monitor_period] was
    given.  Checks run: event-clock monotonicity, link byte conservation
    (offered = delivered + dropped + queued; the phantom initial-queue
    bytes enter through [offered] like any other traffic), queue occupancy
    against the (possibly resized) buffer, jitter-bound compliance
    (promotes {!Jitter.violations} to a reported check), per-flow
    inflight accounting, CCA-output sanity, and the per-flow data-path
    conservation chain: sender-to-link ("flow-conservation": sent =
    pre-link drops + offered), end-to-end ("path-conservation": sent =
    pre-link drops + link drops + in link + propagating + received) and
    per-flow-slices-tile-the-aggregates ("link-flow-conservation").
    All byte identities are exact, not approximate — any slack is an
    accounting bug. *)

val fault_data_drops : t -> int array
(** Data packets consumed by the fault layer's bursty loss, per flow
    (all zeros when the config carries no faults). *)

val fault_ack_drops : t -> int array
(** ACK batches blackholed by the fault layer, per flow. *)

val throughput : t -> flow:int -> t0:float -> t1:float -> float
(** Bytes/s acknowledged by the given flow over the interval. *)

val throughputs : t -> ?warmup_frac:float -> unit -> float array
(** Per-flow throughput over [warmup_frac * duration, duration].
    Default warmup fraction 0.25. *)

val goodputs : t -> float array
(** Per-flow {!Flow.goodput} over each flow's own active lifetime (start
    to completion, or to the horizon while incomplete).  The per-flow
    rate measure for churning populations of sized flows, where a shared
    measurement window would misrepresent flows that lived outside it. *)

val utilization : t -> ?warmup_frac:float -> unit -> float
(** Sum of flow throughputs over the mean link rate in the same window. *)

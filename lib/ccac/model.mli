(** The CCAC-style discretized network model, extended to two flows as in
    Appendix C, and the per-RTT CCA laws it searches over.

    Time advances in steps of one Rm.  The model tracks per-flow cumulative
    arrivals A_i and service S_i (bytes).  Each step the adversary picks:

    - whether the link wastes its spare capacity (CCAC's waste variable —
      only available when the queue is empty, so a backlogged link must
      serve at full rate);
    - how the served bytes split between the flows, within the Appendix C
      FIFO relaxation [S_i(t) > A_i(t - d_t)]: a flow must receive at
      least the bytes it had already enqueued one queueing-delay ago, but
      between that floor and its full backlog the split is adversarial
      (modeling burst interleaving at the queue);
    - each flow's non-congestive delay from {0, D/2, D} (the §3 element).

    The CCA under test is one of the {!fluid} laws that the fluid backend
    in [lib/fluid] runs, so the bounded search and that backend cannot
    drift apart. *)

(** {1 Per-RTT CCA laws}

    One set of laws serves both callers.  The fluid engines in
    [lib/fluid] own the clock: they track each flow's observed delay
    (propagation + queueing + jitter) and running minimum, group feedback
    into one-RTT epochs, and call [f_update] once per epoch with that
    running minimum as [min_delay] — jitter can poison it, which is what
    the starvation threshold measures.  The CCAC model below calls
    [f_update] once per step with the true Rm as [min_delay], an oracle
    that only makes the model {e harder} to break, so found violations
    are conservative.  State is a plain float array so the engines can
    keep millions of flows in flat storage. *)

type fluid = {
  f_name : string;
  f_nstate : int;  (** length of the per-flow state vector *)
  f_init : mss:float -> float array;  (** fresh state for one flow *)
  f_update :
    float array ->
    mss:float ->
    delay:float ->
    min_delay:float ->
    acked:float ->
    lost:bool ->
    unit;
      (** advance one RTT epoch in place: [delay] is the epoch's
          observed RTT, [min_delay] the base-RTT estimate, [acked] the
          bytes delivered during the epoch, [lost] whether the flow
          saw drops this epoch. *)
  f_cwnd : float array -> float;  (** current window, bytes *)
  f_warm : float array -> cwnd:float -> unit;
      (** seed the state from an externally observed window (bytes) —
          the hybrid backend's packet->fluid translation, and the CCAC
          model's start.  Exits slow start. *)
}

val reno_fluid : fluid
(** Slow-start doubling until first loss, then +1 mss per RTT; halve
    on a lossy epoch.  Delay-blind. *)

val vegas_fluid : ?alpha:float -> ?beta:float -> unit -> fluid
(** Slow-start until perceived queue > 1 packet, then AIAD
    toward the [alpha]..[beta] corridor (defaults 2..4, matching the
    packet-level [Cca.Vegas] defaults). *)

val copa_fluid : unit -> fluid
(** Velocity-1 Copa with delta = 0.5: move cwnd by mss/delta per RTT
    toward the target rate 1/(delta * dq) packets/s.  Single-flow
    equilibrium queueing delay is mss/(delta*C), matching
    [Cca.Copa.equilibrium_queue_delay]. *)

val fluid_of_name : string -> fluid
(** "reno" | "vegas" | "copa" (case-insensitive) with default
    parameters; raises [Invalid_argument] otherwise. *)

(** {1 The two-flow model} *)

(** Adversary move for one step. *)
type choice = {
  waste : bool;  (** waste spare capacity this step (queue must be empty) *)
  split_bias : [ `Fifo | `Favor_1 | `Favor_2 ];
  jitter_1 : float;
  jitter_2 : float;
}

type state = {
  cca1 : float array;  (** flow 1's law state; never mutated once built *)
  cca2 : float array;
  arrived1 : float;  (** cumulative bytes *)
  arrived2 : float;
  served1 : float;  (** physical cumulative service *)
  served2 : float;
  counted1 : float;  (** post-warmup service — what the metrics use *)
  counted2 : float;
  served1_lag : float;  (** A_1 one queueing-delay ago: the FIFO floor *)
  served2_lag : float;
  steps : int;
}

val system :
  law:fluid ->
  mss:float ->
  link_rate:float ->
  rm:float ->
  big_d:float ->
  buffer:float ->
  warmup:int ->
  score:(state -> float) ->
  (state, choice) Search.system
(** Build a searchable system in which both flows run [law].  Each flow
    starts from [f_init], warm-started with [f_warm] at that window (the
    model has no slow start), and sends at [f_cwnd s /. rm].  Each step
    copies a flow's state and applies one [f_update] with the observed
    (jittered) delay, [~min_delay:rm], the bytes served and whether the
    flow physically lost packets to a buffer overflow.  Loss is physical
    — jitter cannot fake it, which is exactly why loss-based CCAs resist
    the delay adversary (§5.4).  [buffer] (bytes; pass [infinity] for
    the unbounded ideal queue) bounds the physical queue; arrivals
    beyond it are dropped.  [score] is evaluated on final states;
    service is only credited to the metrics after [warmup] steps
    (throughput is an eventual property). *)

val ratio : float -> float -> float
(** [ratio x1 x2] is the larger of [x2 /. x1] and [x1 /. x2] for two
    cumulative services: [infinity] when exactly one is zero (starvation),
    1 when both are.  The unfairness metric of every CCAC check. *)

val unfairness : state -> float
(** [ratio] of the counted (post-warmup) services. *)

val utilization : link_rate:float -> rm:float -> warmup:int -> state -> float

val max_unfairness :
  law:fluid ->
  mss:float ->
  link_rate:float ->
  rm:float ->
  big_d:float ->
  ?buffer:float ->
  horizon:int ->
  ?beam_width:int ->
  unit ->
  float * choice list
(** Beam-search the adversary's best unfairness over [horizon] steps.
    @raise Invalid_argument naming the parameter unless [mss],
    [link_rate] and [rm] are finite and positive, [big_d] and [buffer]
    are >= 0 ([infinity] is legal for both), [horizon] is >= 0 and
    [beam_width] is >= 1.  NaN fails every check. *)

val min_utilization :
  law:fluid ->
  mss:float ->
  link_rate:float ->
  rm:float ->
  big_d:float ->
  ?buffer:float ->
  horizon:int ->
  ?beam_width:int ->
  unit ->
  float
(** Beam-search the adversary's best under-utilization (single metric).
    @raise Invalid_argument as {!max_unfairness}. *)

(** The CCAC-style discretized network model, extended to two flows as in
    Appendix C.

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

    The CCA under test is supplied as a pure update function so states can
    be shared across search branches.  Two reference models are included:
    a Vegas-style AIAD-on-delay and a plain AIMD. *)

type 's cca = {
  name : string;
  init : 's;
  update : 's -> delay:float -> acked:float -> lost:bool -> 's;
      (** one Rm's worth of feedback: observed (jitterable) RTT, bytes
          delivered, and whether the flow physically lost packets to a
          buffer overflow this step.  Loss is physical — jitter cannot
          fake it, which is exactly why loss-based CCAs resist the delay
          adversary (§5.4). *)
  rate : 's -> float;  (** current sending rate, bytes/s *)
}

val vegas_model : rm:float -> mss:float -> alpha:float -> float cca
(** AIAD toward [alpha] packets of perceived queueing (state = cwnd bytes).
    The perceived base RTT is the true [rm] — an oracle that only makes
    the model *harder* to break, so found violations are conservative. *)

val aimd_model : rm:float -> mss:float -> float cca
(** +1 packet per Rm, halve on physical loss.  State = cwnd bytes.
    Delay-blind, so the jitter adversary cannot touch it directly. *)

(** {1 Fluid per-RTT update laws}

    These seed the discretised fluid backend in [lib/fluid].  The
    engine owns the clock: it tracks each flow's observed delay
    (propagation + queueing + jitter) and running minimum, groups
    feedback into one-RTT epochs, and calls [f_update] once per epoch.
    State is a plain float array so the engine can keep millions of
    flows in flat storage.  Unlike [vegas_model] above, the base-RTT
    estimate is the running min of observed delays — jitter can poison
    it, which is what the starvation threshold measures. *)

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
          observed RTT, [min_delay] the running minimum, [acked] the
          bytes delivered during the epoch, [lost] whether the flow
          saw drops this epoch. *)
  f_cwnd : float array -> float;  (** current window, bytes *)
  f_warm : float array -> cwnd:float -> unit;
      (** seed the state from an externally observed window (bytes) —
          the hybrid backend's packet->fluid translation.  Exits slow
          start. *)
}

val reno_fluid : fluid
(** Slow-start doubling until first loss, then +1 mss per RTT; halve
    on a lossy epoch.  Delay-blind. *)

val vegas_fluid : ?alpha:float -> ?beta:float -> ?gamma:float -> unit -> fluid
(** Slow-start until perceived queue > [gamma] packets, then AIAD
    toward the [alpha]..[beta] corridor (defaults 2..4, matching the
    packet-level [Cca.Vegas] defaults). *)

val copa_fluid : ?delta:float -> unit -> fluid
(** Velocity-1 Copa: move cwnd by mss/delta per RTT toward the target
    rate 1/(delta * dq) packets/s.  Single-flow equilibrium queueing
    delay is mss/(delta*C), matching [Cca.Copa.equilibrium_queue_delay]. *)

val fluid_of_name : string -> fluid
(** "reno" | "vegas" | "copa" (case-insensitive) with default
    parameters; raises [Invalid_argument] otherwise. *)

(** Adversary move for one step. *)
type choice = {
  waste : bool;  (** waste spare capacity this step (queue must be empty) *)
  split_bias : [ `Fifo | `Favor_1 | `Favor_2 ];
  jitter_1 : float;
  jitter_2 : float;
}

type 's state = {
  cca1 : 's;
  cca2 : 's;
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
  cca:'s cca ->
  link_rate:float ->
  rm:float ->
  big_d:float ->
  buffer:float ->
  warmup:int ->
  score:('s state -> float) ->
  ('s state, choice) Search.system
(** Build a searchable system.  [buffer] (bytes; pass [infinity] for the
    unbounded ideal queue) bounds the physical queue; arrivals beyond it
    are dropped and reported to the CCA as loss.  [score] is evaluated on
    final states; service is only credited to the metrics after [warmup]
    steps (throughput is an eventual property). *)

val unfairness : 's state -> float
(** max ratio of the counted (post-warmup) services, with infinity for
    starvation. *)

val utilization : link_rate:float -> rm:float -> warmup:int -> 's state -> float

val max_unfairness :
  cca:'s cca ->
  link_rate:float ->
  rm:float ->
  big_d:float ->
  ?buffer:float ->
  horizon:int ->
  ?beam_width:int ->
  unit ->
  float * choice list
(** Beam-search the adversary's best unfairness over [horizon] steps.
    @raise Invalid_argument naming the parameter unless [link_rate] and
    [rm] are finite and positive, [big_d] and [buffer] are >= 0
    ([infinity] is legal for both), [horizon] is >= 0 and [beam_width]
    is >= 1.  NaN fails every check. *)

val min_utilization :
  cca:'s cca ->
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

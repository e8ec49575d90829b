(** Copa (Arun & Balakrishnan, NSDI 2018), default mode.

    Copa targets the sending rate [1 / (delta * dq)] packets/s, where [dq]
    is the queueing delay estimated as [standing RTT - min RTT]: the
    standing RTT is the minimum over a recent half-RTT window, the min RTT
    the minimum over a long window.  The window moves toward the target by
    [velocity / (delta * cwnd)] packets per ACK, with the velocity doubling
    after three consecutive RTTs moving in one direction.

    Equilibrium queueing delay for a single flow on rate [C] is
    [mss / (delta * C)] seconds, oscillating over a band of roughly
    [4 * mss / C] — the paper's "[4 alpha / C] for Copa" (§2.2).

    The long-window min-RTT estimate is the state the §5.1 experiment
    poisons: one packet with an RTT 1 ms below the true propagation delay
    makes Copa perceive a phantom standing queue forever (within the
    window), collapsing its rate. *)

type params = {
  delta : float;  (** packets of queueing "price" (default 0.5) *)
  min_rtt_window : float;  (** seconds of memory for the min filter (default 100) *)
  init_cwnd_packets : float;
  mss : int;
}

val default_params : params
val make : ?params:params -> unit -> Cca.t
(** A one-row {!make_in}: the instance gets an arena of its own.
    @raise Invalid_argument naming the field unless [delta] and
    [init_cwnd_packets] are finite and positive and [mss] is positive
    (NaN fails every check), or if {!Window.Extremum} rejects
    [min_rtt_window] (NaN or negative; 0 is legal).  {!make_in} applies
    the same checks. *)

val nfields : int
(** Float cells per instance in the columnar layout. *)

val make_in : ?params:params -> Columns.t -> Cca.instance
(** The one implementation: the float state in one arena row ({!nfields}
    fields).  Copa is partially columnar — the two windowed-minimum
    deques stay boxed per instance and are cleared on reset/release, and
    their pushes are what [on_ack] allocates.  qcheck properties check
    it bit for bit against a boxed reference implementation kept in the
    test suite. *)

val equilibrium_queue_delay : params -> rate:float -> float
(** [mss / (delta * C)] seconds. *)

val delay_band : params -> rate:float -> rm:float -> float * float
(** Analytic (d_min, d_max) after convergence on an ideal path — the Copa
    panel of Figure 3. *)

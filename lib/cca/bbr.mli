(** BBR v1 (Cardwell et al., ACM Queue 2016), as analyzed in §5.2.

    The sender estimates the bottleneck bandwidth as a windowed maximum of
    delivery-rate samples (10 rounds) and the propagation RTT as a windowed
    minimum (10 s).  Pacing follows an 8-phase gain cycle
    [1.25, 0.75, 1, 1, 1, 1, 1, 1]; a congestion window of
    [cwnd_gain * BDP + quanta] caps in-flight data.

    The [quanta] term is the "+alpha" the paper credits with forcing a
    unique fair fixed point in cwnd-limited mode; [enable_quanta:false]
    removes it to reproduce the paper's ablation (any split of 2*BDP then
    becomes a fixed point, so a saturated incumbent starves a newcomer).

    The paper's two modes arise naturally: with smooth ACKs, the flow is
    pacing-limited (delay in [Rm, 1.25 Rm]); with ACK jitter, the max
    filter overestimates bandwidth and the cwnd cap takes over
    (equilibrium rate [quanta / (RTT - 2 Rm)], Figure 3). *)

type params = {
  quanta_packets : float;  (** the +alpha term, packets (default 3) *)
  enable_quanta : bool;  (** ablation switch (default true) *)
  cwnd_gain : float;  (** default 2 *)
  startup_gain : float;  (** default 2.89 *)
  bw_window_rounds : float;  (** max-filter window, rounds (default 10) *)
  min_rtt_window : float;  (** min-filter window, seconds (default 10) *)
  probe_rtt_duration : float;  (** default 0.2 s *)
  probe_rtt_cwnd_packets : float;  (** default 4 *)
  init_cwnd_packets : float;
  seed : int;  (** randomizes the initial ProbeBW phase *)
  mss : int;
}

val default_params : params
val make : ?params:params -> unit -> Cca.t
(** @raise Invalid_argument naming the field unless [quanta_packets] is
    finite and >= 0; [cwnd_gain], [startup_gain] and
    [probe_rtt_cwnd_packets] are finite and positive; [bw_window_rounds]
    and [min_rtt_window] are >= 0 ([infinity] is legal);
    [probe_rtt_duration] is finite and >= 0; [init_cwnd_packets] is
    finite and positive and [mss] is positive.  NaN fails every check. *)

val equilibrium_rate_cwnd_limited : params -> rtt:float -> rm:float -> float
(** §5.2: [alpha / (RTT - 2 Rm)] bytes/s — the cwnd-limited rate-delay map. *)

val equilibrium_rtt_cwnd_limited : params -> rate:float -> rm:float -> n_flows:int -> float
(** §5.2: RTT = [2 Rm + n alpha / C] at the n-flow fixed point. *)

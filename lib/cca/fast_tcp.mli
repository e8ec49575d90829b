(** FAST TCP (Wei, Jin, Low, Hegde, ToN 2006).

    Once per RTT the window moves toward the fixed point that keeps [alpha]
    packets queued:
    [w <- min (2w, (1-gamma) w + gamma (base_rtt / rtt * w + alpha))].
    Same equilibrium family as Vegas (delta(C) = 0, queue of [alpha]
    packets) but with multiplicative convergence, which makes it practical
    at large bandwidth-delay products. *)

type params = {
  alpha_packets : float;  (** queued packets at equilibrium (default 10) *)
  gamma : float;  (** smoothing step in (0,1] (default 0.5) *)
  init_cwnd_packets : float;
  mss : int;
}

val default_params : params
val make : ?params:params -> unit -> Cca.t
(** @raise Invalid_argument naming the field unless [alpha_packets] is
    finite and >= 0, [gamma] is in (0, 1], [init_cwnd_packets] is finite
    and positive and [mss] is positive.  NaN fails every check. *)

val equilibrium_rtt : params -> rate:float -> rm:float -> float
(** [Rm + alpha * mss / C] — the Figure 3 (left) line. *)

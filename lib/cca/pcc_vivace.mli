(** PCC Vivace (Dong et al., NSDI 2018): online-learning rate control.

    Time is split into monitor intervals (MIs) of one smoothed RTT.  The
    sender runs probe pairs — one MI at [rate * (1 + eps)] and one at
    [rate * (1 - eps)], in random order — and evaluates each with the
    Vivace utility

    [u(x) = x^0.9 - b * x * max(0, dRTT/dt) - c * x * L]

    (x in Mbit/s, RTT gradient from a least-squares fit over the MI's RTT
    samples, L the loss fraction).  The rate then moves along the utility
    gradient with confidence amplification and a per-step change bound.

    On an ideal link this converges to full utilization with (near) zero
    standing queue, probing delay between [Rm] and about [1.05 Rm] —
    [delta_max = Rm / 20] (Figure 3, right).  The §5.3 experiment defeats
    it by quantizing one flow's ACK clock so that flow's RTT gradient and
    throughput measurements are garbage at sub-quantum resolution. *)

type params = {
  eps : float;  (** probe amplitude (default 0.05) *)
  throughput_exponent : float;  (** default 0.9 *)
  latency_coeff : float;  (** b (default 900) *)
  loss_coeff : float;  (** c (default 11.35) *)
  theta0 : float;  (** base gradient step, Mbit/s per utility unit (default 1) *)
  omega : float;  (** max relative rate change per decision (default 0.05) *)
  init_rate : float;  (** bytes/s (default 1 Mbit/s) *)
  min_rate : float;  (** bytes/s floor (default 64 kbit/s) *)
  seed : int;
  mss : int;
}

val default_params : params
val make : ?params:params -> unit -> Cca.t
(** @raise Invalid_argument naming the field unless [eps] is in (0, 1);
    [throughput_exponent], [theta0], [omega], [init_rate] and [min_rate]
    are finite and positive; [latency_coeff] and [loss_coeff] are finite
    and >= 0 and [mss] is positive.  NaN fails every check. *)

val utility :
  params -> rate_mbps:float -> rtt_gradient:float -> loss:float -> float
(** The Vivace utility function, exposed for tests and analysis. *)

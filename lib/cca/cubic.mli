(** CUBIC (Ha, Rhee, Xu, 2008).

    After a loss the window is cut to [beta * w_max] and then grows along
    [w(t) = c (t - k)^3 + w_max] (in packets, t in seconds since the loss),
    where [k = cbrt (w_max (1 - beta) / c)].  A TCP-friendly lower bound
    keeps CUBIC at least as aggressive as Reno at small
    bandwidth-delay products.  Loss events within one RTT coalesce, as in
    {!Reno}. *)

type params = {
  c : float;  (** cubic scaling constant, packets/s^3 (default 0.4) *)
  beta : float;  (** multiplicative decrease (default 0.7) *)
  init_cwnd_packets : float;
  mss : int;
}

val default_params : params
val make : ?params:params -> unit -> Cca.t
(** @raise Invalid_argument naming the field unless [c] is finite and
    positive, [beta] is in (0, 1), [init_cwnd_packets] is finite and
    positive and [mss] is positive.  NaN fails every check. *)

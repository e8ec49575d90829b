(** LEDBAT (RFC 6817), the min-filter delay CCA the paper cites in §2.2.

    LEDBAT targets a fixed queueing delay [target]: each RTT it nudges the
    window by [gain * (target - queueing_delay) / target] segments, where
    the queueing delay is the current one-way-delay estimate minus a base
    delay tracked as a minimum over a long history.  Loss halves the
    window.

    On an ideal path it converges to [target] of standing queue, so its
    rate-delay map is the horizontal line [Rm + target + mss/C]:
    delta(C) -> 0 and the delay band does not shrink with C.  Because the
    base-delay minimum is poisoned exactly like Copa's (§5.1), the same
    1 ms trick collapses it — another delay-convergent victim of
    Theorem 1's mechanism. *)

type params = {
  target : float;  (** queueing-delay target, seconds (RFC: 100 ms;
                       default here 25 ms, a modern choice) *)
  gain : float;  (** default 1 *)
  base_history : float;  (** base-delay memory, seconds (default 100) *)
  init_cwnd_packets : float;
  mss : int;
}

val default_params : params
val make : ?params:params -> unit -> Cca.t
(** @raise Invalid_argument naming the field unless [target] and [gain]
    are finite and positive, [base_history] is >= 0 ([infinity] is
    legal), [init_cwnd_packets] is finite and positive and [mss] is
    positive.  NaN fails every check. *)

val equilibrium_rtt : params -> rate:float -> rm:float -> float
(** [Rm + target + mss/C]. *)

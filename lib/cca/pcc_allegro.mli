(** PCC Allegro (Dong et al., NSDI 2015): loss-threshold utility with
    randomized controlled trials.

    Utility: [u(x) = x * (1 - L) * sigmoid(alpha (L - 0.05)) - x * L]
    (x in Mbit/s, L the loss fraction, sigmoid(y) = 1/(1+e^y), alpha=100).
    Below 5% loss the utility grows with rate, so Allegro pushes to full
    utilization regardless of random loss under the threshold; above it the
    utility collapses.

    Control loop: in the decision state the sender runs four monitor
    intervals — two at [rate (1+eps)] and two at [rate (1-eps)] in random
    order.  Only a consistent verdict (both high-rate MIs beat both
    low-rate MIs, or vice versa) moves the rate; otherwise [eps] grows and
    the trial repeats.  A won trial enters the rate-adjusting state, moving
    in the winning direction with growing steps until utility drops.

    §5.4: the space of loss rates is much smaller than the space of rates,
    so when one of two flows sees even a small extra random loss it
    converges to a far lower rate — starvation, same shape as BBR's. *)

type params = {
  alpha : float;
      (** sigmoid steepness (default 50; the literature's 100 makes the
          cliff so sharp that per-MI binomial loss noise dominates the
          randomized trials at sub-second monitor intervals) *)
  loss_threshold : float;  (** default 0.05 *)
  eps0 : float;  (** initial probe amplitude (default 0.01) *)
  eps_max : float;  (** default 0.05 *)
  init_rate : float;  (** bytes/s *)
  min_rate : float;
  seed : int;
  mss : int;
}

val default_params : params
val make : ?params:params -> unit -> Cca.t
(** @raise Invalid_argument naming the field unless [alpha] is finite
    and positive, [loss_threshold] is in \[0, 1\], [eps0] is in (0, 1),
    [eps_max] is in \[eps0, 1), [init_rate] and [min_rate] are finite and
    positive and [mss] is positive.  NaN fails every check. *)

val utility : params -> rate_mbps:float -> loss:float -> float

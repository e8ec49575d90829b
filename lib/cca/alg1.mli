(** Algorithm 1 from §6.3 of the paper: a delay-convergent CCA whose
    rate-delay curve spaces rates more than [s] apart onto delays more than
    [d_jitter] apart, bounding unfairness to [s] for rates in
    [mu_minus, mu_plus] despite measurement ambiguity up to [d_jitter].

    Every [rm] seconds:
    {v
      if mu < mu_minus * s ** ((rmax - (d - rm)) / d_jitter)
      then mu <- mu + a           (additive increase)
      else mu <- b * mu           (multiplicative decrease)
    v}
    where [d] is the latest measured RTT.  AIMD (not Vegas-style AIAD) is
    deliberate — the paper reports CCAC only verified fairness with MD —
    and the rate moves by the same amount each RTT regardless of ACK count.

    The algorithm assumes oracular knowledge of [rm], as the paper grants. *)

type params = {
  rm : float;  (** known propagation RTT, seconds *)
  rmax : float;  (** maximum tolerable queueing delay, seconds *)
  d_jitter : float;  (** designed-for non-congestive jitter bound D *)
  s : float;  (** tolerated unfairness ratio (> 1) *)
  mu_minus : float;  (** minimum supported rate, bytes/s *)
  a : float;  (** additive step, bytes/s per RTT *)
  b : float;  (** multiplicative decrease in (0,1) *)
  init_rate : float;  (** bytes/s *)
  mss : int;
}

val default_params : params
(** D = 10 ms, s = 2, rmax = 100 ms, rm = 50 ms — the paper's running
    example supporting a ~2^10 rate range. *)

val check_params : string -> params -> unit
(** [check_params fn p] raises [Invalid_argument] with the prefix
    ["fn: "] and the name of the first bad field unless [rm], [rmax],
    [d_jitter], [mu_minus], [a] and [init_rate] are finite and positive,
    [s] is finite and > 1, [b] is in (0, 1) and [mss] is positive.  NaN
    fails every check.  {!make} and [Ccac.Alg1_check.check] apply it. *)

val make : ?params:params -> unit -> Cca.t
(** @raise Invalid_argument as {!check_params}. *)

val target_rate : params -> d:float -> float
(** The rate-delay curve mu(d) = mu_minus * s^((rmax - (d - rm)) / D). *)

val mu_plus : params -> float
(** Maximum supported rate: mu(rm + D), per Theorem 2's full-utilization
    requirement of at least D of standing queue. *)

val rate_range : params -> float
(** Figure of merit mu+/mu- = s^((rmax - D) / D). *)

(** Bounded verification of Algorithm 1 (§6.3) against the jitter
    adversary, in the style of the paper's CCAC checks.

    One step = one Rm.  Two flows run Algorithm 1 on a shared link of rate
    C; the queue evolves as a fluid.  Each step, the adversary
    independently picks each flow's non-congestive delay from
    {0, D/2, D} — the discretized §3 delay element.  The check searches for
    traces that make the flows more than s-unfair, or that leave the link
    under f-utilized, with rates inside [mu-, mu+].

    The paper reports CCAC could not break Algorithm 1; this bounded
    search reproduces that (score stays under the target), and also shows
    that the same adversary *does* break a Vegas-style curve under the
    same D (by replacing the rate-delay function). *)

type curve = Exponential | Vegas_like
(** Which rate-delay threshold the CCA uses: Algorithm 1's exponential
    curve, or a Vegas-family curve [mu = alpha / (d - rm)] with the same
    operating range — the §6.3 comparison. *)

type dynamics = Aimd | Aiad
(** The increase/decrease rule around the threshold.  The paper reports
    that CCAC pushed the design from Vegas/Copa-style AIAD to AIMD because
    "the fairness properties of AIMD are critical in the presence of
    measurement ambiguity"; the [Aiad] variant reproduces that ablation. *)

type state = {
  mu1 : float;  (** flow rates, bytes/s *)
  mu2 : float;
  queue : float;  (** bottleneck backlog, bytes *)
  acked1 : float;
  acked2 : float;
  steps : int;
}

type verdict = {
  max_ratio : float;  (** worst throughput ratio found *)
  min_utilization : float;  (** worst utilization found (separate search) *)
  ratio_trace : (float * float) list;  (** adversary jitters on worst ratio trace *)
  horizon : int;
}

val check :
  params:Alg1.params ->
  link_rate:float ->
  curve:curve ->
  ?dynamics:dynamics ->
  horizon:int ->
  ?beam_width:int ->
  unit ->
  verdict
(** [dynamics] defaults to [Aimd] (the published Algorithm 1).
    @raise Invalid_argument naming the parameter if [params] fails
    {!Alg1.check_params}, unless [link_rate] is finite and positive,
    [horizon] is >= 0 and [beam_width] is >= 1.  NaN fails every check. *)

(** TCP Vegas (Brakmo et al., SIGCOMM 1994).

    Once per RTT, estimates the number of its own packets sitting in the
    bottleneck queue as [cwnd * (rtt - base_rtt) / rtt] and additively
    increases (below [alpha]) or decreases (above [beta]) the window by one
    segment, holding otherwise.  Equilibrium: between [alpha] and [beta]
    packets queued, i.e. the rate-delay map of Figure 3 (left) with
    delta(C) = 0.

    The [base_rtt] is the minimum RTT ever observed — the estimate the
    paper's §5.1 scenarios poison with one under-delayed packet. *)

type params = {
  alpha : float;  (** lower bound on queued packets (default 2) *)
  beta : float;  (** upper bound on queued packets (default 4) *)
  gamma : float;  (** slow-start exit threshold in queued packets (default 1) *)
  init_cwnd_packets : float;  (** default 4 *)
  mss : int;
}

val default_params : params

val make : ?params:params -> unit -> Cca.t
(** A one-row {!make_in}: the instance gets an arena of its own.
    @raise Invalid_argument naming the field unless [alpha] and [gamma]
    are finite and >= 0, [beta] is finite and >= [alpha],
    [init_cwnd_packets] is finite and positive and [mss] is positive.
    NaN fails every check; {!make_in} applies the same checks. *)

val nfields : int
(** Float cells per instance in the columnar layout. *)

val make_in : ?params:params -> Columns.t -> Cca.instance
(** The one implementation: all the float state (booleans as 0./1.
    cells, [base_rtt] starting at [infinity]) in one arena row of
    {!nfields} fields, so [on_ack] allocates nothing.  qcheck properties
    check it bit for bit against a boxed reference implementation kept
    in the test suite. *)

val equilibrium_rtt : params -> rate:float -> rm:float -> float
(** Analytic equilibrium RTT on an ideal path of the given rate: the §4.1
    formula [Rm + alpha_pkts * mss / C] (using the alpha/beta midpoint). *)

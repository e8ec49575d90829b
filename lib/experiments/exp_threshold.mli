(** E14 (extension): the starvation phase diagram.

    Theorem 1 says starvation becomes *constructible* once the jitter
    bound D exceeds 2 delta_max.  This experiment traces that boundary
    empirically with a fixed adversary: two Copa flows share a link, and
    flow 1's path gains a persistent +D of non-congestive delay after the
    flows have measured their floors (the E1/E11 jitter pattern).  Sweeping
    D from a fraction of delta_max to many multiples produces the phase
    plot: near-fair below the threshold, unfairness growing rapidly past
    it.

    Copa is used because its delta_max is analytically known:
    delta(C) = 4 mss / C (§2.2), so the sweep can be expressed in units of
    delta_max. *)

type point = {
  jitter : float;  (** the D applied, seconds *)
  jitter_over_delta : float;  (** D / delta_max *)
  ratio : float;  (** measured throughput ratio *)
}

val sweep : ?quick:bool -> ?backend:Fluid.Backend.t -> unit -> point list
(** The phase curve.  Deterministic (seeded).  [backend] (default
    [Packet]) selects the simulation substrate: [Fluid] traces the same
    adversary through the discretised fluid laws, [Hybrid] runs packet
    windows around the t=0 start and t=1 jitter activation with fluid
    in between. *)

val plan :
  quick:bool ->
  backend:Fluid.Backend.t ->
  Runner.Job.t list * (bytes list -> Report.row list)
(** One job per sweep point (each point is an independent simulation);
    job keys embed the backend.  The merge reassembles the curve and
    checks it: near-fair at D << delta_max and unfair at
    D >> 2 delta_max, i.e. it crosses the paper's boundary.  The same
    acceptance shape must hold on every backend. *)

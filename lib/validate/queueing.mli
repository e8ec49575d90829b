(** Analytic queueing-theory oracles: the simulator against M/M/1 and
    M/D/1 closed forms.

    An open-loop {!Sim.Source} drives Poisson arrivals into a bare
    constant-rate {!Sim.Link} — with exponential packet sizes that is an
    M/M/1 queue, with fixed sizes an M/D/1 queue, and both have textbook
    mean sojourn time and mean occupancy:

    - M/M/1:  W = 1/(mu (1 - rho)),          L = rho/(1 - rho)
    - M/D/1:  W = (1/mu)(1 + rho/(2(1-rho))), L = rho + rho^2/(2(1-rho))

    where mu is the service rate in packets/s and rho = lambda/mu.  No
    amount of byte-identity with yesterday's run can fake agreement with
    these — they are external ground truth.

    Tolerances are principled, not hand-tuned: the acceptance band is
    [z * stderr * autocorrelation inflation] around the closed form,
    where stderr comes from {!Sim.Stats.Online} over the post-warmup
    sojourn samples and the inflation factor [sqrt((1+rho)/(1-rho))]
    compensates for consecutive sojourn times being positively
    correlated in a busy queue (an i.i.d. CLT band would be too tight
    and flake).  [z = 5] puts the per-check false-positive probability
    below 1e-6 while still catching percent-level bias at the default
    sample sizes. *)

type spec = {
  label : string;  (** scenario name carried into the verdicts *)
  lambda : float;  (** arrival rate, packets/s *)
  mean_size : float;  (** mean packet size, bytes *)
  deterministic_size : bool;  (** true = M/D/1, false = M/M/1 *)
  link_rate : float;  (** bytes/s *)
  horizon : float;  (** simulated seconds *)
  warmup : float;  (** seconds discarded before sampling *)
}

val mm1_default : spec
val md1_default : spec
(** rho = 0.7 at 100 packets/s service rate, 300 simulated seconds
    (~21k arrivals) — tight enough bands to catch percent-level bias,
    small enough to run in every test suite invocation. *)

val verdicts : rng:Sim.Rng.t -> spec -> Oracle.verdict list
(** Simulate the open-loop scenario (deterministic given the generator's
    state) and judge: mean sojourn and mean occupancy against the closed
    forms, plus a coarse utilization cross-check (observed busy fraction
    vs rho). *)

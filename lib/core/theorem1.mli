(** Constructive reproduction of Theorem 1: starvation is inevitable for
    deterministic, f-efficient, delay-convergent CCAs when the
    non-congestive jitter bound D exceeds 2 delta_max.

    The pipeline mirrors the proof; {!search} does Steps 1-2 and
    {!construct} Step 3, and neither re-reads a whole RTT series per
    sample:

    + {b Step 1} ({!Pigeonhole}): find link rates C1, C2 with
      C2 >= (s/f) C1 whose converged delay bands overlap within epsilon.
    + {b Step 2} ({!Convergence}): record the single-flow delay and rate
      trajectories on ideal links of rates C1 and C2 (Figure 5).
    + {b Step 3} ({!Emulation}): run both flows — their CCA instances
      deterministically re-warmed to their converged states — on a shared
      link of rate C1+C2, with per-flow jitter controllers that impose the
      recorded delay trajectories.  Verify 0 <= eta_i(t) <= D both
      analytically (on the recorded trajectories, via Eq. 5) and at runtime
      (the jitter elements count clamps), and measure the throughput ratio.

    The flows start the shared phase with empty pipes, so the first
    round-trip is a transient the proof's fluid model does not have; the
    runtime bound check therefore also reports violations after a settle
    window.  The analytic check has no such caveat. *)

type outcome = {
  pair : Pigeonhole.pair;
  delta_max : float;  (** sup of measured delta(C) over all probes *)
  epsilon : float;
  big_d : float;  (** the model's D = 2 (delta_max + epsilon) *)
  analytic : Emulation.check;  (** Eq. 5 bound check on the trajectories *)
  runtime_violations : int;  (** jitter clamps over the whole shared run *)
  settled_violations : int;  (** clamps after the settle window *)
  max_emulation_error : float;
      (** after the settle window, the largest gap between an RTT a flow
          actually observed in the shared scenario and the recorded
          single-flow trajectory it was supposed to observe — the direct
          check that "each flow thinks it is alone on its own link" *)
  x1 : float;  (** slow flow's throughput in the shared scenario, bytes/s *)
  x2 : float;  (** fast flow's throughput *)
  ratio : float;
  target_s : float;
  starved : bool;  (** ratio >= target s *)
  t_start : float;  (** shared-phase start time (= max of the two T_i) *)
  d_star : Sim.Series.t;  (** Eq. 5 trajectory (Figure 6) *)
  net : Sim.Network.t;  (** the shared-link network, for further inspection *)
}

type construction = Case1 | Case2
(** Which branch of the Appendix A case split to execute.

    [Case1] (the general case): shared link of rate C1+C2, initial
    backlog realizing the Eq. 5 d*(t), jitter topping each flow up to its
    trajectory.  [Case2] (the easy case, applicable when
    [min d_min <= Rm + delta_max + epsilon]): a link so fast its queueing
    is negligible, with the *entire* delay trajectories emulated by the
    jitter element alone — the same mechanism as Theorem 2, which is why
    the paper notes Case 2 also proves non-f-efficiency. *)

type search
(** Steps 1 and 2, done: the pigeonhole pair, delta_max, D, the
    convergence times T_i and both send-time delay trajectories, plus the
    parameters Step 3 replays them with.  {!construct} only reads it, so
    one search can feed any number of constructions. *)

val search :
  make_cca:(unit -> Cca.t) ->
  rm:float ->
  s:float ->
  f:float ->
  lambda0:float ->
  ?epsilon:float ->
  ?phase2_duration:float ->
  ?single_duration:float ->
  ?seed:int ->
  unit ->
  (search, string) result
(** Steps 1-2.  [s] is the target starvation ratio, [f] the CCA's
    efficiency (Step 1 spaces probe rates by s/f), [lambda0] the first
    probe rate (bytes/s).  [epsilon] defaults to 0.5 ms.
    [phase2_duration] (default 30 s) is the length of the shared-link run
    and [single_duration] that of each single-flow probe (default: the
    largest of 30 s, 400 Rm and 2.5 [phase2_duration]).  Fails (with a
    diagnostic) when {!Pigeonhole.find_pair} does.
    @raise Invalid_argument naming the parameter unless [rm],
    [phase2_duration] and [single_duration] are finite and positive,
    [s] is finite and above 1 and 0 < [f] <= 1 (and see
    {!Pigeonhole.find_pair} for [lambda0] and [epsilon]). *)

val construct : ?construction:construction -> search -> (outcome, string) result
(** Step 3 on a finished search: the warm replay of both CCAs to their
    converged states, the shared-link run and its analytic, runtime and
    emulation checks.  [construction] defaults to [Case1], which works
    whenever the converged delays leave room for a standing queue;
    [Case2] requires the paper's case-2 condition and fails with an error
    otherwise.  The search's trajectories and probe series are read, never
    written, so constructing twice from one search gives bit-identical
    outcomes; E7 (Case 1) and E7c (Case 2) share one search this way. *)

val run :
  make_cca:(unit -> Cca.t) ->
  rm:float ->
  s:float ->
  f:float ->
  lambda0:float ->
  ?epsilon:float ->
  ?phase2_duration:float ->
  ?single_duration:float ->
  ?seed:int ->
  ?construction:construction ->
  unit ->
  (outcome, string) result
(** {!search} then {!construct}. *)

(** {2 Trajectory helpers} (shared with the Theorem 2/3 constructions) *)

val by_send_time : Sim.Series.t -> Sim.Series.t
(** Re-index an (ack time, RTT) series by packet send time
    (send = ack - rtt), dropping non-monotone duplicates. *)

val target_of_series : Sim.Series.t -> float -> float
(** Step interpolation with first-/last-value extension — the delay target
    the emulation controllers follow. *)


(** CCA equilibrium oracles: closed-loop steady states against the
    closed forms the paper builds on.

    - Reno under Bernoulli loss p obeys the square-root law
      [throughput ≈ mss * sqrt(3/2) / (rtt * sqrt p)] (Mathis et al.);
      the tolerance is wide (±25%) because the law itself is a
      steady-state approximation, but it still catches a simulator whose
      loss response or ACK clocking is wrong by a structural factor.
    - Vegas holds a standing queue between [alpha] and [beta] packets.
    - Copa (default mode) oscillates around a standing queueing delay of
      [mss / (delta * C)] with a band of roughly [4 mss / C] (§2.2 of
      the paper).

    Each oracle runs its own small single-flow scenario (deterministic
    except for Reno's Bernoulli loss, which is seeded) and reports
    {!Oracle.verdict}s. *)

val all : ?seed:int -> unit -> Oracle.verdict list

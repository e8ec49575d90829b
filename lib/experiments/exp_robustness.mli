(** E16 (extension): seed robustness of the headline starvation results.

    Every simulation here is deterministic given its seed, so a skeptic
    should ask whether the §5 ratios are seed-lottery wins.  This
    experiment re-runs the BBR unequal-RTT scenario (E3) and the Copa
    poisoning scenario (E2) across several seeds and reports the range of
    starvation ratios: the shape must hold for every seed, not one. *)

val plan : quick:bool -> Runner.Job.t list * (bytes list -> Report.row list)
(** One job per (scenario, seed) pair, so a parallel runner can spread the
    seeds across workers; the merge rebuilds the per-scenario spreads from
    the job payloads in submission order: one row per scenario, which
    holds when every seed's ratio clears the scenario's threshold. *)

(** E7 + Figures 4, 5, 6: the full Theorem 1 construction, run end to end
    with FAST TCP (a delay-convergent CCA with multiplicative convergence,
    so the pigeonhole probes converge quickly).

    Checks, in proof order:
    - Step 1 found C1, C2 at least s/f apart with d_max gap < epsilon
      (Figure 4);
    - Step 2 trajectories converged (Figure 5);
    - Step 3's eta bounds hold analytically (Eq. 5, Figure 6) and at
      runtime (zero jitter clamps);
    - the shared-link throughput ratio reaches the target s.

    E7 (Appendix A Case 1) and E7c (Case 2) are constructed from one
    {!Core.Theorem1.search}. *)

val run : ?quick:bool -> unit -> Report.row list
(** Full mode also runs the construction against LEDBAT — a min-filter CCA
    with a very different delay map (constant standing queue) — to show the
    mechanism is CCA-agnostic. *)

val outcome : ?quick:bool -> unit -> (Core.Theorem1.outcome, string) result
(** The raw FAST construction result (trajectories, d*, probe list) for
    plotting. *)

(** E17 (extension): the cross-CCA summary matrix.

    One row per implemented CCA, three scenarios on a 24 Mbit/s, 40 ms
    link:

    - solo: utilization and p95 RTT (the delay/throughput trade the intro
      frames);
    - pair: Jain index of two identical flows (baseline fairness);
    - random jitter: throughput ratio when flow 1's ACK path gains up to
      10 ms of uniform non-congestive delay;
    - adversarial jitter: the same budget spent as the §3 model spends it —
      zero while the flow measures its floor, a persistent +10 ms after.

    The matrix makes two of the paper's points quantitative in one table:
    the delay-convergent family (Vegas, FAST, Copa, LEDBAT) is
    jitter-fragile while the loss-based family is delay-blind; and the
    *pattern* of jitter matters far more than its magnitude — random noise
    leaves min-filters a clean floor sample, the adversarial pattern does
    not (this is exactly why §3 models delay as non-deterministic rather
    than random). *)

type entry = {
  cca_name : string;
  solo_utilization : float;
  solo_p95_rtt : float;
  pair_jain : float;
  jitter_ratio : float;  (** uniform random jitter *)
  adv_ratio : float;  (** adversarial persistent-after-floor jitter *)
}

val measure : ?quick:bool -> unit -> entry list
(** Every CCA's entry, measured serially in this process: the data behind
    the exported [e17_matrix.csv]. *)

val plan : quick:bool -> Runner.Job.t list * (bytes list -> Report.row list)
(** One job per CCA (its four scenarios together); the merge prints the
    matrix table and yields the E17a-c rows. *)

(** Rate-delay maps (paper Figures 2 and 3).

    For a fixed minimum RTT, a delay-convergent CCA maps each bottleneck
    rate C to the delay band it converges to.  This module provides the
    analytic bands derived in §2.2/§5 for the CCAs in [lib/cca], and an
    empirical sweep that measures them with {!Convergence}. *)

type band = { d_min : float; d_max : float }

val width : band -> float
(** delta(C). *)

type curve = {
  curve_name : string;
  band : rate:float -> rm:float -> band;
      (** converged RTT band on an ideal path of the given rate *)
  delta_max : rm:float -> float;
      (** analytic sup of delta(C) over all C above the curve's lambda *)
}

val vegas : Vegas.params -> curve
(** [Rm + target/C] with delta = 0 (Figure 3, leftmost panel; the target is
    the alpha..beta window so the band has width (beta-alpha) packets). *)

val fast : Fast_tcp.params -> curve
val copa : Copa.params -> curve

val bbr_pacing : curve
(** Pacing-limited BBR: band [Rm, 1.25 Rm]; delta_max = Rm/4 (§5.2). *)

val bbr_cwnd : Bbr.params -> curve
(** cwnd-limited BBR: RTT = 2 Rm + alpha/C, delta = 0 (§5.2). *)

val pcc_vivace : curve
(** Band [Rm, 1.05 Rm]; delta_max = Rm/20 (§5.3). *)

val ledbat : Ledbat.params -> curve
(** [Rm + target + mss/C], delta = 0: a constant standing queue
    independent of C — the LEDBAT/min-filter family of §2.2. *)

val alg1 : Alg1.params -> curve
(** Inverse of Algorithm 1's mu(d) curve, oscillating by one AIMD step. *)

val sweep :
  curve -> rates:float list -> rm:float -> (float * band) list
(** Evaluate the analytic curve over a rate grid — the Figure 3 series. *)

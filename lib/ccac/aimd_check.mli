(** Discretized two-flow AIMD model with an adversarial dropper
    (Appendix C / §5.4).

    One step = one RTT.  Both flows run AIMD: +1 packet per RTT, halve on a
    loss event.  The shared FIFO bottleneck carries [bdp] packets per RTT
    over a buffer of [buffer] packets; when joint demand exceeds
    bdp + buffer, at least one flow must lose (drop-tail), and the
    adversary picks which (modeling burstiness/delayed-ACK bias, the
    Figure 7 mechanism).  Optionally the adversary may also inject
    non-congestive drops on flow 1 (the §5.4 random-loss attack on
    loss-based CCAs).

    The check asks: over all traces of [horizon] RTTs, how unfair can the
    adversary make the outcome?  The paper (using CCAC) proved unfairness
    is bounded over 10 RTTs for 1-BDP buffers without injected loss; this
    module reproduces that with exhaustive search, and shows the bound
    grows once injected loss is allowed. *)

(** Adversary move for one RTT. *)
type choice = Victim_1 | Victim_2 | Victim_both | Inject_loss_1 | No_op

type state = {
  w1 : float;  (** flow 1 cwnd, packets *)
  w2 : float;
  acked1 : float;  (** cumulative goodput, packets *)
  acked2 : float;
  steps : int;
}

type verdict = {
  max_ratio : float;  (** worst x2/x1 the adversary achieved *)
  utilization : float;  (** utilization on that worst trace *)
  trace : choice list;
  exhaustive : bool;  (** DFS (exact) or beam (lower bound) *)
}

val check :
  bdp:float ->
  buffer:float ->
  horizon:int ->
  ?allow_injected_loss:bool ->
  ?w1_0:float ->
  ?w2_0:float ->
  ?beam_width:int ->
  unit ->
  verdict
(** Initial windows default to (1, bdp) — the worst case of a newcomer
    meeting an incumbent.  DFS is used when the tree has at most ~2e6
    leaves, otherwise beam search with [beam_width] (default 4096).
    @raise Invalid_argument naming the parameter unless [bdp], [w1_0] and
    [w2_0] are finite and positive, [buffer] is >= 0 ([infinity] is
    legal), [horizon] is >= 0 and [beam_width] is >= 1.  NaN fails every
    check. *)

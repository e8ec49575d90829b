(** Metamorphic properties: transformations of a {!Sim.Network} config
    whose outputs must match a predicted transformation of the original
    output.

    Each scenario is a {e builder} parameterized by the transformation
    axes, so every variant gets fresh CCA instances (configs embed
    stateful CCA closures; sharing them across runs would leak warmed
    state between variants):

    - {b unit rescaling} ([scale = 2]): link rate, MSS, buffer and
      initial queue all doubled.  Packet counts, event times and every
      time-valued quantity are unchanged, and byte-valued floats scale
      by a power of two — which is {e exact} in binary floating point —
      so throughput must double bitwise.
    - {b time-origin shift} ([shift = 16 s]): everything happens 16
      seconds later.  Float addition at a different magnitude loses
      ulps, which CCA feedback can amplify into one-packet differences,
      so the comparison carries a small tolerance rather than bitwise
      equality.
    - {b flow permutation} ([permute = true]): flows listed in reverse
      order must see the same per-flow throughputs (matched through the
      permutation).  Only meaningful for deterministic scenarios: the
      per-flow RNG streams are split in flow order, so permuting a
      stochastic config legitimately changes its noise.
    - {b jitter monotonicity}: adding a larger constant ACK-path delay
      must not increase a single Reno flow's throughput. *)

val all : unit -> Oracle.verdict list
(** Every check on a 6-scenario matrix (Reno solo with an initial
    phantom queue, staggered Reno pair, Reno vs Vegas, Copa with
    delayed ACKs, Cubic vs BBR under random loss, Vegas behind
    aggregated ACKs with uniform jitter), plus jitter monotonicity: a
    single Reno flow with constant ACK-path delays 0 / 10 / 30 ms must
    not speed up (5% slack). *)

(** E15 (extension): in-network isolation, the conclusion's escape hatch.

    The paper closes by noting that purely end-to-end CCAs may always
    suffer from these problems and that "active queue management, explicit
    congestion signaling, or stronger isolation" may be required.  E13
    covered signaling; this experiment covers isolation.

    An unresponsive 240-packet-window blaster (three bandwidth-delay
    products) shares the bottleneck with a Copa flow.  Under the shared FIFO of the §3 model, the blaster's
    standing queue reads as congestion to Copa, which backs off to a
    trickle.  Under deficit-round-robin per-flow queues, Copa's delay
    signal reflects only its own backlog: it takes its half of the link
    regardless of the blaster. *)

val run : ?quick:bool -> unit -> Report.row list

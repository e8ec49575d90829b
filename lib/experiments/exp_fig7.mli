(** Figure 7: Reno and Cubic cwnd evolution under asymmetric delayed ACKs.

    Two flows on a 6 Mbit/s, Rm = 120 ms link with a 60-packet buffer;
    flow 1's receiver coalesces up to 4 ACKs, flow 2 ACKs every packet.
    The bursty flow is likelier to overflow the nearly-full drop-tail
    buffer, so it keeps a persistently smaller window — bounded unfairness,
    not starvation (paper: throughput ratios 2.7x Reno, 3.2x Cubic). *)

type result = {
  cca_name : string;
  x_delack : float;  (** bytes/s, the delayed-ACK flow *)
  x_normal : float;
  ratio : float;
  cwnd_delack : Sim.Series.t;  (** the Figure 7 cwnd traces *)
  cwnd_normal : Sim.Series.t;
}

val run : ?quick:bool -> unit -> Report.row list

val series : ?quick:bool -> unit -> result list
(** Full results with cwnd traces, for plotting. *)

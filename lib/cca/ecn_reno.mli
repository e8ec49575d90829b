(** ECN-driven AIMD (paper §6.4).

    The paper conjectures that explicit congestion signaling sidesteps the
    starvation result: unlike delay and loss, a CE mark is an unambiguous
    congestion signal, so a CCA that reacts to marks and *ignores small
    amounts of loss* keeps a usable fixed point even when one flow's path
    adds non-congestive loss or jitter.

    This CCA is NewReno's window dynamics with the congestion signal moved
    to ECN: halve once per RTT when an ACK echoes CE; ignore dup-ACK losses
    as long as the measured loss fraction stays under [loss_tolerance]
    (they might be non-congestive); still react to heavy loss and to
    timeouts, since a mark-blind overload must not run away. *)

type params = {
  init_cwnd_packets : float;
  loss_tolerance : float;
      (** fraction of losses per window tolerated without reaction
          (default 0.05, PCC Allegro's threshold) *)
  mss : int;
}

val default_params : params
val make : ?params:params -> unit -> Cca.t
(** @raise Invalid_argument naming the field unless [init_cwnd_packets]
    is finite and positive, [loss_tolerance] is in \[0, 1\] and [mss] is
    positive.  NaN fails every check. *)

(** Packets and delivery records flowing through the simulated network. *)

type t = {
  flow : int;  (** flow identifier, dense from 0 *)
  seq : int;  (** per-flow sequence number *)
  size : int;  (** bytes, including header abstraction *)
  sent_at : float;
  delivered_at_send : int;
      (** sender's cumulative-delivered counter when this packet left, used
          for delivery-rate samples (BBR-style rate estimation) *)
  app_limited : bool;
  mutable ce : bool;
      (** congestion-experienced mark, set by an ECN-enabled bottleneck
          (paper sec. 6.4) and echoed to the sender in the ACK *)
}

(** What the receiver hands to the ACK path for one delivered packet. *)
type delivery = {
  packet : t;
  delivered_at : float;  (** time the packet reached the receiver *)
}

val dummy : t
(** Placeholder packet (flow [-2], size 0) for preallocated buffers — ring
    slots, in-service registers — that need a value of the packet type
    without pinning a real packet.  Never enters the network. *)

val fold_state : Buffer.t -> t -> unit
(** Append every field to a {!Statebuf} encoding — part of
    {!Network.state_hash}. *)

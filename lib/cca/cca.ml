type ack_info = {
  mutable now : float;
  mutable rtt : float;
  mutable acked_bytes : int;
  mutable sent_time : float;
  mutable delivered : int;
  mutable delivered_now : int;
  mutable inflight : int;
  mutable app_limited : bool;
  mutable ecn_ce : bool;
}

type loss_info = {
  now : float;
  lost_bytes : int;
  lost_packets : (float * int) list;
  inflight : int;
  kind : [ `Dupack | `Timeout ];
}

type send_info = {
  mutable now : float;
  mutable sent_bytes : int;
  mutable inflight : int;
}

type t = {
  name : string;
  on_ack : ack_info -> unit;
  on_loss : loss_info -> unit;
  on_send : send_info -> unit;
  on_timer : float -> unit;
  next_timer : unit -> float option;
  cwnd : unit -> float;
  pacing_rate : unit -> float option;
  inspect : unit -> (string * float) list;
}

type instance = {
  cca : t;
  reset : (unit -> unit) option;
  release : unit -> unit;
}

let default_mss = 1500

let instance_of cca = { cca; reset = None; release = ignore }

let bandwidth_sample (a : ack_info) =
  let interval = a.now -. a.sent_time in
  let bytes = a.delivered_now - a.delivered in
  if interval <= 0. || bytes <= 0 then 0.
  else float_of_int bytes /. interval

type arrivals = Poisson of { rate : float }
type sizes = Fixed of int | Exponential of { mean : float }

type t = {
  eq : Event_queue.t;
  rng : Rng.t;
  arrivals : arrivals;
  sizes : sizes;
  until : float;
  send : Packet.t -> unit;
  handle : Event_queue.handle;
  mutable seq : int;
  mutable sent_bytes : int;
}

let gap t =
  match t.arrivals with
  | Poisson { rate } -> Rng.exponential t.rng ~mean:(1. /. rate)

let draw_size t =
  match t.sizes with
  | Fixed n -> n
  | Exponential { mean } -> max 1 (int_of_float (Rng.exponential t.rng ~mean))

let rec arrive t () =
  let now = Event_queue.now t.eq in
  let size = draw_size t in
  let pkt =
    {
      Packet.flow = 0;
      seq = t.seq;
      size;
      sent_at = now;
      delivered_at_send = 0;
      app_limited = false;
      ce = false;
    }
  in
  t.seq <- t.seq + 1;
  t.sent_bytes <- t.sent_bytes + size;
  t.send pkt;
  schedule_next t

and schedule_next t =
  let at = Event_queue.now t.eq +. gap t in
  if at <= t.until then Event_queue.schedule_handle t.eq t.handle ~at

let create ~eq ~rng ~arrivals ~sizes ?(until = infinity) ~send () =
  (match arrivals with
  | Poisson { rate } when not (rate > 0.) ->
      invalid_arg "Source.create: Poisson rate must be positive"
  | Poisson _ -> ());
  (match sizes with
  | Fixed n when n <= 0 -> invalid_arg "Source.create: size must be positive"
  | Exponential { mean } when not (mean > 0.) ->
      invalid_arg "Source.create: mean size must be positive"
  | _ -> ());
  let t =
    {
      eq;
      rng;
      arrivals;
      sizes;
      until;
      send;
      handle = Event_queue.handle (fun () -> ());
      seq = 0;
      sent_bytes = 0;
    }
  in
  Event_queue.set_action t.handle (arrive t);
  schedule_next t;
  t

let sent_packets t = t.seq
let sent_bytes t = t.sent_bytes

type params = {
  c : float;
  beta : float;
  init_cwnd_packets : float;
  mss : int;
}

let default_params =
  { c = 0.4; beta = 0.7; init_cwnd_packets = 4.; mss = Cca.default_mss }

(* Every test fails on NaN. *)
let check_params p =
  let bad what = invalid_arg ("Cubic.make: " ^ what) in
  if not (Float.is_finite p.c && p.c > 0.) then
    bad "c must be finite and positive";
  if not (p.beta > 0. && p.beta < 1.) then
    bad "beta must be in (0, 1)";
  if not (Float.is_finite p.init_cwnd_packets && p.init_cwnd_packets > 0.) then
    bad "init_cwnd_packets must be finite and positive";
  if p.mss <= 0 then bad "mss must be positive"

type state = {
  p : params;
  mutable cwnd : float; (* bytes *)
  mutable ssthresh : float;
  mutable w_max : float; (* packets *)
  mutable k : float;
  mutable epoch_start : float; (* time of last loss; < 0 = no epoch yet *)
  mutable recovery_until : float;
  mutable last_rtt : float;
  mutable reno_cwnd : float; (* TCP-friendly estimate, packets *)
}

let make ?(params = default_params) () =
  check_params params;
  let mss = float_of_int params.mss in
  let s =
    {
      p = params;
      cwnd = params.init_cwnd_packets *. mss;
      ssthresh = infinity;
      w_max = 0.;
      k = 0.;
      epoch_start = -1.;
      recovery_until = neg_infinity;
      last_rtt = 0.;
      reno_cwnd = params.init_cwnd_packets;
    }
  in
  let on_ack (a : Cca.ack_info) =
    s.last_rtt <- a.rtt;
    let acked = float_of_int a.acked_bytes in
    if s.cwnd < s.ssthresh then s.cwnd <- s.cwnd +. acked
    else if s.epoch_start < 0. then
      (* No loss yet but above ssthresh: Reno-style growth. *)
      s.cwnd <- s.cwnd +. (mss *. acked /. s.cwnd)
    else begin
      let t = a.now -. s.epoch_start +. a.rtt in
      let w_cubic = (s.p.c *. ((t -. s.k) ** 3.)) +. s.w_max in
      (* TCP-friendly region: emulate Reno growth from the same loss point. *)
      s.reno_cwnd <- s.reno_cwnd +. (acked /. s.cwnd);
      let target_pkts = Float.max w_cubic s.reno_cwnd in
      let target = target_pkts *. mss in
      if target > s.cwnd then begin
        (* Approach the target over the next RTT, as the RFC prescribes. *)
        let cwnd_pkts = Float.max (s.cwnd /. mss) 1. in
        s.cwnd <- s.cwnd +. ((target -. s.cwnd) /. cwnd_pkts *. (acked /. mss))
      end
      else
        (* Below target region: minimal growth to stay responsive. *)
        s.cwnd <- s.cwnd +. (0.01 *. mss *. acked /. s.cwnd)
    end
  in
  let on_loss (l : Cca.loss_info) =
    if l.now >= s.recovery_until then begin
      s.recovery_until <- l.now +. Float.max s.last_rtt 0.01;
      let cwnd_pkts = s.cwnd /. mss in
      s.w_max <- cwnd_pkts;
      s.k <- Float.cbrt (s.w_max *. (1. -. s.p.beta) /. s.p.c);
      s.epoch_start <- l.now;
      s.reno_cwnd <- cwnd_pkts *. s.p.beta;
      s.ssthresh <- Float.max (s.cwnd *. s.p.beta) (2. *. mss);
      s.cwnd <-
        (match l.kind with
        | `Dupack -> s.ssthresh
        | `Timeout -> mss)
    end
  in
  {
    Cca.name = "cubic";
    on_ack;
    on_loss;
    on_send = (fun _ -> ());
    on_timer = (fun _ -> ());
    next_timer = (fun () -> None);
    cwnd = (fun () -> s.cwnd);
    pacing_rate = (fun () -> None);
    inspect =
      (fun () ->
        [
          ("cwnd", s.cwnd);
          ("w_max", s.w_max);
          ("k", s.k);
          ("ssthresh", s.ssthresh);
        ]);
  }

type params = {
  init_cwnd_packets : float;
  loss_tolerance : float;
  mss : int;
}

let default_params =
  { init_cwnd_packets = 4.; loss_tolerance = 0.05; mss = Cca.default_mss }

(* Every test fails on NaN. *)
let check_params p =
  let bad what = invalid_arg ("Ecn_reno.make: " ^ what) in
  if not (Float.is_finite p.init_cwnd_packets && p.init_cwnd_packets > 0.) then
    bad "init_cwnd_packets must be finite and positive";
  if not (p.loss_tolerance >= 0. && p.loss_tolerance <= 1.) then
    bad "loss_tolerance must be in [0, 1]";
  if p.mss <= 0 then bad "mss must be positive"

type state = {
  p : params;
  mutable cwnd : float;
  mutable ssthresh : float;
  mutable recovery_until : float;
  mutable last_rtt : float;
  (* Loss-fraction accounting over a sliding window of recent packets. *)
  mutable window_sent : int;
  mutable window_lost : int;
  mutable window_start : float;
}

let make ?(params = default_params) () =
  check_params params;
  let mss = float_of_int params.mss in
  let s =
    {
      p = params;
      cwnd = params.init_cwnd_packets *. mss;
      ssthresh = infinity;
      recovery_until = neg_infinity;
      last_rtt = 0.;
      window_sent = 0;
      window_lost = 0;
      window_start = 0.;
    }
  in
  let halve now =
    if now >= s.recovery_until then begin
      s.recovery_until <- now +. Float.max s.last_rtt 0.01;
      s.ssthresh <- Float.max (s.cwnd /. 2.) (2. *. mss);
      s.cwnd <- s.ssthresh
    end
  in
  let roll_window now =
    (* Reset the loss accounting roughly every 4 RTTs. *)
    if now -. s.window_start > 4. *. Float.max s.last_rtt 0.01 then begin
      s.window_sent <- 0;
      s.window_lost <- 0;
      s.window_start <- now
    end
  in
  let on_ack (a : Cca.ack_info) =
    s.last_rtt <- a.rtt;
    roll_window a.now;
    if a.ecn_ce then halve a.now
    else begin
      let acked = float_of_int a.acked_bytes in
      if s.cwnd < s.ssthresh then s.cwnd <- s.cwnd +. acked
      else s.cwnd <- s.cwnd +. (mss *. acked /. s.cwnd)
    end
  in
  let on_loss (l : Cca.loss_info) =
    roll_window l.now;
    s.window_lost <- s.window_lost + (l.lost_bytes / s.p.mss);
    match l.kind with
    | `Timeout ->
        s.ssthresh <- Float.max (s.cwnd /. 2.) (2. *. mss);
        s.cwnd <- mss;
        s.recovery_until <- l.now +. Float.max s.last_rtt 0.01
    | `Dupack ->
        let loss_frac =
          if s.window_sent = 0 then 0.
          else float_of_int s.window_lost /. float_of_int s.window_sent
        in
        (* Small loss fractions may be non-congestive: ignore them and let
           the ECN marks carry the congestion signal.  Demand a minimum
           sample so a single early loss cannot masquerade as a high
           fraction. *)
        if s.window_sent >= 100 && loss_frac > s.p.loss_tolerance then halve l.now
  in
  let on_send (i : Cca.send_info) =
    s.window_sent <- s.window_sent + (i.sent_bytes / s.p.mss)
  in
  {
    Cca.name = "ecn-reno";
    on_ack;
    on_loss;
    on_send;
    on_timer = (fun _ -> ());
    next_timer = (fun () -> None);
    cwnd = (fun () -> s.cwnd);
    pacing_rate = (fun () -> None);
    inspect =
      (fun () ->
        [
          ("cwnd", s.cwnd);
          ("ssthresh", s.ssthresh);
          ( "loss_frac",
            if s.window_sent = 0 then 0.
            else float_of_int s.window_lost /. float_of_int s.window_sent );
        ]);
  }

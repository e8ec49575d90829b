type params = {
  alpha_packets : float;
  gamma : float;
  init_cwnd_packets : float;
  mss : int;
}

let default_params =
  { alpha_packets = 10.; gamma = 0.5; init_cwnd_packets = 4.; mss = Cca.default_mss }

(* Every test fails on NaN. *)
let check_params p =
  let bad what = invalid_arg ("Fast_tcp.make: " ^ what) in
  if not (Float.is_finite p.alpha_packets && p.alpha_packets >= 0.) then
    bad "alpha_packets must be finite and >= 0";
  if not (p.gamma > 0. && p.gamma <= 1.) then
    bad "gamma must be in (0, 1]";
  if not (Float.is_finite p.init_cwnd_packets && p.init_cwnd_packets > 0.) then
    bad "init_cwnd_packets must be finite and positive";
  if p.mss <= 0 then bad "mss must be positive"

type state = {
  p : params;
  mutable cwnd : float; (* bytes *)
  mutable base_rtt : float;
  mutable last_rtt : float;
  mutable epoch_start : float;
}

let per_rtt_update s =
  if s.last_rtt > 0. && s.base_rtt < infinity then begin
    let mss = float_of_int s.p.mss in
    let target =
      (s.base_rtt /. s.last_rtt *. s.cwnd) +. (s.p.alpha_packets *. mss)
    in
    let next = ((1. -. s.p.gamma) *. s.cwnd) +. (s.p.gamma *. target) in
    s.cwnd <- Float.max (Float.min (2. *. s.cwnd) next) (2. *. mss)
  end

let make ?(params = default_params) () =
  check_params params;
  let s =
    {
      p = params;
      cwnd = params.init_cwnd_packets *. float_of_int params.mss;
      base_rtt = infinity;
      last_rtt = 0.;
      epoch_start = 0.;
    }
  in
  let on_ack (a : Cca.ack_info) =
    if a.rtt < s.base_rtt then s.base_rtt <- a.rtt;
    s.last_rtt <- a.rtt;
    if a.now -. s.epoch_start >= a.rtt then begin
      s.epoch_start <- a.now;
      per_rtt_update s
    end
  in
  let on_loss (l : Cca.loss_info) =
    match l.kind with
    | `Timeout -> s.cwnd <- 2. *. float_of_int s.p.mss
    | `Dupack -> s.cwnd <- Float.max (s.cwnd /. 2.) (2. *. float_of_int s.p.mss)
  in
  {
    Cca.name = "fast";
    on_ack;
    on_loss;
    on_send = (fun _ -> ());
    on_timer = (fun _ -> ());
    next_timer = (fun () -> None);
    cwnd = (fun () -> s.cwnd);
    pacing_rate = (fun () -> None);
    inspect =
      (fun () ->
        [ ("cwnd", s.cwnd); ("base_rtt", s.base_rtt); ("last_rtt", s.last_rtt) ]);
  }

let equilibrium_rtt p ~rate ~rm =
  rm +. (p.alpha_packets *. float_of_int p.mss /. rate)

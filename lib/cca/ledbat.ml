type params = {
  target : float;
  gain : float;
  base_history : float;
  init_cwnd_packets : float;
  mss : int;
}

let default_params =
  {
    target = 0.025;
    gain = 1.;
    base_history = 100.;
    init_cwnd_packets = 4.;
    mss = Cca.default_mss;
  }

(* Every test fails on NaN.  [base_history] follows
   {!Window.Extremum}: 0 and [infinity] are legal. *)
let check_params p =
  let bad what = invalid_arg ("Ledbat.make: " ^ what) in
  if not (Float.is_finite p.target && p.target > 0.) then
    bad "target must be finite and positive";
  if not (Float.is_finite p.gain && p.gain > 0.) then
    bad "gain must be finite and positive";
  if not (p.base_history >= 0.) then
    bad "base_history must be >= 0";
  if not (Float.is_finite p.init_cwnd_packets && p.init_cwnd_packets > 0.) then
    bad "init_cwnd_packets must be finite and positive";
  if p.mss <= 0 then bad "mss must be positive"

type state = {
  p : params;
  mutable cwnd : float;
  mutable slow_start : bool;
  base : Window.Extremum.t;
}

let make ?(params = default_params) () =
  check_params params;
  let mss = float_of_int params.mss in
  let s =
    {
      p = params;
      cwnd = params.init_cwnd_packets *. mss;
      slow_start = true;
      base = Window.Extremum.create_min ~window:params.base_history;
    }
  in
  let on_ack (a : Cca.ack_info) =
    Window.Extremum.push s.base ~time:a.now a.rtt;
    let base = Window.Extremum.get_default s.base a.rtt in
    let queuing = Float.max 0. (a.rtt -. base) in
    if s.slow_start && queuing >= s.p.target then s.slow_start <- false;
    if s.slow_start then
      (* Standard slow start until the delay target is reached. *)
      s.cwnd <- s.cwnd +. float_of_int a.acked_bytes
    else begin
      let off_target = (s.p.target -. queuing) /. s.p.target in
      (* Per-ACK fraction of the per-RTT adjustment (byte counting). *)
      let bytes_ratio = float_of_int a.acked_bytes /. Float.max s.cwnd mss in
      s.cwnd <- s.cwnd +. (s.p.gain *. off_target *. bytes_ratio *. mss)
    end;
    s.cwnd <- Float.max s.cwnd (2. *. mss)
  in
  let on_loss (l : Cca.loss_info) =
    s.slow_start <- false;
    match l.kind with
    | `Timeout -> s.cwnd <- 2. *. mss
    | `Dupack -> s.cwnd <- Float.max (s.cwnd /. 2.) (2. *. mss)
  in
  {
    Cca.name = "ledbat";
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
          ("base", Window.Extremum.get_default s.base nan);
          ("slow_start", if s.slow_start then 1. else 0.);
        ]);
  }

let equilibrium_rtt p ~rate ~rm =
  rm +. p.target +. (float_of_int p.mss /. rate)

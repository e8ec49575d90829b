type params = {
  rm : float;
  rmax : float;
  d_jitter : float;
  s : float;
  mu_minus : float;
  a : float;
  b : float;
  init_rate : float;
  mss : int;
}

let default_params =
  {
    rm = 0.05;
    rmax = 0.1;
    d_jitter = 0.01;
    s = 2.;
    mu_minus = 12500.; (* 100 kbit/s *)
    a = 12500.;
    b = 0.9;
    init_rate = 125000.;
    mss = Cca.default_mss;
  }

(* Every test fails on NaN. *)
let check_params fn p =
  if not (Float.is_finite p.rm && p.rm > 0.) then
    invalid_arg (fn ^ ": rm must be finite and positive");
  if not (Float.is_finite p.rmax && p.rmax > 0.) then
    invalid_arg (fn ^ ": rmax must be finite and positive");
  if not (Float.is_finite p.d_jitter && p.d_jitter > 0.) then
    invalid_arg (fn ^ ": d_jitter must be finite and positive");
  if not (Float.is_finite p.s && p.s > 1.) then invalid_arg (fn ^ ": s must be finite and > 1");
  if not (Float.is_finite p.mu_minus && p.mu_minus > 0.) then
    invalid_arg (fn ^ ": mu_minus must be finite and positive");
  if not (Float.is_finite p.a && p.a > 0.) then
    invalid_arg (fn ^ ": a must be finite and positive");
  if not (p.b > 0. && p.b < 1.) then invalid_arg (fn ^ ": b must be in (0, 1)");
  if not (Float.is_finite p.init_rate && p.init_rate > 0.) then
    invalid_arg (fn ^ ": init_rate must be finite and positive");
  if p.mss <= 0 then invalid_arg (fn ^ ": mss must be positive")

let target_rate p ~d =
  p.mu_minus *. (p.s ** ((p.rmax -. (d -. p.rm)) /. p.d_jitter))

let mu_plus p = target_rate p ~d:(p.rm +. p.d_jitter)

let rate_range p = p.s ** ((p.rmax -. p.d_jitter) /. p.d_jitter)

type state = {
  p : params;
  mutable rate : float;
  mutable last_rtt : float;
  mutable next_update : float;
}

let make ?(params = default_params) () =
  check_params "Alg1.make" params;
  let s =
    { p = params; rate = params.init_rate; last_rtt = params.rm; next_update = 0. }
  in
  let on_timer now =
    let threshold = target_rate s.p ~d:s.last_rtt in
    if s.rate < threshold then s.rate <- s.rate +. s.p.a
    else s.rate <- s.p.b *. s.rate;
    s.rate <- Float.max s.rate s.p.mu_minus;
    s.next_update <- now +. s.p.rm
  in
  let on_ack (a : Cca.ack_info) = s.last_rtt <- a.rtt in
  {
    Cca.name = "alg1";
    on_ack;
    on_loss = (fun _ -> ());
    on_send = (fun _ -> ());
    on_timer;
    next_timer = (fun () -> Some s.next_update);
    (* Cap in-flight data at twice the worst-case BDP so a sudden capacity
       drop cannot build an unbounded queue. *)
    cwnd = (fun () -> 2. *. s.rate *. (s.p.rm +. s.p.rmax));
    pacing_rate = (fun () -> Some s.rate);
    inspect =
      (fun () ->
        [
          ("rate", s.rate);
          ("last_rtt", s.last_rtt);
          ("target", target_rate s.p ~d:s.last_rtt);
        ]);
  }

type params = {
  eps : float;
  throughput_exponent : float;
  latency_coeff : float;
  loss_coeff : float;
  theta0 : float;
  omega : float;
  init_rate : float;
  min_rate : float;
  seed : int;
  mss : int;
}

let default_params =
  {
    eps = 0.05;
    throughput_exponent = 0.9;
    latency_coeff = 900.;
    loss_coeff = 11.35;
    theta0 = 1.;
    omega = 0.05;
    init_rate = 1e6 /. 8.;
    min_rate = 64e3 /. 8.;
    seed = 7;
    mss = Cca.default_mss;
  }

(* Every test fails on NaN. *)
let check_params p =
  let bad what = invalid_arg ("Pcc_vivace.make: " ^ what) in
  if not (p.eps > 0. && p.eps < 1.) then bad "eps must be in (0, 1)";
  if not (Float.is_finite p.throughput_exponent && p.throughput_exponent > 0.) then
    bad "throughput_exponent must be finite and positive";
  if not (Float.is_finite p.latency_coeff && p.latency_coeff >= 0.) then
    bad "latency_coeff must be finite and >= 0";
  if not (Float.is_finite p.loss_coeff && p.loss_coeff >= 0.) then
    bad "loss_coeff must be finite and >= 0";
  if not (Float.is_finite p.theta0 && p.theta0 > 0.) then
    bad "theta0 must be finite and positive";
  if not (Float.is_finite p.omega && p.omega > 0.) then
    bad "omega must be finite and positive";
  if not (Float.is_finite p.init_rate && p.init_rate > 0.) then
    bad "init_rate must be finite and positive";
  if not (Float.is_finite p.min_rate && p.min_rate > 0.) then
    bad "min_rate must be finite and positive";
  if p.mss <= 0 then bad "mss must be positive"

let utility p ~rate_mbps ~rtt_gradient ~loss =
  if rate_mbps <= 0. then 0.
  else
    (rate_mbps ** p.throughput_exponent)
    -. (p.latency_coeff *. rate_mbps *. Float.max 0. rtt_gradient)
    -. (p.loss_coeff *. rate_mbps *. loss)

let utility_of_result p (r : Mi_ledger.result) =
  utility p
    ~rate_mbps:(Mi_ledger.throughput r *. 8. /. 1e6)
    ~rtt_gradient:(Mi_ledger.rtt_slope r)
    ~loss:(Mi_ledger.loss_fraction r)

(* MI labels *)
let label_slow_start = 0
let label_up = 1
let label_down = 2
let label_hold = -1

type phase =
  | Slow_start of { prev_utility : float option }
  | Pair of { base : float; mutable up_u : float option; mutable down_u : float option }

type state = {
  p : params;
  rng : Mini_rng.t;
  ledger : Mi_ledger.t;
  mutable rate : float; (* current decision rate, bytes/s *)
  mutable phase : phase;
  mutable plan : (float * int) list; (* (rate, label) of upcoming MIs *)
  mutable srtt : float;
  mutable mi_end : float;
  mutable consecutive_same_dir : int;
  mutable last_direction : int;
}

let make ?(params = default_params) () =
  check_params params;
  let s =
    {
      p = params;
      rng = Mini_rng.create ~seed:params.seed;
      ledger = Mi_ledger.create ();
      rate = params.init_rate;
      phase = Slow_start { prev_utility = None };
      plan = [ (params.init_rate, label_slow_start) ];
      srtt = 0.05;
      mi_end = 0.;
      consecutive_same_dir = 0;
      last_direction = 0;
    }
  in
  let clamp r = Float.max s.p.min_rate r in
  let mi_duration () = Float.max s.srtt 0.01 in
  let schedule_pair base =
    let up = clamp (base *. (1. +. s.p.eps)) in
    let down = clamp (base *. (1. -. s.p.eps)) in
    let pair =
      if Mini_rng.bool s.rng then [ (up, label_up); (down, label_down) ]
      else [ (down, label_down); (up, label_up) ]
    in
    s.phase <- Pair { base; up_u = None; down_u = None };
    s.plan <- pair
  in
  let apply_gradient base up_u down_u =
    let base_mbps = base *. 8. /. 1e6 in
    let gradient = (up_u -. down_u) /. (2. *. s.p.eps *. base_mbps) in
    let direction = if gradient > 0. then 1 else -1 in
    if direction = s.last_direction then
      s.consecutive_same_dir <- s.consecutive_same_dir + 1
    else begin
      s.last_direction <- direction;
      s.consecutive_same_dir <- 1
    end;
    let theta = s.p.theta0 *. float_of_int s.consecutive_same_dir in
    let step_mbps = theta *. gradient in
    let bound = s.p.omega *. base_mbps in
    let step_mbps = Float.max (-.bound) (Float.min bound step_mbps) in
    clamp (base +. (step_mbps *. 1e6 /. 8.))
  in
  let handle_result (r : Mi_ledger.result) =
    let u = utility_of_result s.p r in
    match s.phase with
    | Slow_start { prev_utility } when r.label = label_slow_start -> begin
        match prev_utility with
        | Some prev when u <= prev ->
            (* Utility stopped improving: back off to the last good rate
               and start probing around it. *)
            s.rate <- clamp (s.rate /. 2.);
            schedule_pair s.rate
        | _ ->
            s.phase <- Slow_start { prev_utility = Some u };
            s.rate <- s.rate *. 2.;
            s.plan <- [ (s.rate, label_slow_start) ]
      end
    | Pair pair ->
        if r.label = label_up then pair.up_u <- Some u
        else if r.label = label_down then pair.down_u <- Some u;
        (match (pair.up_u, pair.down_u) with
        | Some up_u, Some down_u ->
            s.rate <- apply_gradient pair.base up_u down_u;
            schedule_pair s.rate
        | _ -> ())
    | Slow_start _ -> ()
  in
  let process now =
    List.iter handle_result (Mi_ledger.poll s.ledger ~now ~grace:(4. *. mi_duration ()))
  in
  let on_timer now =
    process now;
    let rate, label =
      match s.plan with
      | next :: rest ->
          s.plan <- rest;
          next
      | [] -> (s.rate, label_hold)
    in
    Mi_ledger.begin_mi s.ledger ~now ~rate ~label;
    s.mi_end <- now +. mi_duration ()
  in
  let on_ack (a : Cca.ack_info) =
    s.srtt <- (0.875 *. s.srtt) +. (0.125 *. a.rtt);
    Mi_ledger.on_ack s.ledger ~sent_time:a.sent_time ~now:a.now ~bytes:a.acked_bytes
      ~rtt:a.rtt;
    process a.now
  in
  let on_loss (l : Cca.loss_info) =
    Mi_ledger.on_loss s.ledger ~lost_packets:l.lost_packets;
    process l.now
  in
  let on_send (i : Cca.send_info) = Mi_ledger.on_send s.ledger ~bytes:i.sent_bytes in
  let current_rate () =
    match Mi_ledger.current_rate s.ledger with Some r -> r | None -> s.rate
  in
  {
    Cca.name = "pcc-vivace";
    on_ack;
    on_loss;
    on_send;
    on_timer;
    next_timer = (fun () -> Some s.mi_end);
    cwnd = (fun () -> infinity);
    pacing_rate = (fun () -> Some (current_rate ()));
    inspect =
      (fun () ->
        [
          ("rate", s.rate);
          ("mi_rate", current_rate ());
          ("srtt", s.srtt);
          ("consecutive", float_of_int s.consecutive_same_dir);
        ]);
  }

type params = {
  alpha : float;
  loss_threshold : float;
  eps0 : float;
  eps_max : float;
  init_rate : float;
  min_rate : float;
  seed : int;
  mss : int;
}

let default_params =
  {
    alpha = 50.;
    loss_threshold = 0.05;
    eps0 = 0.01;
    eps_max = 0.05;
    init_rate = 1e6 /. 8.;
    min_rate = 64e3 /. 8.;
    seed = 11;
    mss = Cca.default_mss;
  }

(* Every test fails on NaN. *)
let check_params p =
  let bad what = invalid_arg ("Pcc_allegro.make: " ^ what) in
  if not (Float.is_finite p.alpha && p.alpha > 0.) then
    bad "alpha must be finite and positive";
  if not (p.loss_threshold >= 0. && p.loss_threshold <= 1.) then
    bad "loss_threshold must be in [0, 1]";
  if not (p.eps0 > 0. && p.eps0 < 1.) then bad "eps0 must be in (0, 1)";
  if not (p.eps_max >= p.eps0 && p.eps_max < 1.) then
    bad "eps_max must be in [eps0, 1)";
  if not (Float.is_finite p.init_rate && p.init_rate > 0.) then
    bad "init_rate must be finite and positive";
  if not (Float.is_finite p.min_rate && p.min_rate > 0.) then
    bad "min_rate must be finite and positive";
  if p.mss <= 0 then bad "mss must be positive"

let sigmoid y = 1. /. (1. +. exp y)

let utility p ~rate_mbps ~loss =
  (rate_mbps *. (1. -. loss) *. sigmoid (p.alpha *. (loss -. p.loss_threshold)))
  -. (rate_mbps *. loss)

let utility_of_result p (r : Mi_ledger.result) =
  utility p
    ~rate_mbps:(Mi_ledger.throughput r *. 8. /. 1e6)
    ~loss:(Mi_ledger.loss_fraction r)

let label_start = 0
let label_trial i = 10 + i
let label_adjust = 20
let label_hold = -1

type phase =
  | Starting of { prev_utility : float option }
  | Trial of {
      base : float;
      eps : float;
      order : bool array; (* true = high-rate MI *)
      utilities : float option array;
    }
  | Adjusting of { direction : float; mutable step : int; mutable prev_utility : float }

type state = {
  p : params;
  rng : Mini_rng.t;
  ledger : Mi_ledger.t;
  mutable rate : float;
  mutable phase : phase;
  mutable plan : (float * int) list;
  mutable srtt : float;
  mutable mi_end : float;
}

let random_order rng =
  let order = [| true; true; false; false |] in
  for i = 3 downto 1 do
    let j = int_of_float (Mini_rng.float rng *. float_of_int (i + 1)) in
    let j = min j i in
    let tmp = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- tmp
  done;
  order

let make ?(params = default_params) () =
  check_params params;
  let s =
    {
      p = params;
      rng = Mini_rng.create ~seed:params.seed;
      ledger = Mi_ledger.create ();
      rate = params.init_rate;
      phase = Starting { prev_utility = None };
      plan = [ (params.init_rate, label_start) ];
      srtt = 0.05;
      mi_end = 0.;
    }
  in
  let clamp r = Float.max s.p.min_rate r in
  let mi_duration () = Float.max s.srtt 0.01 in
  let begin_trial ~eps =
    let order = random_order s.rng in
    s.phase <- Trial { base = s.rate; eps; order; utilities = Array.make 4 None };
    s.plan <-
      Array.to_list
        (Array.mapi
           (fun i is_high ->
             let sign = if is_high then 1. else -1. in
             (clamp (s.rate *. (1. +. (sign *. eps))), label_trial i))
           order)
  in
  let enter_adjusting direction =
    s.phase <- Adjusting { direction; step = 1; prev_utility = neg_infinity };
    s.plan <- [ (s.rate, label_adjust) ]
  in
  let conclude_trial base eps order utilities =
    let verdicts = Array.map Option.get utilities in
    let high = ref [] and low = ref [] in
    Array.iteri
      (fun i is_high ->
        if is_high then high := verdicts.(i) :: !high
        else low := verdicts.(i) :: !low)
      order;
    let all_greater a b = List.for_all (fun x -> List.for_all (fun y -> x > y) b) a in
    if all_greater !high !low then begin
      s.rate <- clamp (base *. (1. +. eps));
      enter_adjusting 1.
    end
    else if all_greater !low !high then begin
      s.rate <- clamp (base *. (1. -. eps));
      enter_adjusting (-1.)
    end
    else begin_trial ~eps:(Float.min (eps +. s.p.eps0) s.p.eps_max)
  in
  let handle_result (r : Mi_ledger.result) =
    let u = utility_of_result s.p r in
    match s.phase with
    | Starting { prev_utility } when r.label = label_start -> begin
        match prev_utility with
        | Some prev when u <= prev ->
            s.rate <- clamp (s.rate /. 2.);
            begin_trial ~eps:s.p.eps0
        | _ ->
            s.phase <- Starting { prev_utility = Some u };
            s.rate <- s.rate *. 2.;
            s.plan <- [ (s.rate, label_start) ]
      end
    | Trial { base; eps; order; utilities } when r.label >= 10 && r.label < 14 ->
        utilities.(r.label - 10) <- Some u;
        if Array.for_all Option.is_some utilities then
          conclude_trial base eps order utilities
    | Adjusting a when r.label = label_adjust ->
        if u >= a.prev_utility then begin
          a.prev_utility <- u;
          a.step <- a.step + 1;
          s.rate <-
            clamp (s.rate *. (1. +. (a.direction *. float_of_int a.step *. s.p.eps0)));
          s.plan <- [ (s.rate, label_adjust) ]
        end
        else begin
          (* Utility dropped: step back and re-run trials. *)
          s.rate <-
            clamp (s.rate /. (1. +. (a.direction *. float_of_int a.step *. s.p.eps0)));
          begin_trial ~eps:s.p.eps0
        end
    | Starting _ | Trial _ | Adjusting _ -> ()
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
    Cca.name = "pcc-allegro";
    on_ack;
    on_loss;
    on_send;
    on_timer;
    next_timer = (fun () -> Some s.mi_end);
    cwnd = (fun () -> infinity);
    pacing_rate = (fun () -> Some (current_rate ()));
    inspect =
      (fun () ->
        [ ("rate", s.rate); ("mi_rate", current_rate ()); ("srtt", s.srtt) ]);
  }

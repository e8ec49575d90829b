type params = {
  alpha : float;
  beta : float;
  gamma : float;
  init_cwnd_packets : float;
  mss : int;
}

let default_params =
  { alpha = 2.; beta = 4.; gamma = 1.; init_cwnd_packets = 4.; mss = Cca.default_mss }

(* Every test fails on NaN. *)
let check_params fn p =
  if not (Float.is_finite p.alpha && p.alpha >= 0.) then
    invalid_arg (fn ^ ": alpha must be finite and >= 0");
  if not (Float.is_finite p.beta && p.beta >= p.alpha) then
    invalid_arg (fn ^ ": beta must be finite and >= alpha");
  if not (Float.is_finite p.gamma && p.gamma >= 0.) then
    invalid_arg (fn ^ ": gamma must be finite and >= 0");
  if not (Float.is_finite p.init_cwnd_packets && p.init_cwnd_packets > 0.) then
    invalid_arg (fn ^ ": init_cwnd_packets must be finite and positive");
  if p.mss <= 0 then invalid_arg (fn ^ ": mss must be positive")

(* The state is one row of a {!Columns} arena: [make_in] takes a row of
   a shared arena, [make] gives the instance an arena of its own.  Each
   callback reads the backing array once and indexes it at the row's
   base offset [b], so [on_ack] allocates nothing.  Booleans live in
   float cells (0. / 1.); [base_rtt] starts at [infinity].  The boxed
   reference implementation the tests compare against is in
   [test/cca_oracle.ml]. *)

let nfields = 6
let f_cwnd = 0
let f_base_rtt = 1
let f_last_rtt = 2
let f_epoch_start = 3
let f_slow_start = 4
let f_ss_parity = 5 (* Vegas doubles every other RTT in slow start *)

(* Own packets estimated to sit in the bottleneck queue:
   cwnd * (rtt - base_rtt) / rtt, in packets. *)
let[@inline] queued_packets d b mss =
  let last_rtt = d.(b + f_last_rtt) in
  if last_rtt <= 0. || d.(b + f_base_rtt) = infinity then 0.
  else d.(b + f_cwnd) /. mss *. ((last_rtt -. d.(b + f_base_rtt)) /. last_rtt)

let build fn params cols =
  check_params fn params;
  if Columns.nfields cols <> nfields then
    invalid_arg (fn ^ ": arena has the wrong number of fields");
  let mss = float_of_int params.mss in
  let r = Columns.alloc cols in
  let b = r * nfields in
  let reset () =
    let d = Columns.data cols in
    d.(b + f_cwnd) <- params.init_cwnd_packets *. mss;
    d.(b + f_base_rtt) <- infinity;
    d.(b + f_last_rtt) <- 0.;
    d.(b + f_epoch_start) <- 0.;
    d.(b + f_slow_start) <- 1.;
    d.(b + f_ss_parity) <- 0.
  in
  reset ();
  let per_rtt_update d =
    let diff = queued_packets d b mss in
    if d.(b + f_slow_start) = 1. then begin
      if diff > params.gamma then d.(b + f_slow_start) <- 0.
      else begin
        d.(b + f_ss_parity) <- 1. -. d.(b + f_ss_parity);
        if d.(b + f_ss_parity) = 1. then d.(b + f_cwnd) <- d.(b + f_cwnd) *. 2.
      end
    end;
    if d.(b + f_slow_start) <> 1. then begin
      if diff < params.alpha then d.(b + f_cwnd) <- d.(b + f_cwnd) +. mss
      else if diff > params.beta then d.(b + f_cwnd) <- d.(b + f_cwnd) -. mss
    end;
    d.(b + f_cwnd) <- Float.max d.(b + f_cwnd) (2. *. mss)
  in
  let on_ack (a : Cca.ack_info) =
    let d = Columns.data cols in
    if a.rtt < d.(b + f_base_rtt) then d.(b + f_base_rtt) <- a.rtt;
    d.(b + f_last_rtt) <- a.rtt;
    if a.now -. d.(b + f_epoch_start) >= a.rtt then begin
      d.(b + f_epoch_start) <- a.now;
      per_rtt_update d
    end
  in
  let on_loss (l : Cca.loss_info) =
    let d = Columns.data cols in
    match l.kind with
    | `Timeout -> d.(b + f_cwnd) <- 2. *. mss
    | `Dupack -> d.(b + f_cwnd) <- Float.max (d.(b + f_cwnd) /. 2.) (2. *. mss)
  in
  let cca =
    {
      Cca.name = "vegas";
      on_ack;
      on_loss;
      on_send = (fun _ -> ());
      on_timer = (fun _ -> ());
      next_timer = (fun () -> None);
      cwnd = (fun () -> (Columns.data cols).(b + f_cwnd));
      pacing_rate = (fun () -> None);
      inspect =
        (fun () ->
          let d = Columns.data cols in
          [
            ("cwnd", d.(b + f_cwnd));
            ("base_rtt", d.(b + f_base_rtt));
            ("queued_packets", queued_packets d b mss);
            ("slow_start", d.(b + f_slow_start));
          ]);
    }
  in
  { Cca.cca; reset = Some reset; release = (fun () -> Columns.free cols r) }

let make_in ?(params = default_params) cols = build "Vegas.make_in" params cols

let make ?(params = default_params) () =
  (build "Vegas.make" params (Columns.create ~capacity:1 ~nfields ())).Cca.cca

let equilibrium_rtt p ~rate ~rm =
  let target = (p.alpha +. p.beta) /. 2. in
  rm +. (target *. float_of_int p.mss /. rate)

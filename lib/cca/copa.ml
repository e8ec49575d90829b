type params = {
  delta : float;
  min_rtt_window : float;
  init_cwnd_packets : float;
  mss : int;
}

let default_params =
  {
    delta = 0.5;
    min_rtt_window = 100.;
    init_cwnd_packets = 4.;
    mss = Cca.default_mss;
  }

(* Every test fails on NaN.  [min_rtt_window] is checked by
   {!Window.Extremum} (0 is legal). *)
let check_params fn p =
  if not (Float.is_finite p.delta && p.delta > 0.) then
    invalid_arg (fn ^ ": delta must be finite and positive");
  if not (Float.is_finite p.init_cwnd_packets && p.init_cwnd_packets > 0.) then
    invalid_arg (fn ^ ": init_cwnd_packets must be finite and positive");
  if p.mss <= 0 then invalid_arg (fn ^ ": mss must be positive")

(* The float state is one row of a {!Columns} arena: [make_in] takes a
   row of a shared arena, [make] gives the instance an arena of its own.
   Each callback reads the backing array once and indexes it at the
   row's base offset [b].  The two windowed-minimum deques are
   variable-length and stay per instance (rings bounded by the window's
   sample count, cleared on reset/release without giving up their
   storage).  Direction is encoded 0/1/2 = Unset/Up/Down, the
   same-direction RTT count and the slow-start flag as small exact
   floats.  The boxed reference implementation the tests compare against
   is in [test/cca_oracle.ml]. *)

let nfields = 8
let f_cwnd = 0
let f_srtt = 1
let f_velocity = 2
let f_direction = 3 (* 0 = Unset, 1 = Up, 2 = Down *)
let f_same_dir = 4
let f_epoch_start = 5
let f_cwnd_at_epoch = 6
let f_slow_start = 7 (* 1 = slow start *)

(* Standing RTT minus min RTT; 0 while either filter is empty.  The
   filter reads use [get_default], so they build no [Some]. *)
let[@inline] queue_delay ~standing ~min_rtt =
  if Window.Extremum.is_empty standing || Window.Extremum.is_empty min_rtt
  then 0.
  else
    Float.max 0.
      (Window.Extremum.get_default standing 0.
      -. Window.Extremum.get_default min_rtt 0.)

(* Target rate 1 / (delta * dq) packets/s; [infinity] without a queue. *)
let[@inline] target_rate_pps delta ~standing ~min_rtt =
  let dq = queue_delay ~standing ~min_rtt in
  if dq <= 0. then infinity else 1. /. (delta *. dq)

let build fn params cols =
  check_params fn params;
  if Columns.nfields cols <> nfields then
    invalid_arg (fn ^ ": arena has the wrong number of fields");
  let mss = float_of_int params.mss in
  let min_rtt = Window.Extremum.create_min ~window:params.min_rtt_window in
  let standing = Window.Extremum.create_min ~window:0.05 in
  let r = Columns.alloc cols in
  let b = r * nfields in
  let init_row () =
    let d = Columns.data cols in
    d.(b + f_cwnd) <- params.init_cwnd_packets *. mss;
    d.(b + f_srtt) <- 0.;
    d.(b + f_velocity) <- 1.;
    d.(b + f_direction) <- 0.;
    d.(b + f_same_dir) <- 0.;
    d.(b + f_epoch_start) <- 0.;
    d.(b + f_cwnd_at_epoch) <- 0.;
    d.(b + f_slow_start) <- 1.
  in
  init_row ();
  (* The filters were just created; only a reset has to empty them. *)
  let reset () =
    init_row ();
    Window.Extremum.clear min_rtt;
    Window.Extremum.set_window min_rtt params.min_rtt_window;
    Window.Extremum.clear standing;
    Window.Extremum.set_window standing 0.05
  in
  let per_rtt_velocity_update d =
    let cwnd = d.(b + f_cwnd) in
    let dir = if cwnd > d.(b + f_cwnd_at_epoch) then 1. else 2. in
    if d.(b + f_direction) = dir then begin
      let same = d.(b + f_same_dir) +. 1. in
      d.(b + f_same_dir) <- same;
      if same >= 3. then
        d.(b + f_velocity) <- Float.min (d.(b + f_velocity) *. 2.) 1e6
    end
    else begin
      d.(b + f_direction) <- dir;
      d.(b + f_same_dir) <- 0.;
      d.(b + f_velocity) <- 1.
    end;
    d.(b + f_cwnd_at_epoch) <- cwnd
  in
  let on_ack (a : Cca.ack_info) =
    let d = Columns.data cols in
    Window.Extremum.push min_rtt ~time:a.now a.rtt;
    let srtt0 = d.(b + f_srtt) in
    let srtt =
      if srtt0 = 0. then a.rtt else (0.875 *. srtt0) +. (0.125 *. a.rtt)
    in
    d.(b + f_srtt) <- srtt;
    Window.Extremum.set_window standing (Float.max (srtt /. 2.) 1e-4);
    Window.Extremum.push standing ~time:a.now a.rtt;
    let target = target_rate_pps params.delta ~standing ~min_rtt in
    let st = Window.Extremum.get_default standing 0. in
    let current = if st > 0. then d.(b + f_cwnd) /. mss /. st else 0. in
    if d.(b + f_slow_start) = 1. then begin
      if current < target then
        (* Double per RTT: +1 packet per acked packet. *)
        d.(b + f_cwnd) <- d.(b + f_cwnd) +. float_of_int a.acked_bytes
      else d.(b + f_slow_start) <- 0.
    end;
    if d.(b + f_slow_start) <> 1. then begin
      let cwnd = d.(b + f_cwnd) in
      let cwnd_pkts = Float.max (cwnd /. mss) 1. in
      let step = d.(b + f_velocity) *. mss /. (params.delta *. cwnd_pkts) in
      let cwnd = if current <= target then cwnd +. step else cwnd -. step in
      d.(b + f_cwnd) <- Float.max cwnd (2. *. mss)
    end;
    if a.now -. d.(b + f_epoch_start) >= srtt && srtt > 0. then begin
      d.(b + f_epoch_start) <- a.now;
      per_rtt_velocity_update d
    end
  in
  let on_loss (l : Cca.loss_info) =
    let d = Columns.data cols in
    match l.kind with
    | `Timeout -> d.(b + f_cwnd) <- 2. *. mss
    | `Dupack ->
        (* Copa's default mode halves the window on loss. *)
        d.(b + f_cwnd) <- Float.max (d.(b + f_cwnd) /. 2.) (2. *. mss)
  in
  let pacing_rate () =
    let st = Window.Extremum.get_default standing 0. in
    if st > 0. then Some (2. *. (Columns.data cols).(b + f_cwnd) /. st)
    else None
  in
  let cca =
    {
      Cca.name = "copa";
      on_ack;
      on_loss;
      on_send = (fun _ -> ());
      on_timer = (fun _ -> ());
      next_timer = (fun () -> None);
      cwnd = (fun () -> (Columns.data cols).(b + f_cwnd));
      pacing_rate;
      inspect =
        (fun () ->
          let d = Columns.data cols in
          [
            ("cwnd", d.(b + f_cwnd));
            ("min_rtt", Window.Extremum.get_default min_rtt nan);
            ("standing_rtt", Window.Extremum.get_default standing nan);
            ("queue_delay", queue_delay ~standing ~min_rtt);
            ("velocity", d.(b + f_velocity));
            ("target_pps", target_rate_pps params.delta ~standing ~min_rtt);
          ]);
    }
  in
  let release () =
    Window.Extremum.clear min_rtt;
    Window.Extremum.clear standing;
    Columns.free cols r
  in
  { Cca.cca; reset = Some reset; release }

let make_in ?(params = default_params) cols = build "Copa.make_in" params cols

let make ?(params = default_params) () =
  (build "Copa.make" params (Columns.create ~capacity:1 ~nfields ())).Cca.cca

let equilibrium_queue_delay p ~rate = float_of_int p.mss /. (p.delta *. rate)

let delay_band p ~rate ~rm =
  let dq = equilibrium_queue_delay p ~rate in
  (* Empirically Copa's velocity mechanism makes the queue oscillate over
     roughly 4 packets around the 1/delta-packet target (paper §2.2:
     "4 alpha / C for Copa"). *)
  let alpha = float_of_int p.mss /. rate in
  (rm +. Float.max 0. (dq -. (2. *. alpha)), rm +. dq +. (2. *. alpha))

type params = {
  quanta_packets : float;
  enable_quanta : bool;
  cwnd_gain : float;
  startup_gain : float;
  bw_window_rounds : float;
  min_rtt_window : float;
  probe_rtt_duration : float;
  probe_rtt_cwnd_packets : float;
  init_cwnd_packets : float;
  seed : int;
  mss : int;
}

let default_params =
  {
    quanta_packets = 3.;
    enable_quanta = true;
    cwnd_gain = 2.;
    startup_gain = 2.89;
    bw_window_rounds = 10.;
    min_rtt_window = 10.;
    probe_rtt_duration = 0.2;
    probe_rtt_cwnd_packets = 4.;
    init_cwnd_packets = 10.;
    seed = 1;
    mss = Cca.default_mss;
  }

(* Every test fails on NaN.  The filter windows follow
   {!Window.Extremum}: 0 and [infinity] are legal. *)
let check_params p =
  let bad what = invalid_arg ("Bbr.make: " ^ what) in
  if not (Float.is_finite p.quanta_packets && p.quanta_packets >= 0.) then
    bad "quanta_packets must be finite and >= 0";
  if not (Float.is_finite p.cwnd_gain && p.cwnd_gain > 0.) then
    bad "cwnd_gain must be finite and positive";
  if not (Float.is_finite p.startup_gain && p.startup_gain > 0.) then
    bad "startup_gain must be finite and positive";
  if not (p.bw_window_rounds >= 0.) then
    bad "bw_window_rounds must be >= 0";
  if not (p.min_rtt_window >= 0.) then
    bad "min_rtt_window must be >= 0";
  if not (Float.is_finite p.probe_rtt_duration && p.probe_rtt_duration >= 0.) then
    bad "probe_rtt_duration must be finite and >= 0";
  if not (Float.is_finite p.probe_rtt_cwnd_packets && p.probe_rtt_cwnd_packets > 0.)
  then bad "probe_rtt_cwnd_packets must be finite and positive";
  if not (Float.is_finite p.init_cwnd_packets && p.init_cwnd_packets > 0.) then
    bad "init_cwnd_packets must be finite and positive";
  if p.mss <= 0 then bad "mss must be positive"

type mode = Startup | Drain | Probe_bw | Probe_rtt of float (* exit time *)

let gain_cycle = [| 1.25; 0.75; 1.; 1.; 1.; 1.; 1.; 1. |]

type state = {
  p : params;
  mutable mode : mode;
  bw_filter : Window.Extremum.t; (* indexed by round count *)
  mutable min_rtt : float;
  mutable min_rtt_stamp : float;
  mutable round_count : int;
  mutable next_round_delivered : int;
  mutable full_bw : float;
  mutable full_bw_rounds : int;
  mutable cycle_index : int;
  mutable cycle_start : float;
  mutable inflight : int;
  mutable last_rtt : float;
}

let btl_bw s = Window.Extremum.get_default s.bw_filter 0.

let bdp s = btl_bw s *. (if s.min_rtt = infinity then 0. else s.min_rtt)

let quanta_bytes s =
  if s.p.enable_quanta then s.p.quanta_packets *. float_of_int s.p.mss else 0.

let pacing_gain s =
  match s.mode with
  | Startup -> s.p.startup_gain
  | Drain -> 1. /. s.p.startup_gain
  | Probe_bw -> gain_cycle.(s.cycle_index)
  | Probe_rtt _ -> 1.

let cwnd s =
  let mss = float_of_int s.p.mss in
  match s.mode with
  | Probe_rtt _ -> s.p.probe_rtt_cwnd_packets *. mss
  | Startup | Drain | Probe_bw ->
      if btl_bw s <= 0. then s.p.init_cwnd_packets *. mss
      else begin
        let gain = match s.mode with Startup -> s.p.startup_gain | _ -> s.p.cwnd_gain in
        Float.max ((gain *. bdp s) +. quanta_bytes s) (4. *. mss)
      end

(* Tiny deterministic generator for the initial ProbeBW phase. *)
let pick_phase seed =
  let x = (seed * 2654435761) land 0x3FFFFFFF in
  let i = x mod 7 in
  if i >= 1 then i + 1 else i (* any phase except the 0.75 drain slot *)

let enter_probe_bw s now =
  s.mode <- Probe_bw;
  s.cycle_index <- pick_phase (s.p.seed + s.round_count);
  s.cycle_start <- now

let advance_cycle s now =
  if s.min_rtt < infinity && now -. s.cycle_start >= s.min_rtt then begin
    s.cycle_index <- (s.cycle_index + 1) mod Array.length gain_cycle;
    s.cycle_start <- now
  end

let check_full_pipe s =
  let bw = btl_bw s in
  if bw > s.full_bw *. 1.25 then begin
    s.full_bw <- bw;
    s.full_bw_rounds <- 0
  end
  else s.full_bw_rounds <- s.full_bw_rounds + 1

let make ?(params = default_params) () =
  check_params params;
  let s =
    {
      p = params;
      mode = Startup;
      bw_filter = Window.Extremum.create_max ~window:params.bw_window_rounds;
      min_rtt = infinity;
      min_rtt_stamp = 0.;
      round_count = 0;
      next_round_delivered = 0;
      full_bw = 0.;
      full_bw_rounds = 0;
      cycle_index = 0;
      cycle_start = 0.;
      inflight = 0;
      last_rtt = 0.;
    }
  in
  let on_ack (a : Cca.ack_info) =
    s.inflight <- a.inflight;
    s.last_rtt <- a.rtt;
    (* Round accounting: a round ends when a packet sent after the previous
       round's end is acknowledged. *)
    if a.delivered >= s.next_round_delivered then begin
      s.round_count <- s.round_count + 1;
      s.next_round_delivered <- a.delivered_now;
      if s.mode = Startup then begin
        check_full_pipe s;
        if s.full_bw_rounds >= 3 then s.mode <- Drain
      end
    end;
    (* Bandwidth sample into the max filter (windowed by round count). *)
    let sample = Cca.bandwidth_sample a in
    if sample > 0. && not a.app_limited then
      Window.Extremum.push s.bw_filter ~time:(float_of_int s.round_count) sample;
    (* Min RTT filter with explicit expiry. *)
    if a.rtt <= s.min_rtt || a.now -. s.min_rtt_stamp > s.p.min_rtt_window then begin
      let expired = a.now -. s.min_rtt_stamp > s.p.min_rtt_window && a.rtt > s.min_rtt in
      s.min_rtt <- a.rtt;
      s.min_rtt_stamp <- a.now;
      if expired && s.mode = Probe_bw then
        s.mode <- Probe_rtt (a.now +. s.p.probe_rtt_duration)
    end;
    (* Mode transitions. *)
    (match s.mode with
    | Drain ->
        if float_of_int a.inflight <= bdp s then enter_probe_bw s a.now
    | Probe_rtt exit_time ->
        if a.now >= exit_time then begin
          s.min_rtt_stamp <- a.now;
          enter_probe_bw s a.now
        end
    | Probe_bw -> advance_cycle s a.now
    | Startup -> ())
  in
  let on_loss (_ : Cca.loss_info) = () in
  (* BBRv1 ignores losses for rate control. *)
  {
    Cca.name = "bbr";
    on_ack;
    on_loss;
    on_send = (fun (i : Cca.send_info) -> s.inflight <- i.inflight);
    on_timer = (fun _ -> ());
    next_timer = (fun () -> None);
    cwnd = (fun () -> cwnd s);
    pacing_rate =
      (fun () ->
        let bw = btl_bw s in
        if bw <= 0. then None else Some (pacing_gain s *. bw));
    inspect =
      (fun () ->
        [
          ("btl_bw", btl_bw s);
          ("min_rtt", s.min_rtt);
          ("bdp", bdp s);
          ("cwnd", cwnd s);
          ("pacing_gain", pacing_gain s);
          ( "mode",
            match s.mode with
            | Startup -> 0.
            | Drain -> 1.
            | Probe_bw -> 2.
            | Probe_rtt _ -> 3. );
          ("round", float_of_int s.round_count);
        ]);
  }

let equilibrium_rate_cwnd_limited p ~rtt ~rm =
  let alpha = p.quanta_packets *. float_of_int p.mss in
  if rtt <= 2. *. rm then infinity else alpha /. (rtt -. (2. *. rm))

let equilibrium_rtt_cwnd_limited p ~rate ~rm ~n_flows =
  let alpha = p.quanta_packets *. float_of_int p.mss in
  (2. *. rm) +. (float_of_int n_flows *. alpha /. rate)

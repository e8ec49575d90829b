(* Boxed reference implementations of Reno, Copa and Vegas: each keeps
   its state in a mutable record, the most direct reading of the
   algorithm.  The library keeps one columnar body per CCA; the
   trace-equivalence properties in [test_cca.ml] and the population
   equivalence test in [test_sim.ml] compare it with these bit for bit.
   Params are taken as given: the library constructors check them. *)

let reno ?(params = Reno.default_params) () =
  let mss = float_of_int params.Reno.mss in
  let cwnd = ref (params.init_cwnd_packets *. mss)
  and ssthresh = ref params.initial_ssthresh
  and recovery_until = ref neg_infinity
  and last_rtt = ref 0. in
  let on_ack (a : Cca.ack_info) =
    last_rtt := a.rtt;
    let acked = float_of_int a.acked_bytes in
    if !cwnd < !ssthresh then cwnd := !cwnd +. acked
    else cwnd := !cwnd +. (mss *. acked /. !cwnd)
  in
  let on_loss (l : Cca.loss_info) =
    if l.now >= !recovery_until then begin
      recovery_until := l.now +. Float.max !last_rtt 0.01;
      match l.kind with
      | `Dupack ->
          ssthresh := Float.max (!cwnd /. 2.) (2. *. mss);
          cwnd := !ssthresh
      | `Timeout ->
          ssthresh := Float.max (!cwnd /. 2.) (2. *. mss);
          cwnd := mss
    end
  in
  {
    Cca.name = "reno";
    on_ack;
    on_loss;
    on_send = (fun _ -> ());
    on_timer = (fun _ -> ());
    next_timer = (fun () -> None);
    cwnd = (fun () -> !cwnd);
    pacing_rate = (fun () -> None);
    inspect = (fun () -> [ ("cwnd", !cwnd); ("ssthresh", !ssthresh) ]);
  }

type direction = Up | Down | Unset

type copa = {
  p : Copa.params;
  mutable cwnd : float; (* bytes *)
  min_rtt : Window.Extremum.t;
  standing : Window.Extremum.t;
  mutable srtt : float;
  mutable velocity : float;
  mutable direction : direction;
  mutable same_direction_rtts : int;
  mutable epoch_start : float;
  mutable cwnd_at_epoch : float;
  mutable slow_start : bool;
}

let queue_delay s =
  if Window.Extremum.is_empty s.standing || Window.Extremum.is_empty s.min_rtt
  then 0.
  else
    Float.max 0.
      (Window.Extremum.get_default s.standing 0.
      -. Window.Extremum.get_default s.min_rtt 0.)

let target_rate_pps s =
  let dq = queue_delay s in
  if dq <= 0. then infinity else 1. /. (s.p.delta *. dq)

let current_rate_pps s =
  let st = Window.Extremum.get_default s.standing 0. in
  if st > 0. then s.cwnd /. float_of_int s.p.mss /. st else 0.

let copa ?(params = Copa.default_params) () =
  let mss = float_of_int params.Copa.mss in
  let s =
    {
      p = params;
      cwnd = params.init_cwnd_packets *. mss;
      min_rtt = Window.Extremum.create_min ~window:params.min_rtt_window;
      standing = Window.Extremum.create_min ~window:0.05;
      srtt = 0.;
      velocity = 1.;
      direction = Unset;
      same_direction_rtts = 0;
      epoch_start = 0.;
      cwnd_at_epoch = 0.;
      slow_start = true;
    }
  in
  let per_rtt_velocity_update () =
    let dir = if s.cwnd > s.cwnd_at_epoch then Up else Down in
    (match (s.direction, dir) with
    | Up, Up | Down, Down ->
        s.same_direction_rtts <- s.same_direction_rtts + 1;
        if s.same_direction_rtts >= 3 then
          s.velocity <- Float.min (s.velocity *. 2.) 1e6
    | _ ->
        s.direction <- dir;
        s.same_direction_rtts <- 0;
        s.velocity <- 1.);
    s.direction <- dir;
    s.cwnd_at_epoch <- s.cwnd
  in
  let on_ack (a : Cca.ack_info) =
    Window.Extremum.push s.min_rtt ~time:a.now a.rtt;
    s.srtt <-
      (if s.srtt = 0. then a.rtt else (0.875 *. s.srtt) +. (0.125 *. a.rtt));
    Window.Extremum.set_window s.standing (Float.max (s.srtt /. 2.) 1e-4);
    Window.Extremum.push s.standing ~time:a.now a.rtt;
    let target = target_rate_pps s in
    let current = current_rate_pps s in
    if s.slow_start then begin
      if current < target then s.cwnd <- s.cwnd +. float_of_int a.acked_bytes
      else s.slow_start <- false
    end;
    if not s.slow_start then begin
      let cwnd_pkts = Float.max (s.cwnd /. mss) 1. in
      let step = s.velocity *. mss /. (s.p.delta *. cwnd_pkts) in
      if current <= target then s.cwnd <- s.cwnd +. step
      else s.cwnd <- s.cwnd -. step;
      s.cwnd <- Float.max s.cwnd (2. *. mss)
    end;
    if a.now -. s.epoch_start >= s.srtt && s.srtt > 0. then begin
      s.epoch_start <- a.now;
      per_rtt_velocity_update ()
    end
  in
  let on_loss (l : Cca.loss_info) =
    match l.kind with
    | `Timeout -> s.cwnd <- 2. *. mss
    | `Dupack -> s.cwnd <- Float.max (s.cwnd /. 2.) (2. *. mss)
  in
  let pacing_rate () =
    let st = Window.Extremum.get_default s.standing 0. in
    if st > 0. then Some (2. *. s.cwnd /. st) else None
  in
  {
    Cca.name = "copa";
    on_ack;
    on_loss;
    on_send = (fun _ -> ());
    on_timer = (fun _ -> ());
    next_timer = (fun () -> None);
    cwnd = (fun () -> s.cwnd);
    pacing_rate;
    inspect =
      (fun () ->
        [
          ("cwnd", s.cwnd);
          ("min_rtt", Window.Extremum.get_default s.min_rtt nan);
          ("standing_rtt", Window.Extremum.get_default s.standing nan);
          ("queue_delay", queue_delay s);
          ("velocity", s.velocity);
          ("target_pps", target_rate_pps s);
        ]);
  }

type vegas = {
  v : Vegas.params;
  mutable cwnd : float; (* bytes *)
  mutable base_rtt : float;
  mutable last_rtt : float;
  mutable epoch_start : float; (* time the current once-per-RTT epoch began *)
  mutable slow_start : bool;
  mutable ss_parity : bool; (* Vegas doubles every other RTT in slow start *)
}

let queued_packets (s : vegas) =
  if s.last_rtt <= 0. || s.base_rtt = infinity then 0.
  else
    s.cwnd /. float_of_int s.v.mss *. ((s.last_rtt -. s.base_rtt) /. s.last_rtt)

let per_rtt_update (s : vegas) =
  let mss = float_of_int s.v.mss in
  let diff = queued_packets s in
  if s.slow_start then begin
    if diff > s.v.gamma then s.slow_start <- false
    else begin
      s.ss_parity <- not s.ss_parity;
      if s.ss_parity then s.cwnd <- s.cwnd *. 2.
    end
  end;
  if not s.slow_start then begin
    if diff < s.v.alpha then s.cwnd <- s.cwnd +. mss
    else if diff > s.v.beta then s.cwnd <- s.cwnd -. mss
  end;
  s.cwnd <- Float.max s.cwnd (2. *. mss)

let vegas ?(params = Vegas.default_params) () =
  let mss = float_of_int params.Vegas.mss in
  let s =
    {
      v = params;
      cwnd = params.init_cwnd_packets *. mss;
      base_rtt = infinity;
      last_rtt = 0.;
      epoch_start = 0.;
      slow_start = true;
      ss_parity = false;
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
    | `Timeout -> s.cwnd <- 2. *. mss
    | `Dupack -> s.cwnd <- Float.max (s.cwnd /. 2.) (2. *. mss)
  in
  {
    Cca.name = "vegas";
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
          ("base_rtt", s.base_rtt);
          ("queued_packets", queued_packets s);
          ("slow_start", if s.slow_start then 1. else 0.);
        ]);
  }

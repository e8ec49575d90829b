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

(* Shared by [make] and [make_in], so the two constructors accept the
   same params.  Every test fails on NaN.  [min_rtt_window] is checked
   by {!Window.Extremum} (0 is legal). *)
let check_params fn p =
  if not (Float.is_finite p.delta && p.delta > 0.) then
    invalid_arg (fn ^ ": delta must be finite and positive");
  if not (Float.is_finite p.init_cwnd_packets && p.init_cwnd_packets > 0.) then
    invalid_arg (fn ^ ": init_cwnd_packets must be finite and positive");
  if p.mss <= 0 then invalid_arg (fn ^ ": mss must be positive")

type direction = Up | Down | Unset

type state = {
  p : params;
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

let mss_f s = float_of_int s.p.mss

(* The filter reads below use [get_default], not [get], so a read builds
   no [Some].  An empty filter is tested explicitly where the default
   could leak into the result (a NaN default would reach [Float.max]);
   a 0. default already fails the [st > 0.] guards. *)
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
  if st > 0. then s.cwnd /. mss_f s /. st else 0.

let make ?(params = default_params) () =
  check_params "Copa.make" params;
  let s =
    {
      p = params;
      cwnd = params.init_cwnd_packets *. float_of_int params.mss;
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
        if s.same_direction_rtts >= 3 then s.velocity <- Float.min (s.velocity *. 2.) 1e6
    | _ ->
        s.direction <- dir;
        s.same_direction_rtts <- 0;
        s.velocity <- 1.);
    s.direction <- dir;
    s.cwnd_at_epoch <- s.cwnd
  in
  let on_ack (a : Cca.ack_info) =
    let mss = mss_f s in
    Window.Extremum.push s.min_rtt ~time:a.now a.rtt;
    s.srtt <- (if s.srtt = 0. then a.rtt else (0.875 *. s.srtt) +. (0.125 *. a.rtt));
    Window.Extremum.set_window s.standing (Float.max (s.srtt /. 2.) 1e-4);
    Window.Extremum.push s.standing ~time:a.now a.rtt;
    let target = target_rate_pps s in
    let current = current_rate_pps s in
    if s.slow_start then begin
      if current < target then
        (* Double per RTT: +1 packet per acked packet. *)
        s.cwnd <- s.cwnd +. float_of_int a.acked_bytes
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
    | `Timeout -> s.cwnd <- 2. *. mss_f s
    | `Dupack ->
        (* Copa's default mode halves the window on loss. *)
        s.cwnd <- Float.max (s.cwnd /. 2.) (2. *. mss_f s)
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

(* --- Columnar variant ---------------------------------------------------- *)

(* Same algorithm as [make] with the float state in one row of a shared
   {!Columns} arena.  Copa is only partially columnar: the two
   windowed-minimum deques are inherently variable-length and stay per
   instance (rings bounded by the window's sample count, cleared on
   reset/release without giving up their storage).  Direction is encoded
   0/1/2 = Unset/Up/Down, the same-direction RTT count and the slow-start flag
   as small exact floats, so every update below is bit-identical to the
   boxed path — asserted by the trace-equivalence qcheck property. *)

let nfields = 8
let f_cwnd = 0
let f_srtt = 1
let f_velocity = 2
let f_direction = 3 (* 0 = Unset, 1 = Up, 2 = Down *)
let f_same_dir = 4
let f_epoch_start = 5
let f_cwnd_at_epoch = 6
let f_slow_start = 7 (* 1 = slow start *)

let make_in ?(params = default_params) cols =
  check_params "Copa.make_in" params;
  if Columns.nfields cols <> nfields then
    invalid_arg "Copa.make_in: arena has the wrong number of fields";
  let mss = float_of_int params.mss in
  let r = Columns.alloc cols in
  let min_rtt = Window.Extremum.create_min ~window:params.min_rtt_window in
  let standing = Window.Extremum.create_min ~window:0.05 in
  let reset () =
    Columns.set cols r f_cwnd (params.init_cwnd_packets *. mss);
    Columns.set cols r f_srtt 0.;
    Columns.set cols r f_velocity 1.;
    Columns.set cols r f_direction 0.;
    Columns.set cols r f_same_dir 0.;
    Columns.set cols r f_epoch_start 0.;
    Columns.set cols r f_cwnd_at_epoch 0.;
    Columns.set cols r f_slow_start 1.;
    Window.Extremum.clear min_rtt;
    Window.Extremum.set_window min_rtt params.min_rtt_window;
    Window.Extremum.clear standing;
    Window.Extremum.set_window standing 0.05
  in
  reset ();
  let queue_delay () =
    if Window.Extremum.is_empty standing || Window.Extremum.is_empty min_rtt
    then 0.
    else
      Float.max 0.
        (Window.Extremum.get_default standing 0.
        -. Window.Extremum.get_default min_rtt 0.)
  in
  let target_rate_pps () =
    let dq = queue_delay () in
    if dq <= 0. then infinity else 1. /. (params.delta *. dq)
  in
  let current_rate_pps () =
    let st = Window.Extremum.get_default standing 0. in
    if st > 0. then Columns.get cols r f_cwnd /. mss /. st else 0.
  in
  let per_rtt_velocity_update () =
    let dir =
      if Columns.get cols r f_cwnd > Columns.get cols r f_cwnd_at_epoch then 1.
      else 2.
    in
    (if Columns.get cols r f_direction = dir then begin
       let same = Columns.get cols r f_same_dir +. 1. in
       Columns.set cols r f_same_dir same;
       if same >= 3. then
         Columns.set cols r f_velocity
           (Float.min (Columns.get cols r f_velocity *. 2.) 1e6)
     end
     else begin
       Columns.set cols r f_direction dir;
       Columns.set cols r f_same_dir 0.;
       Columns.set cols r f_velocity 1.
     end);
    Columns.set cols r f_direction dir;
    Columns.set cols r f_cwnd_at_epoch (Columns.get cols r f_cwnd)
  in
  let on_ack (a : Cca.ack_info) =
    Window.Extremum.push min_rtt ~time:a.now a.rtt;
    let srtt0 = Columns.get cols r f_srtt in
    let srtt =
      if srtt0 = 0. then a.rtt else (0.875 *. srtt0) +. (0.125 *. a.rtt)
    in
    Columns.set cols r f_srtt srtt;
    Window.Extremum.set_window standing (Float.max (srtt /. 2.) 1e-4);
    Window.Extremum.push standing ~time:a.now a.rtt;
    let target = target_rate_pps () in
    let current = current_rate_pps () in
    if Columns.get cols r f_slow_start = 1. then begin
      if current < target then
        Columns.set cols r f_cwnd
          (Columns.get cols r f_cwnd +. float_of_int a.acked_bytes)
      else Columns.set cols r f_slow_start 0.
    end;
    if Columns.get cols r f_slow_start <> 1. then begin
      let cwnd = Columns.get cols r f_cwnd in
      let cwnd_pkts = Float.max (cwnd /. mss) 1. in
      let step =
        Columns.get cols r f_velocity *. mss /. (params.delta *. cwnd_pkts)
      in
      let cwnd = if current <= target then cwnd +. step else cwnd -. step in
      Columns.set cols r f_cwnd (Float.max cwnd (2. *. mss))
    end;
    if a.now -. Columns.get cols r f_epoch_start >= srtt && srtt > 0. then begin
      Columns.set cols r f_epoch_start a.now;
      per_rtt_velocity_update ()
    end
  in
  let on_loss (l : Cca.loss_info) =
    match l.kind with
    | `Timeout -> Columns.set cols r f_cwnd (2. *. mss)
    | `Dupack ->
        Columns.set cols r f_cwnd
          (Float.max (Columns.get cols r f_cwnd /. 2.) (2. *. mss))
  in
  let pacing_rate () =
    let st = Window.Extremum.get_default standing 0. in
    if st > 0. then Some (2. *. Columns.get cols r f_cwnd /. st) else None
  in
  let cca =
    {
      Cca.name = "copa";
      on_ack;
      on_loss;
      on_send = (fun _ -> ());
      on_timer = (fun _ -> ());
      next_timer = (fun () -> None);
      cwnd = (fun () -> Columns.get cols r f_cwnd);
      pacing_rate;
      inspect =
        (fun () ->
          [
            ("cwnd", Columns.get cols r f_cwnd);
            ("min_rtt", Window.Extremum.get_default min_rtt nan);
            ("standing_rtt", Window.Extremum.get_default standing nan);
            ("queue_delay", queue_delay ());
            ("velocity", Columns.get cols r f_velocity);
            ("target_pps", target_rate_pps ());
          ]);
    }
  in
  let release () =
    Window.Extremum.clear min_rtt;
    Window.Extremum.clear standing;
    Columns.free cols r
  in
  { Cca.cca; reset = Some reset; release }

let equilibrium_queue_delay p ~rate = float_of_int p.mss /. (p.delta *. rate)

let delay_band p ~rate ~rm =
  let dq = equilibrium_queue_delay p ~rate in
  (* Empirically Copa's velocity mechanism makes the queue oscillate over
     roughly 4 packets around the 1/delta-packet target (paper §2.2:
     "4 alpha / C for Copa"). *)
  let alpha = float_of_int p.mss /. rate in
  (rm +. Float.max 0. (dq -. (2. *. alpha)), rm +. dq +. (2. *. alpha))

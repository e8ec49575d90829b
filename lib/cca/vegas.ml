type params = {
  alpha : float;
  beta : float;
  gamma : float;
  init_cwnd_packets : float;
  mss : int;
}

let default_params =
  { alpha = 2.; beta = 4.; gamma = 1.; init_cwnd_packets = 4.; mss = Cca.default_mss }

(* Shared by [make] and [make_in], so the two constructors accept the
   same params.  Every test fails on NaN. *)
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

type state = {
  p : params;
  mutable cwnd : float; (* bytes *)
  mutable base_rtt : float;
  mutable last_rtt : float;
  mutable epoch_start : float; (* time the current once-per-RTT epoch began *)
  mutable slow_start : bool;
  mutable ss_parity : bool; (* Vegas doubles every other RTT in slow start *)
}

let queued_packets s =
  if s.last_rtt <= 0. || s.base_rtt = infinity then 0.
  else
    s.cwnd /. float_of_int s.p.mss *. ((s.last_rtt -. s.base_rtt) /. s.last_rtt)

let per_rtt_update s =
  let mss = float_of_int s.p.mss in
  let diff = queued_packets s in
  if s.slow_start then begin
    if diff > s.p.gamma then s.slow_start <- false
    else begin
      s.ss_parity <- not s.ss_parity;
      if s.ss_parity then s.cwnd <- s.cwnd *. 2.
    end
  end;
  if not s.slow_start then begin
    if diff < s.p.alpha then s.cwnd <- s.cwnd +. mss
    else if diff > s.p.beta then s.cwnd <- s.cwnd -. mss
  end;
  s.cwnd <- Float.max s.cwnd (2. *. mss)

(* --- Columnar variant ---------------------------------------------------- *)

(* Same algorithm as [make], with the mutable record replaced by one row
   of a shared {!Columns} arena.  Kept textually parallel to the boxed
   path on purpose — a qcheck property asserts bitwise trace
   equivalence, so the boxed implementation stays the readable
   reference.  Booleans live in float cells (0. / 1.); [base_rtt]'s
   initial [infinity] round-trips through the column unchanged. *)

let nfields = 6
let f_cwnd = 0
let f_base_rtt = 1
let f_last_rtt = 2
let f_epoch_start = 3
let f_slow_start = 4
let f_ss_parity = 5

let make_in ?(params = default_params) cols =
  check_params "Vegas.make_in" params;
  if Columns.nfields cols <> nfields then
    invalid_arg "Vegas.make_in: arena has the wrong number of fields";
  let mss = float_of_int params.mss in
  let r = Columns.alloc cols in
  let reset () =
    Columns.set cols r f_cwnd (params.init_cwnd_packets *. mss);
    Columns.set cols r f_base_rtt infinity;
    Columns.set cols r f_last_rtt 0.;
    Columns.set cols r f_epoch_start 0.;
    Columns.set cols r f_slow_start 1.;
    Columns.set cols r f_ss_parity 0.
  in
  reset ();
  let queued_packets () =
    let last_rtt = Columns.get cols r f_last_rtt in
    if last_rtt <= 0. || Columns.get cols r f_base_rtt = infinity then 0.
    else
      Columns.get cols r f_cwnd /. mss
      *. ((last_rtt -. Columns.get cols r f_base_rtt) /. last_rtt)
  in
  let per_rtt_update () =
    let diff = queued_packets () in
    if Columns.get cols r f_slow_start = 1. then begin
      if diff > params.gamma then Columns.set cols r f_slow_start 0.
      else begin
        Columns.set cols r f_ss_parity
          (1. -. Columns.get cols r f_ss_parity);
        if Columns.get cols r f_ss_parity = 1. then
          Columns.set cols r f_cwnd (Columns.get cols r f_cwnd *. 2.)
      end
    end;
    if Columns.get cols r f_slow_start <> 1. then begin
      if diff < params.alpha then
        Columns.set cols r f_cwnd (Columns.get cols r f_cwnd +. mss)
      else if diff > params.beta then
        Columns.set cols r f_cwnd (Columns.get cols r f_cwnd -. mss)
    end;
    Columns.set cols r f_cwnd
      (Float.max (Columns.get cols r f_cwnd) (2. *. mss))
  in
  let on_ack (a : Cca.ack_info) =
    if a.rtt < Columns.get cols r f_base_rtt then
      Columns.set cols r f_base_rtt a.rtt;
    Columns.set cols r f_last_rtt a.rtt;
    if a.now -. Columns.get cols r f_epoch_start >= a.rtt then begin
      Columns.set cols r f_epoch_start a.now;
      per_rtt_update ()
    end
  in
  let on_loss (l : Cca.loss_info) =
    match l.kind with
    | `Timeout -> Columns.set cols r f_cwnd (2. *. mss)
    | `Dupack ->
        Columns.set cols r f_cwnd
          (Float.max (Columns.get cols r f_cwnd /. 2.) (2. *. mss))
  in
  let cca =
    {
      Cca.name = "vegas";
      on_ack;
      on_loss;
      on_send = (fun _ -> ());
      on_timer = (fun _ -> ());
      next_timer = (fun () -> None);
      cwnd = (fun () -> Columns.get cols r f_cwnd);
      pacing_rate = (fun () -> None);
      inspect =
        (fun () ->
          [
            ("cwnd", Columns.get cols r f_cwnd);
            ("base_rtt", Columns.get cols r f_base_rtt);
            ("queued_packets", queued_packets ());
            ("slow_start", Columns.get cols r f_slow_start);
          ]);
    }
  in
  { Cca.cca; reset = Some reset; release = (fun () -> Columns.free cols r) }

let make ?(params = default_params) () =
  check_params "Vegas.make" params;
  let s =
    {
      p = params;
      cwnd = params.init_cwnd_packets *. float_of_int params.mss;
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
    | `Timeout -> s.cwnd <- 2. *. float_of_int s.p.mss
    | `Dupack -> s.cwnd <- Float.max (s.cwnd /. 2.) (2. *. float_of_int s.p.mss)
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

let equilibrium_rtt p ~rate ~rm =
  let target = (p.alpha +. p.beta) /. 2. in
  rm +. (target *. float_of_int p.mss /. rate)

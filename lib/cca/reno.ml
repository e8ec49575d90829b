type params = {
  init_cwnd_packets : float;
  initial_ssthresh : float;
  mss : int;
}

let default_params =
  { init_cwnd_packets = 4.; initial_ssthresh = infinity; mss = Cca.default_mss }

(* Shared by [make] and [make_in], so the two constructors accept the
   same params.  Every test fails on NaN. *)
let check_params fn p =
  if not (Float.is_finite p.init_cwnd_packets && p.init_cwnd_packets > 0.) then
    invalid_arg (fn ^ ": init_cwnd_packets must be finite and positive");
  if not (p.initial_ssthresh > 0.) then
    invalid_arg (fn ^ ": initial_ssthresh must be positive");
  if p.mss <= 0 then invalid_arg (fn ^ ": mss must be positive")

type state = {
  p : params;
  mutable cwnd : float;
  mutable ssthresh : float;
  mutable recovery_until : float;
  mutable last_rtt : float;
}

(* --- Columnar variant ---------------------------------------------------- *)

(* Same algorithm as [make], with the mutable record replaced by one row
   of a shared {!Columns} arena.  The two implementations are kept
   textually parallel on purpose: a qcheck property asserts they are
   trace-equivalent (byte-identical census output), so any drift between
   them is caught, and the boxed path remains the readable reference. *)

let nfields = 4
let f_cwnd = 0
let f_ssthresh = 1
let f_recovery = 2
let f_last_rtt = 3

let make_in ?(params = default_params) cols =
  check_params "Reno.make_in" params;
  if Columns.nfields cols <> nfields then
    invalid_arg "Reno.make_in: arena has the wrong number of fields";
  let mss = float_of_int params.mss in
  let r = Columns.alloc cols in
  let reset () =
    Columns.set cols r f_cwnd (params.init_cwnd_packets *. mss);
    Columns.set cols r f_ssthresh params.initial_ssthresh;
    Columns.set cols r f_recovery neg_infinity;
    Columns.set cols r f_last_rtt 0.
  in
  reset ();
  let on_ack (a : Cca.ack_info) =
    Columns.set cols r f_last_rtt a.rtt;
    let acked = float_of_int a.acked_bytes in
    let cwnd = Columns.get cols r f_cwnd in
    if cwnd < Columns.get cols r f_ssthresh then
      Columns.set cols r f_cwnd (cwnd +. acked)
    else Columns.set cols r f_cwnd (cwnd +. (mss *. acked /. cwnd))
  in
  let on_loss (l : Cca.loss_info) =
    if l.now >= Columns.get cols r f_recovery then begin
      Columns.set cols r f_recovery
        (l.now +. Float.max (Columns.get cols r f_last_rtt) 0.01);
      match l.kind with
      | `Dupack ->
          let ss = Float.max (Columns.get cols r f_cwnd /. 2.) (2. *. mss) in
          Columns.set cols r f_ssthresh ss;
          Columns.set cols r f_cwnd ss
      | `Timeout ->
          Columns.set cols r f_ssthresh
            (Float.max (Columns.get cols r f_cwnd /. 2.) (2. *. mss));
          Columns.set cols r f_cwnd mss
    end
  in
  let cca =
    {
      Cca.name = "reno";
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
            ("ssthresh", Columns.get cols r f_ssthresh);
          ]);
    }
  in
  { Cca.cca; reset = Some reset; release = (fun () -> Columns.free cols r) }

let make ?(params = default_params) () =
  check_params "Reno.make" params;
  let mss = float_of_int params.mss in
  let s =
    {
      p = params;
      cwnd = params.init_cwnd_packets *. mss;
      ssthresh = params.initial_ssthresh;
      recovery_until = neg_infinity;
      last_rtt = 0.;
    }
  in
  let on_ack (a : Cca.ack_info) =
    s.last_rtt <- a.rtt;
    let acked = float_of_int a.acked_bytes in
    if s.cwnd < s.ssthresh then s.cwnd <- s.cwnd +. acked
    else s.cwnd <- s.cwnd +. (mss *. acked /. s.cwnd)
  in
  let on_loss (l : Cca.loss_info) =
    if l.now >= s.recovery_until then begin
      s.recovery_until <- l.now +. Float.max s.last_rtt 0.01;
      match l.kind with
      | `Dupack ->
          s.ssthresh <- Float.max (s.cwnd /. 2.) (2. *. mss);
          s.cwnd <- s.ssthresh
      | `Timeout ->
          s.ssthresh <- Float.max (s.cwnd /. 2.) (2. *. mss);
          s.cwnd <- mss
    end
  in
  {
    Cca.name = "reno";
    on_ack;
    on_loss;
    on_send = (fun _ -> ());
    on_timer = (fun _ -> ());
    next_timer = (fun () -> None);
    cwnd = (fun () -> s.cwnd);
    pacing_rate = (fun () -> None);
    inspect = (fun () -> [ ("cwnd", s.cwnd); ("ssthresh", s.ssthresh) ]);
  }

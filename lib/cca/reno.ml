type params = {
  init_cwnd_packets : float;
  initial_ssthresh : float;
  mss : int;
}

let default_params =
  { init_cwnd_packets = 4.; initial_ssthresh = infinity; mss = Cca.default_mss }

(* Every test fails on NaN. *)
let check_params fn p =
  if not (Float.is_finite p.init_cwnd_packets && p.init_cwnd_packets > 0.) then
    invalid_arg (fn ^ ": init_cwnd_packets must be finite and positive");
  if not (p.initial_ssthresh > 0.) then
    invalid_arg (fn ^ ": initial_ssthresh must be positive");
  if p.mss <= 0 then invalid_arg (fn ^ ": mss must be positive")

(* The state is one row of a {!Columns} arena: [make_in] takes a row of
   a shared arena, [make] gives the instance an arena of its own.  Each
   callback reads the backing array once and indexes it at the row's
   base offset [b], so [on_ack] allocates nothing.  The boxed reference
   implementation the tests compare against is in [test/cca_oracle.ml]. *)

let nfields = 4
let f_cwnd = 0
let f_ssthresh = 1
let f_recovery = 2
let f_last_rtt = 3

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
    d.(b + f_ssthresh) <- params.initial_ssthresh;
    d.(b + f_recovery) <- neg_infinity;
    d.(b + f_last_rtt) <- 0.
  in
  reset ();
  let on_ack (a : Cca.ack_info) =
    let d = Columns.data cols in
    d.(b + f_last_rtt) <- a.rtt;
    let acked = float_of_int a.acked_bytes in
    let cwnd = d.(b + f_cwnd) in
    if cwnd < d.(b + f_ssthresh) then d.(b + f_cwnd) <- cwnd +. acked
    else d.(b + f_cwnd) <- cwnd +. (mss *. acked /. cwnd)
  in
  let on_loss (l : Cca.loss_info) =
    let d = Columns.data cols in
    if l.now >= d.(b + f_recovery) then begin
      d.(b + f_recovery) <- l.now +. Float.max d.(b + f_last_rtt) 0.01;
      let ss = Float.max (d.(b + f_cwnd) /. 2.) (2. *. mss) in
      d.(b + f_ssthresh) <- ss;
      d.(b + f_cwnd) <- (match l.kind with `Dupack -> ss | `Timeout -> mss)
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
      cwnd = (fun () -> (Columns.data cols).(b + f_cwnd));
      pacing_rate = (fun () -> None);
      inspect =
        (fun () ->
          let d = Columns.data cols in
          [ ("cwnd", d.(b + f_cwnd)); ("ssthresh", d.(b + f_ssthresh)) ]);
    }
  in
  { Cca.cca; reset = Some reset; release = (fun () -> Columns.free cols r) }

let make_in ?(params = default_params) cols = build "Reno.make_in" params cols

let make ?(params = default_params) () =
  (build "Reno.make" params (Columns.create ~capacity:1 ~nfields ())).Cca.cca

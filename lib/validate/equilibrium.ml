open Sim

(* Time-average queue occupancy (bytes) from the link's recorded step
   series: exact integral over the window, not an event-weighted mean. *)
let mean_queue_bytes net ~t0 ~t1 =
  let series = Link.queue_series (Network.link net) in
  Series.integral series ~t0 ~t1 /. (t1 -. t0)

(* Single Reno flow, 2% i.i.d. loss, a link fast enough that queueing is
   negligible.  Judges measured goodput against the square-root law
   evaluated at the measured mean RTT. *)
let reno_loss_law ?(seed = 7) () =
  let p = 0.02 in
  let rate = Units.mbps 100. in
  let rm = Units.ms 40. in
  let duration = 60. in
  let cfg =
    Network.config ~rate:(Link.Constant rate) ~rm ~seed ~duration
      [ Network.flow ~loss_rate:p (Reno.make ()) ]
  in
  let net = Network.run_config cfg in
  let mss = Flow.mss (Network.flows net).(0) in
  let t0 = 0.25 *. duration and t1 = duration in
  let observed = Network.throughput net ~flow:0 ~t0 ~t1 in
  (* Evaluate the law at the measured mean RTT so a small standing queue
     doesn't masquerade as a loss-response bug. *)
  let rtt =
    match Series.mean_in (Flow.rtt_series (Network.flows net).(0)) ~t0 ~t1 with
    | Some r -> r
    | None -> rm
  in
  let expected = float_of_int mss *. sqrt 1.5 /. (rtt *. sqrt p) in
  [
    Oracle.check ~oracle:"reno-loss-law" ~scenario:"reno-p2pct"
      ~expected ~observed
      ~tolerance:(0.25 *. expected)
      ~detail:
        (Printf.sprintf "p=%.3f mean_rtt=%.4fs mss=%d window=[%.0f,%.0f]" p rtt
           mss t0 t1)
      ();
  ]

(* Single Vegas flow on an ideal path: the time-averaged standing queue
   must sit within the alpha..beta-packet corridor. *)
let vegas_standing_queue ?(seed = 7) () =
  let rate = Units.mbps 20. in
  let rm = Units.ms 40. in
  let duration = 30. in
  let cfg =
    Network.config ~rate:(Link.Constant rate) ~rm ~seed ~record_queue:true ~duration
      [ Network.flow (Vegas.make ()) ]
  in
  let net = Network.run_config cfg in
  let p = Vegas.default_params in
  let mss = float_of_int p.Vegas.mss in
  let observed = mean_queue_bytes net ~t0:(duration /. 3.) ~t1:duration in
  (* Corridor [alpha, beta] packets, with one packet of slack on each
     side for the once-per-RTT adjustment granularity. *)
  let expected = (p.Vegas.alpha +. p.Vegas.beta) /. 2. *. mss in
  let tolerance =
    (((p.Vegas.beta -. p.Vegas.alpha) /. 2.) +. 1.) *. mss
  in
  [
    Oracle.check ~oracle:"vegas-standing-queue" ~scenario:"vegas-solo"
      ~expected ~observed ~tolerance
      ~detail:
        (Printf.sprintf "alpha=%g beta=%g mss=%g C=%.0fB/s" p.Vegas.alpha
           p.Vegas.beta mss rate)
      ();
  ]

(* Single Copa flow on an ideal path: the time-averaged queueing delay
   must sit within the oscillation band around mss / (delta * C). *)
let copa_standing_queue ?(seed = 7) () =
  let rate = Units.mbps 20. in
  let rm = Units.ms 40. in
  let duration = 30. in
  let cfg =
    Network.config ~rate:(Link.Constant rate) ~rm ~seed ~record_queue:true ~duration
      [ Network.flow (Copa.make ()) ]
  in
  let net = Network.run_config cfg in
  let p = Copa.default_params in
  let mss = float_of_int p.Copa.mss in
  let observed_delay =
    mean_queue_bytes net ~t0:(duration /. 3.) ~t1:duration /. rate
  in
  let expected = Copa.equilibrium_queue_delay p ~rate in
  (* Copa sweeps a sawtooth of ~4 mss around the target (§2.2); the
     time-average can sit anywhere inside it, so accept half the band
     plus half the target. *)
  let tolerance = (2. *. mss /. rate) +. (0.5 *. expected) in
  [
    Oracle.check ~oracle:"copa-standing-queue" ~scenario:"copa-solo"
      ~expected ~observed:observed_delay ~tolerance
      ~detail:
        (Printf.sprintf "delta=%g mss=%g C=%.0fB/s" p.Copa.delta mss rate)
      ();
  ]

let all ?seed () =
  reno_loss_law ?seed ()
  @ vegas_standing_queue ?seed ()
  @ copa_standing_queue ?seed ()

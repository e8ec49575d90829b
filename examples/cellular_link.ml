(* Cellular-style bursty link: the §6.5 "strong model" as a demo.

   The paper's §2.1 names cellular links (tens of milliseconds of delay
   variation) among the jitter sources that defeat delay-convergent CCAs,
   and its §6.5 strong model lets the bottleneck rate be an arbitrary
   function of time.  This example builds such a rate — fast and slow
   regimes, 5x apart, with random dwell times — as a piecewise-constant
   link and compares how the CCA families fare on it.

   Run with: dune exec examples/cellular_link.exe *)

(* Alternate fast and slow regimes, [burstiness] times apart, each
   lasting 0.1-0.4 s; the two rates average to [mean_rate]. *)
let bursty_rate ~rng ~mean_rate ~burstiness ~duration =
  let fast = mean_rate *. 2. *. burstiness /. (1. +. burstiness)
  and slow = mean_rate *. 2. /. (1. +. burstiness) in
  let rec regimes t in_fast acc =
    if t >= duration then Array.of_list (List.rev acc)
    else
      let dwell = Sim.Rng.uniform rng ~lo:0.1 ~hi:0.4 in
      regimes (t +. dwell) (not in_fast)
        ((t, if in_fast then fast else slow) :: acc)
  in
  Sim.Link.Piecewise (regimes 0. true [])

let () =
  let duration = 30. and t0 = 10. (* measure after the start-up *) in
  let rate =
    bursty_rate ~rng:(Sim.Rng.create ~seed:11) ~mean_rate:(Sim.Units.mbps 12.)
      ~burstiness:5. ~duration
  in
  let mean_rate = Sim.Link.mean_rate rate ~t0 ~t1:duration in
  let rm = Sim.Units.ms 40. in
  let run name make_cca =
    let net =
      Sim.Network.run_config
        (Sim.Network.config ~rate ~buffer:(120 * 1500) ~rm ~duration
           [ Sim.Network.flow (make_cca ()) ])
    in
    let x = Sim.Network.throughput net ~flow:0 ~t0 ~t1:duration in
    let f = (Sim.Network.flows net).(0) in
    let rtts =
      Sim.Series.window_values (Sim.Flow.rtt_series f) ~t0 ~t1:duration
    in
    let p95 =
      if Array.length rtts = 0 then nan else Sim.Stats.percentile rtts 95.
    in
    Printf.printf "%-8s  throughput %6.2f Mbit/s (util %4.2f)   p95 RTT %6.1f ms\n"
      name (Sim.Units.to_mbps x)
      (x /. mean_rate)
      (Sim.Units.to_ms p95)
  in
  Printf.printf
    "Bursty cellular-style link: %.1f Mbit/s average over %.0f-%.0f s, \
     5x bursty, Rm = 40 ms\n\n"
    (Sim.Units.to_mbps mean_rate) t0 duration;
  run "reno" (fun () -> Reno.make ());
  run "cubic" (fun () -> Cubic.make ());
  run "vegas" (fun () -> Vegas.make ());
  run "copa" (fun () -> Copa.make ());
  run "ledbat" (fun () -> Ledbat.make ());
  run "bbr" (fun () -> Bbr.make ());
  print_newline ();
  print_endline
    "The burst structure is exactly the non-congestive jitter of the paper's\n\
     sec. 2.1: delay-convergent CCAs leave throughput on the table or inflate\n\
     delay, depending on which side of their delay band the bursts land."

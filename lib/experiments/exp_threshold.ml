type point = {
  jitter : float;
  jitter_over_delta : float;
  ratio : float;
}

let rate = Sim.Units.mbps 24.
let rm = 0.04

(* Each flow's fair share is rate/2; Copa's equilibrium oscillation at that
   share (paper §2.2: 4 alpha / C) is the natural unit for D. *)
let delta_max = 4. *. 1500. /. (rate /. 2.)

let ratio_of x1 x2 = Float.max x1 x2 /. Float.max (Float.min x1 x2) 1.
let late_jitter jitter_d t = if t < 1. then 0. else jitter_d

let measure_ratio ~jitter_d ~duration =
  let net =
    Sim.Network.run_config
      (Sim.Network.config ~rate:(Sim.Link.Constant rate) ~rm ~duration
         [
           Sim.Network.flow
             ~jitter:(Sim.Jitter.Trace (late_jitter jitter_d))
             ~jitter_bound:jitter_d (Copa.make ());
           Sim.Network.flow (Copa.make ());
         ])
  in
  let t0 = duration /. 2. in
  ratio_of
    (Sim.Network.throughput net ~flow:0 ~t0 ~t1:duration)
    (Sim.Network.throughput net ~flow:1 ~t0 ~t1:duration)

(* Same scenario on the fluid backend: the poisoned flow's jitter trace
   feeds the law's min-delay estimate exactly as the ACK path feeds
   Copa's min-RTT window.  The ratio is over counted bytes in the same
   half-open measurement window (ratios are scale-free, so bytes vs
   bytes/sec does not matter). *)
let measure_ratio_fluid ~jitter_d ~duration =
  let law = Ccac.Model.copa_fluid () in
  let eng =
    Fluid.Engine.run_config
      (Fluid.Engine.config ~rate ~rm ~duration ~measure_from:(duration /. 2.)
         [
           Fluid.Engine.flow ~jitter:(late_jitter jitter_d) law;
           Fluid.Engine.flow law;
         ])
  in
  ratio_of (Fluid.Engine.counted_bytes eng 0) (Fluid.Engine.counted_bytes eng 1)

(* Hybrid: packet-level inside a window after t=0 (flow start) and t=1
   (jitter activation — the only discontinuities this scenario has),
   fluid in between and after.  The starvation verdict depends on the
   poisoned min-RTT surviving both seam directions. *)
let measure_ratio_hybrid ~jitter_d ~duration =
  let copa_at ~cwnd =
    Copa.make
      ~params:{ Copa.default_params with init_cwnd_packets = cwnd /. 1500. }
      ()
  in
  let r =
    Fluid.Hybrid.run
      (Fluid.Hybrid.config ~rate ~rm ~duration ~measure_from:(duration /. 2.)
         ~events:[ 1.0 ]
         [
           Fluid.Hybrid.flow
             ~jitter:(late_jitter jitter_d)
             ~jitter_bound:jitter_d ~packet_cca:copa_at
             (Ccac.Model.copa_fluid ());
           Fluid.Hybrid.flow ~packet_cca:copa_at (Ccac.Model.copa_fluid ());
         ])
  in
  ratio_of r.Fluid.Hybrid.counted.(0) r.Fluid.Hybrid.counted.(1)

let params ~quick =
  ((if quick then [ 0.25; 1.; 4.; 8. ] else [ 0.25; 0.5; 1.; 2.; 3.; 4.; 6.; 8. ]),
   if quick then 20. else 40.)

let point_at ?(backend = Fluid.Backend.Packet) ~m ~duration () =
  let jitter_d = m *. delta_max in
  let measure =
    match backend with
    | Fluid.Backend.Packet -> measure_ratio
    | Fluid.Backend.Fluid -> measure_ratio_fluid
    | Fluid.Backend.Hybrid -> measure_ratio_hybrid
  in
  {
    jitter = jitter_d;
    jitter_over_delta = m;
    ratio = measure ~jitter_d ~duration;
  }

let sweep ?(quick = false) ?backend () =
  let multipliers, duration = params ~quick in
  List.map (fun m -> point_at ?backend ~m ~duration ()) multipliers

let rows_of_points ?(backend = Fluid.Backend.Packet) points =
  let at m =
    match List.find_opt (fun p -> Sim.Units.feq p.jitter_over_delta m) points with
    | Some p -> p.ratio
    | None -> nan
  in
  let low = at 0.25 and high = at 8. in
  let curve =
    String.concat ", "
      (List.map
         (fun p -> Printf.sprintf "D=%.1f*delta:%.1f" p.jitter_over_delta p.ratio)
         points)
  in
  let label =
    match backend with
    | Fluid.Backend.Packet ->
        "starvation ratio vs jitter (copa, D in units of delta_max)"
    | b ->
        Printf.sprintf
          "starvation ratio vs jitter (copa, D in units of delta_max, %s \
           backend)"
          (Fluid.Backend.to_string b)
  in
  [
    Report.row ~id:"E14" ~label
      ~paper:"Theorem 1 boundary: starvation constructible once D > 2 delta_max"
      ~measured:curve
      ~ok:(low < 2. && high > 4. && high > 2. *. low);
  ]

let plan ~quick ~backend =
  let multipliers, duration = params ~quick in
  let jobs =
    List.map
      (fun m ->
        Runner.Job.create
          ~key:
            (Printf.sprintf "threshold/copa/m=%g/dur=%g/backend=%s" m duration
               (Fluid.Backend.to_string backend))
          (fun () -> point_at ~backend ~m ~duration ()))
      multipliers
  in
  let merge payloads =
    rows_of_points ~backend
      (List.map (fun b -> (Runner.Job.decode b : point)) payloads)
  in
  (jobs, merge)

(* The E14 starvation-threshold scenario (Exp_threshold), rebuilt from
   the library's public constructors so the benchmark can hand it
   wrapped closures.  Two Copa flows share 24 Mbit/s; flow 0's ACK path
   gains a constant +D from t = 1 s; D sweeps multiples of Copa's
   delta_max.  With identity wrappers each builder is the experiment's
   own configuration, and the ratios must match [Exp_threshold.sweep]
   bit for bit (recorded in {!Reference}). *)

let rate = Sim.Units.mbps 24.
let rm = 0.04
let delta_max = 4. *. 1500. /. (rate /. 2.)
let late_jitter jitter_d t = if t < 1. then 0. else jitter_d
let ratio_of x1 x2 = Float.max x1 x2 /. Float.max (Float.min x1 x2) 1.

(* Exp_threshold's sweep parameters: (multipliers, duration). *)
let params ~quick =
  if quick then ([ 0.25; 1.; 4.; 8. ], 20.)
  else ([ 0.25; 0.5; 1.; 2.; 3.; 4.; 6.; 8. ], 40.)

(* Simulated seconds of one sweep on one backend. *)
let sim_s ~quick =
  let ms, duration = params ~quick in
  duration *. float_of_int (List.length ms)

type wrap = {
  cca : Cca.t -> Cca.t;
  trace : (float -> float) -> float -> float;
  law : Ccac.Model.fluid -> Ccac.Model.fluid;
  packet_cca : (cwnd:float -> Cca.t) -> cwnd:float -> Cca.t;
}

let plain =
  { cca = Fun.id; trace = Fun.id; law = Fun.id; packet_cca = (fun f -> f) }

let traced l =
  {
    cca = Ledger.wrap_cca l;
    trace = Ledger.wrap_trace l;
    law = Ledger.wrap_law l;
    packet_cca = Ledger.wrap_packet_cca l;
  }

let packet_config w ~duration ~m =
  let jitter_d = m *. delta_max in
  Sim.Network.config ~rate:(Sim.Link.Constant rate) ~rm ~duration
    [
      Sim.Network.flow
        ~jitter:(Sim.Jitter.Trace (w.trace (late_jitter jitter_d)))
        ~jitter_bound:jitter_d
        (w.cca (Copa.make ()));
      Sim.Network.flow (w.cca (Copa.make ()));
    ]

let packet_ratio net ~duration =
  let t0 = duration /. 2. in
  ratio_of
    (Sim.Network.throughput net ~flow:0 ~t0 ~t1:duration)
    (Sim.Network.throughput net ~flow:1 ~t0 ~t1:duration)

let fluid_config w ~duration ~m =
  let jitter_d = m *. delta_max in
  let law = w.law (Ccac.Model.copa_fluid ()) in
  Fluid.Engine.config ~rate ~rm ~duration ~measure_from:(duration /. 2.)
    [
      Fluid.Engine.flow ~jitter:(w.trace (late_jitter jitter_d)) law;
      Fluid.Engine.flow law;
    ]

let fluid_ratio eng =
  ratio_of (Fluid.Engine.counted_bytes eng 0) (Fluid.Engine.counted_bytes eng 1)

let hybrid_config w ~duration ~m =
  let jitter_d = m *. delta_max in
  let copa_at ~cwnd =
    Copa.make
      ~params:{ Copa.default_params with init_cwnd_packets = cwnd /. 1500. }
      ()
  in
  Fluid.Hybrid.config ~rate ~rm ~duration ~measure_from:(duration /. 2.)
    ~events:[ 1.0 ]
    [
      Fluid.Hybrid.flow
        ~jitter:(w.trace (late_jitter jitter_d))
        ~jitter_bound:jitter_d
        ~packet_cca:(w.packet_cca copa_at)
        (w.law (Ccac.Model.copa_fluid ()));
      Fluid.Hybrid.flow ~packet_cca:(w.packet_cca copa_at)
        (w.law (Ccac.Model.copa_fluid ()));
    ]

let hybrid_ratio (r : Fluid.Hybrid.result) =
  ratio_of r.Fluid.Hybrid.counted.(0) r.Fluid.Hybrid.counted.(1)

(* The paper's boundary: near-fair at the smallest D, and unfair (ratio
   above 4) somewhere past D = 2 delta_max. *)
let check_boundary name multipliers ratios =
  let low = List.hd ratios in
  let high =
    List.fold_left2
      (fun a m r -> if m > 2. then Float.max a r else a)
      0. multipliers ratios
  in
  Harness.check
    (Printf.sprintf "%s crosses the boundary (low %.3g < 2, high %.3g > 4)" name
       low high)
    (low < 2. && high > 4.)

(* The builders above must be Exp_threshold's own configurations: their
   curves must equal [Exp_threshold.sweep]'s bit for bit.  [run] runs one
   point with plain closures. *)
let check_against_experiment ~quick ~backend run =
  let multipliers, duration = params ~quick in
  let ours = List.map (fun m -> run ~duration ~m) multipliers in
  let theirs =
    List.map
      (fun p -> p.Experiments.Exp_threshold.ratio)
      (Experiments.Exp_threshold.sweep ~quick ~backend ())
  in
  Harness.check
    (Printf.sprintf "the %s E14 builder reproduces Exp_threshold.sweep"
       (Fluid.Backend.to_string backend))
    (Harness.digest_floats ours = Harness.digest_floats theirs)

let packet_point w ~duration ~m =
  packet_ratio (Sim.Network.run_config (packet_config w ~duration ~m)) ~duration

let fluid_point w ~duration ~m =
  fluid_ratio (Fluid.Engine.run_config (fluid_config w ~duration ~m))

let hybrid_point w ~duration ~m =
  hybrid_ratio (Fluid.Hybrid.run (hybrid_config w ~duration ~m))

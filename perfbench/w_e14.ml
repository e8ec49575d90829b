(* e14-starvation: the E14 sweep on the packet simulator — all eight D
   multipliers, with 28 s runs instead of 40 s.  Past the threshold the
   starved flow's Copa ACK handler gets more expensive the longer the run
   (the 40 s point at D = 8 delta_max alone costs about 22 s), so this is
   the workload where the Cca layer sets the wall time; 28 s keeps one
   pass near 3 s.  The scenario has no random input: every seed runs the
   same sweep. *)

open Harness
module S = Scenario_e14

let name = "e14-starvation"
let multipliers, _ = S.params ~quick:false
let duration = 28.
let sim_s = duration *. float_of_int (List.length multipliers)

(* Set-up: each point's configuration and Network.build, up to the first
   simulated event. *)
let setup ~seed:_ =
  snd
    (Ledger.time (fun () ->
         List.iter
           (fun m -> ignore (Sim.Network.build (S.packet_config S.plain ~duration ~m)))
           multipliers))

let check_curve ratios =
  check_digest "e14 packet ratio curve" ~expected:Reference.e14_packet
    (digest_floats ratios);
  S.check_boundary "e14 packet curve" multipliers ratios

(* Once per process, outside the timed passes. *)
let builder_matches_experiment =
  lazy
    (S.check_against_experiment ~quick:true ~backend:Fluid.Backend.Packet
       (S.packet_point S.plain))

let pass ~seed:_ ~sample =
  Lazy.force builder_matches_experiment;
  let wall = ref 0. in
  let ratios =
    List.map
      (fun m ->
        sample ();
        let r, dt = Ledger.time (fun () -> S.packet_point S.plain ~duration ~m) in
        wall := !wall +. dt;
        r)
      multipliers
  in
  check_curve ratios;
  { wall = !wall; digest = digest_floats ratios; sim_s; flows = 0;
    live_bytes = 0. }

let traced ~seed:_ =
  let l = Ledger.create () in
  let events = ref 0 and pending_sum = ref 0 and pending_peak = ref 0 in
  let wheel = ref false in
  (* [acc.(0)]: integral of the queueing delay over simulated time;
     [acc.(1)]: clock of the previous event.  A float array keeps the
     per-event hook allocation-free. *)
  let acc = [| 0.; 0. |] in
  let setup_s = ref 0. and run_s = ref 0. and measure_s = ref 0. in
  let words = ref 0. in
  let link_bytes = ref 0 and drops = ref 0 and marks = ref 0 in
  let sent = ref 0 and delivered = ref 0 and probes = ref 0 in
  let fallbacks = ref 0 in
  let w = S.traced l in
  let ratios, wall =
    Ledger.time (fun () ->
        List.map
          (fun m ->
            let net, dt =
              Ledger.time (fun () -> Sim.Network.build (S.packet_config w ~duration ~m))
            in
            setup_s := !setup_s +. dt;
            let eq = Sim.Network.event_queue net in
            let link = Sim.Network.link net in
            acc.(1) <- 0.;
            Sim.Event_queue.set_step_hook eq
              (Some
                 (fun now ->
                   incr events;
                   let p = Sim.Event_queue.pending eq in
                   pending_sum := !pending_sum + p;
                   if p > !pending_peak then pending_peak := p;
                   acc.(0) <-
                     acc.(0) +. (Sim.Link.queue_delay link *. (now -. acc.(1)));
                   acc.(1) <- now));
            let w0 = Gc.minor_words () in
            let (_ : Sim.Network.t), dt =
              Ledger.time (fun () -> Sim.Network.run net)
            in
            words := !words +. (Gc.minor_words () -. w0);
            run_s := !run_s +. dt;
            let r, dt = Ledger.time (fun () -> S.packet_ratio net ~duration) in
            measure_s := !measure_s +. dt;
            wheel := !wheel || Sim.Event_queue.wheel_allocated eq;
            link_bytes := !link_bytes + Sim.Link.offered_bytes link;
            drops := !drops + Sim.Link.drops link;
            marks := !marks + Sim.Link.ce_marks link;
            Array.iter
              (fun f ->
                sent := !sent + Sim.Flow.sent_bytes f;
                delivered := !delivered + Sim.Flow.delivered_bytes f;
                probes := !probes + Sim.Flow.stall_probes f)
              (Sim.Network.flows net);
            fallbacks := !fallbacks + Sim.Network.delay_line_fallbacks net;
            r)
          multipliers)
  in
  check_curve ratios;
  let cca = Ledger.cca_s l and jitter = Ledger.jitter_s l in
  let self = !run_s -. cca -. jitter in
  let packets = fi l.Ledger.send_calls in
  let link_packets = fi (!link_bytes / Cca.default_mss) in
  let ev = fi !events in
  {
    t_pass =
      { wall; digest = digest_floats ratios; sim_s; flows = 0;
        live_bytes = 0. };
    layers =
      Layers.cca l ~wall
      @ [
          m "sim.events" "count" ev;
          m "sim.events_per_packet" "ratio" (ratio ev packets);
          m "sim.self_ns_per_event" "ns" (ratio (self *. 1e9) ev);
          m "sim.self_frac" "ratio" (self /. wall);
          m "sim.minor_words_per_packet" "words" (ratio !words packets);
          m "event_queue.pending_mean" "count" (ratio (fi !pending_sum) ev);
          m "event_queue.pending_peak" "count" (fi !pending_peak);
          m "event_queue.wheel_allocated" "bool" (if !wheel then 1. else 0.);
          m "link.packets" "count" link_packets;
          m "link.drop_frac" "ratio" (ratio (fi !drops) link_packets);
          m "link.queue_delay_mean_ms" "ms"
            (acc.(0) /. sim_s *. 1e3);
          m "link.ce_marks" "count" (fi !marks);
          m "flow.sent_packets" "count" packets;
          m "flow.useful_frac" "ratio" (ratio (fi !delivered) (fi !sent));
          m "flow.lost_packets" "count" (fi l.Ledger.lost_packets);
          m "flow.stall_probes" "count" (fi !probes);
          m "delay_line.fallbacks" "count" (fi !fallbacks);
        ]
      @ Layers.jitter l;
    self_s =
      [ ("setup", !setup_s); ("cca", cca); ("jitter", jitter);
        ("sim", self); ("measure", !measure_s) ];
  }

(* The per-layer metric catalogue.  Every traced run reports every name
   below; a layer the workload does not exercise (or cannot be observed
   from outside the program on that workload) reads 0.  BENCHMARK.json
   lists the same names; NOTES.md says which workload each is meant for. *)

open Harness

let experiment_keys =
  [ "fig1"; "fig3"; "copa"; "bbr"; "vivace"; "fig7"; "allegro"; "theorem1";
    "theorem2"; "alg1"; "ccac"; "ecn"; "threshold"; "isolation";
    "robustness"; "matrix"; "faults"; "census"; "validate" ]

let catalogue =
  [
    ("cca.on_ack_calls", "count"); ("cca.on_ack_ns", "ns");
    ("cca.on_ack_frac", "ratio"); ("cca.on_send_calls", "count");
    ("cca.on_send_ns", "ns"); ("cca.on_loss_calls", "count");
    ("cca.on_timer_calls", "count"); ("cca.query_calls", "count");
    ("cca.query_ns", "ns"); ("cca.minor_words_per_ack", "words");
    ("sim.events", "count"); ("sim.events_per_packet", "ratio");
    ("sim.self_ns_per_event", "ns"); ("sim.self_frac", "ratio");
    ("sim.minor_words_per_packet", "words");
    ("event_queue.pending_mean", "count"); ("event_queue.pending_peak", "count");
    ("event_queue.wheel_allocated", "bool");
    ("link.packets", "count"); ("link.drop_frac", "ratio");
    ("link.queue_delay_mean_ms", "ms"); ("link.ce_marks", "count");
    ("flow.sent_packets", "count"); ("flow.useful_frac", "ratio");
    ("flow.lost_packets", "count"); ("flow.stall_probes", "count");
    ("delay_line.fallbacks", "count");
    ("jitter.calls", "count"); ("jitter.ns_per_call", "ns");
    ("population.spawns", "count"); ("population.recycle_frac", "ratio");
    ("population.slots", "count"); ("population.peak_active", "count");
    ("population.peak_pending", "count"); ("population.factory_ns", "ns");
    ("population.summary_s", "s"); ("population.minor_words_per_flow", "words");
    ("fluid.steps", "count"); ("fluid.ns_per_step", "ns");
    ("fluid.law_updates", "count"); ("fluid.law_ns", "ns");
    ("fluid.law_frac", "ratio"); ("fluid.peak_active", "count");
    ("fluid.conservation_error_bytes", "bytes");
    ("fluid.minor_words_per_step", "words");
    ("hybrid.handoffs", "count"); ("hybrid.packet_sim_frac", "ratio");
    ("hybrid.packet_cca_builds", "count"); ("hybrid.ledger_error_bytes", "bytes");
    ("runner.jobs", "count"); ("runner.executed", "count");
    ("runner.job_s_p50", "s"); ("runner.job_s_p80", "s");
    ("runner.overhead_s", "s"); ("cache.find_ms", "ms");
    ("cache.store_ms", "ms"); ("cache.warm_hits", "count");
    ("registry.plan_s", "s"); ("registry.merge_s", "s");
  ]
  @ List.map (fun k -> ("experiment." ^ k ^ "_s", "s")) experiment_keys
  @ [
      ("trace.overhead_frac", "ratio"); ("trace.closure_gap_frac", "ratio");
      ("workload.wall_s", "s"); ("workload.packets_per_s", "1/s");
      ("workload.sim_s_per_s", "s/s");
      ("workload.flows_per_s", "1/s"); ("workload.bytes_per_flow", "bytes");
    ]

let per_call s calls = ratio (s *. 1e9) (fi calls)

let cca (l : Ledger.t) ~wall =
  let ack_s = Ledger.net ~calls:l.ack_calls l.ack_ns in
  [
    m "cca.on_ack_calls" "count" (fi l.ack_calls);
    m "cca.on_ack_ns" "ns" (per_call ack_s l.ack_calls);
    m "cca.on_ack_frac" "ratio" (ack_s /. wall);
    m "cca.on_send_calls" "count" (fi l.send_calls);
    m "cca.on_send_ns" "ns"
      (per_call (Ledger.net ~calls:l.send_calls l.send_ns) l.send_calls);
    m "cca.on_loss_calls" "count" (fi l.loss_calls);
    m "cca.on_timer_calls" "count" (fi l.timer_calls);
    m "cca.query_calls" "count" (fi l.query_calls);
    m "cca.query_ns" "ns"
      (per_call (Ledger.net ~calls:l.query_calls l.query_ns) l.query_calls);
    m "cca.minor_words_per_ack" "words" (ratio (fi l.ack_words) (fi l.ack_calls));
  ]

let jitter (l : Ledger.t) =
  [
    m "jitter.calls" "count" (fi l.jitter_calls);
    m "jitter.ns_per_call" "ns" (per_call (Ledger.jitter_s l) l.jitter_calls);
  ]

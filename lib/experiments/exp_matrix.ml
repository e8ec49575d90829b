type entry = {
  cca_name : string;
  solo_utilization : float;
  solo_p95_rtt : float;
  pair_jain : float;
  jitter_ratio : float;
  adv_ratio : float;
}

let rate = Sim.Units.mbps 24.
let rm = 0.04

let ccas () : (string * (unit -> Cca.t)) list =
  [
    ("vegas", fun () -> Vegas.make ());
    ("fast", fun () -> Fast_tcp.make ());
    ("copa", fun () -> Copa.make ());
    ("ledbat", fun () -> Ledbat.make ());
    ("bbr", fun () -> Bbr.make ());
    ("vivace", fun () -> Pcc_vivace.make ());
    ("reno", fun () -> Reno.make ());
    ("cubic", fun () -> Cubic.make ());
    ( "alg1",
      fun () ->
        Alg1.make
          ~params:{ Alg1.default_params with rm; rmax = 0.1; d_jitter = 0.01 } () );
  ]

(* 1.5 BDP of buffer: enough to show the loss-based family's standing
   bloat, small enough to avoid drop-tail lockout artifacts (the paper's
   Figure 7 uses a comparable 1-BDP scale). *)
let buffer = 3 * Sim.Units.bdp_bytes ~rate ~rtt:rm / 2

let solo ~make_cca ~duration =
  let net =
    Sim.Network.run_config
      (Sim.Network.config ~rate:(Sim.Link.Constant rate) ~buffer ~rm ~duration
         [ Sim.Network.flow (make_cca ()) ])
  in
  let u = Sim.Network.utilization net () in
  let rtts =
    Sim.Series.window_values
      (Sim.Flow.rtt_series (Sim.Network.flows net).(0))
      ~t0:(duration /. 2.) ~t1:duration
  in
  let p95 = if Array.length rtts = 0 then nan else Sim.Stats.percentile rtts 95. in
  (u, p95)

let pair ~make_cca ~duration =
  let net =
    Sim.Network.run_config
      (Sim.Network.config ~rate:(Sim.Link.Constant rate) ~buffer ~rm ~duration
         [ Sim.Network.flow (make_cca ()); Sim.Network.flow (make_cca ()) ])
  in
  (Core.Fairness.of_network net ()).Core.Fairness.jain

let jitter_duel ~policy ~make_cca ~duration =
  let d = 0.01 in
  let net =
    Sim.Network.run_config
      (Sim.Network.config ~rate:(Sim.Link.Constant rate) ~buffer ~rm ~duration
         [
           Sim.Network.flow ~jitter:(policy d) ~jitter_bound:d (make_cca ());
           Sim.Network.flow (make_cca ());
         ])
  in
  let t0 = duration /. 2. in
  let x1 = Sim.Network.throughput net ~flow:0 ~t0 ~t1:duration in
  let x2 = Sim.Network.throughput net ~flow:1 ~t0 ~t1:duration in
  Float.max x1 x2 /. Float.max (Float.min x1 x2) 1.

let random_policy d = Sim.Jitter.Uniform { lo = 0.; hi = d }
let adversarial_policy d = Sim.Jitter.Trace (fun t -> if t < 1. then 0. else d)

let entry_of ~cca_name ~make_cca ~duration =
  let solo_utilization, solo_p95_rtt = solo ~make_cca ~duration in
  {
    cca_name;
    solo_utilization;
    solo_p95_rtt;
    pair_jain = pair ~make_cca ~duration;
    jitter_ratio = jitter_duel ~policy:random_policy ~make_cca ~duration;
    adv_ratio = jitter_duel ~policy:adversarial_policy ~make_cca ~duration;
  }

let duration_of ~quick = if quick then 20. else 40.

let measure ?(quick = false) () =
  let duration = duration_of ~quick in
  List.map
    (fun (cca_name, make_cca) -> entry_of ~cca_name ~make_cca ~duration)
    (ccas ())

let rows_of_entries entries =
  Printf.printf "\n-- E17 matrix (link 24 Mbit/s, Rm 40 ms, jitter bound 10 ms) --\n";
  Printf.printf "%-8s %6s %8s %6s %12s %12s\n" "cca" "util" "p95_ms" "jain"
    "random_jit" "adversarial";
  List.iter
    (fun e ->
      Printf.printf "%-8s %6.2f %8.1f %6.3f %12.2f %12.2f\n" e.cca_name
        e.solo_utilization (Sim.Units.to_ms e.solo_p95_rtt) e.pair_jain
        e.jitter_ratio e.adv_ratio)
    entries;
  let find n = List.find (fun e -> e.cca_name = n) entries in
  let solo_ok = List.for_all (fun e -> e.solo_utilization > 0.5) entries in
  let delay_family = [ "vegas"; "fast"; "copa"; "ledbat" ] in
  let fragile =
    List.filter (fun n -> (find n).adv_ratio > 1.8) delay_family
  in
  [
    Report.row ~id:"E17a" ~label:"every CCA fills a clean link"
      ~paper:"f-efficiency on ideal paths"
      ~measured:
        (String.concat ", "
           (List.map (fun e -> Printf.sprintf "%s %.2f" e.cca_name e.solo_utilization)
              entries))
      ~ok:solo_ok;
    Report.row ~id:"E17b" ~label:"10 ms jitter splits the families"
      ~paper:"delay-convergent CCAs are jitter-fragile; loss-based are delay-blind"
      ~measured:
        (Printf.sprintf "fragile under adversarial jitter: {%s}; reno %.1f, cubic %.1f"
           (String.concat ", " fragile)
           (find "reno").adv_ratio (find "cubic").adv_ratio)
      ~ok:
        (List.length fragile >= 3
        && (find "reno").adv_ratio < 2.5
        && (find "cubic").adv_ratio < 2.5);
    (let adversarial_worse =
       List.filter (fun n -> (find n).adv_ratio > (find n).jitter_ratio) delay_family
     in
     Report.row ~id:"E17c" ~label:"jitter pattern matters more than magnitude"
       ~paper:"sec. 3: delay must be modeled non-deterministic, not random"
       ~measured:
         (Printf.sprintf "adversarial >= random for {%s} at equal 10 ms budget"
            (String.concat ", " adversarial_worse))
       ~ok:(List.length adversarial_worse >= 3));
  ]

let plan ~quick =
  let duration = duration_of ~quick in
  let jobs =
    List.map
      (fun (cca_name, make_cca) ->
        Runner.Job.create
          ~key:(Printf.sprintf "matrix/%s/dur=%g" cca_name duration)
          (fun () -> entry_of ~cca_name ~make_cca ~duration))
      (ccas ())
  in
  let merge payloads =
    rows_of_entries (List.map (fun b -> (Runner.Job.decode b : entry)) payloads)
  in
  (jobs, merge)

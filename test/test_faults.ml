(* Fault-injection layer and runtime invariant monitor.

   Three layers of coverage: unit tests for the Fault plan compiler and
   the Invariant recorder; targeted recovery tests (a blackout must not
   deadlock any CCA, and a pathological CCA whose window collapses to
   zero must be un-wedged by the stall probe); and a randomized chaos
   harness — seeds x scenarios x CCAs, every run monitored — asserting
   the simulator's own conservation laws hold under every fault, results
   replay bit-identically per seed, and every flow recovers after a
   blackout shorter than the run. *)

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Fault plan: validation and rate compilation                         *)
(* ------------------------------------------------------------------ *)

let test_plan_validation () =
  let rejects evs =
    try
      ignore (Sim.Fault.plan evs);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "empty blackout window" true
    (rejects [ Sim.Fault.Link_blackout { t0 = 2.; t1 = 2. } ]);
  Alcotest.(check bool) "negative time" true
    (rejects [ Sim.Fault.Link_blackout { t0 = -1.; t1 = 2. } ]);
  Alcotest.(check bool) "negative rate" true
    (rejects [ Sim.Fault.Rate_step { at = 0.; rate = -1. } ]);
  Alcotest.(check bool) "negative buffer" true
    (rejects [ Sim.Fault.Buffer_resize { at = 0.; buffer = Some (-5) } ]);
  Alcotest.(check bool) "negative flow" true
    (rejects [ Sim.Fault.Ack_blackhole { flow = -1; t0 = 0.; t1 = 1. } ]);
  Alcotest.(check bool) "probability above 1" true
    (rejects
       [
         Sim.Fault.Bursty_loss
           { flow = 0; t0 = 0.; t1 = 1.; p_enter = 1.5; p_exit = 0.1;
             loss_good = 0.; loss_bad = 0.5 };
       ]);
  Alcotest.(check bool) "unrecoverable loss_bad" true
    (rejects
       [
         Sim.Fault.Bursty_loss
           { flow = 0; t0 = 0.; t1 = 1.; p_enter = 0.1; p_exit = 0.;
             loss_good = 0.; loss_bad = 1. };
       ]);
  Alcotest.(check bool) "empty plan is fine" true
    (Sim.Fault.is_empty (Sim.Fault.plan []));
  ignore
    (Sim.Fault.plan
       [
         Sim.Fault.Link_blackout { t0 = 1.; t1 = 2. };
         Sim.Fault.Rate_step { at = 3.; rate = 1e6 };
       ])

let test_compile_rate_blackout () =
  let plan = Sim.Fault.plan [ Sim.Fault.Link_blackout { t0 = 1.; t1 = 2. } ] in
  let r = Sim.Fault.compile_rate plan (Sim.Link.Constant 1000.) in
  check_float "before" 1000. (Sim.Link.rate_at r 0.5);
  check_float "during" 0. (Sim.Link.rate_at r 1.5);
  check_float "boundary start is dark" 0. (Sim.Link.rate_at r 1.);
  check_float "after" 1000. (Sim.Link.rate_at r 2.);
  (* The service loop integrates across the dark window. *)
  check_float "transmission spans the blackout" 2.5
    (Sim.Link.transmit_end r ~start:0.5 ~bytes:1000)

let test_compile_rate_steps () =
  let plan =
    Sim.Fault.plan
      [
        Sim.Fault.Rate_step { at = 1.; rate = 500. };
        Sim.Fault.Rate_step { at = 2.; rate = 2000. };
        Sim.Fault.Link_blackout { t0 = 1.5; t1 = 1.6 };
      ]
  in
  let r = Sim.Fault.compile_rate plan (Sim.Link.Constant 1000.) in
  check_float "base before first step" 1000. (Sim.Link.rate_at r 0.5);
  check_float "first step" 500. (Sim.Link.rate_at r 1.2);
  check_float "blackout wins over step" 0. (Sim.Link.rate_at r 1.55);
  check_float "step resumes after blackout" 500. (Sim.Link.rate_at r 1.8);
  check_float "second step" 2000. (Sim.Link.rate_at r 3.)

let test_compile_rate_piecewise_base () =
  let base = Sim.Link.Piecewise [| (0., 1000.); (4., 4000.) |] in
  let plan = Sim.Fault.plan [ Sim.Fault.Link_blackout { t0 = 1.; t1 = 2. } ] in
  let r = Sim.Fault.compile_rate plan base in
  check_float "base seg 0" 1000. (Sim.Link.rate_at r 0.5);
  check_float "dark" 0. (Sim.Link.rate_at r 1.5);
  check_float "base restored" 1000. (Sim.Link.rate_at r 3.);
  check_float "base seg 1 survives" 4000. (Sim.Link.rate_at r 5.)

let test_compile_rate_passthrough () =
  let base = Sim.Link.Constant 7. in
  Alcotest.(check bool) "no link faults -> base unchanged" true
    (Sim.Fault.compile_rate
       (Sim.Fault.plan [ Sim.Fault.Ack_blackhole { flow = 0; t0 = 0.; t1 = 1. } ])
       base
    == base)

let test_fault_runtime_drops () =
  let plan =
    Sim.Fault.plan
      [
        Sim.Fault.Ack_blackhole { flow = 0; t0 = 1.; t1 = 2. };
        Sim.Fault.Bursty_loss
          { flow = 1; t0 = 0.; t1 = 10.; p_enter = 1.; p_exit = 0.;
            loss_good = 0.; loss_bad = 0.9 };
      ]
  in
  let f = Sim.Fault.instantiate plan ~nflows:2 ~rng:(Sim.Rng.create ~seed:3) in
  Alcotest.(check bool) "outside window" false (Sim.Fault.ack_drop f ~flow:0 ~now:0.5);
  Alcotest.(check bool) "inside window" true (Sim.Fault.ack_drop f ~flow:0 ~now:1.5);
  Alcotest.(check bool) "end exclusive" false (Sim.Fault.ack_drop f ~flow:0 ~now:2.);
  Alcotest.(check bool) "other flow untouched" false
    (Sim.Fault.ack_drop f ~flow:1 ~now:1.5);
  Alcotest.(check int) "ack drop counted" 1 (Sim.Fault.ack_drops f).(0);
  (* p_enter = 1: the chain is bad from the first packet; ~90% drops. *)
  let dropped = ref 0 in
  for _ = 1 to 1000 do
    if Sim.Fault.data_drop f ~flow:1 ~now:5. then incr dropped
  done;
  Alcotest.(check bool)
    (Printf.sprintf "bursty drops near 900 (%d)" !dropped)
    true
    (!dropped > 800 && !dropped < 980);
  Alcotest.(check int) "data drops counted" !dropped (Sim.Fault.data_drops f).(1);
  Alcotest.(check int) "clean flow has none" 0 (Sim.Fault.data_drops f).(0)

let test_fault_runtime_deterministic () =
  let plan =
    Sim.Fault.plan
      [
        Sim.Fault.Bursty_loss
          { flow = 0; t0 = 0.; t1 = 10.; p_enter = 0.1; p_exit = 0.3;
            loss_good = 0.01; loss_bad = 0.5 };
      ]
  in
  let sequence () =
    let f = Sim.Fault.instantiate plan ~nflows:1 ~rng:(Sim.Rng.create ~seed:11) in
    List.init 500 (fun _ -> Sim.Fault.data_drop f ~flow:0 ~now:1.)
  in
  Alcotest.(check (list bool)) "same seed, same chain" (sequence ()) (sequence ())

(* ------------------------------------------------------------------ *)
(* Invariant monitor                                                   *)
(* ------------------------------------------------------------------ *)

let test_invariant_recorder () =
  let inv = Sim.Invariant.create ~max_recorded:2 () in
  Alcotest.(check bool) "fresh monitor ok" true (Sim.Invariant.ok inv);
  let lazy_forced = ref false in
  Sim.Invariant.check inv ~time:0. ~name:"a"
    ~detail:(fun () -> lazy_forced := true; "boom")
    true;
  Alcotest.(check bool) "detail lazy on pass" false !lazy_forced;
  Sim.Invariant.check inv ~time:1. ~name:"a" ~detail:(fun () -> "first") false;
  Sim.Invariant.check inv ~time:2. ~name:"b" ~detail:(fun () -> "second") false;
  Sim.Invariant.check inv ~time:3. ~name:"a" ~detail:(fun () -> "third") false;
  Alcotest.(check int) "total exact despite cap" 3 (Sim.Invariant.count inv);
  Alcotest.(check int) "checks run" 4 (Sim.Invariant.checks_run inv);
  Alcotest.(check bool) "not ok" false (Sim.Invariant.ok inv);
  let recorded = Sim.Invariant.violations inv in
  Alcotest.(check int) "recording capped" 2 (List.length recorded);
  Alcotest.(check string) "oldest first" "first"
    (List.hd recorded).Sim.Invariant.detail;
  Alcotest.(check (list (pair string int))) "per-check tally"
    [ ("a", 2); ("b", 1) ]
    (Sim.Invariant.by_check inv);
  Alcotest.(check string) "summary" "3 violations in 4 checks: a x2, b x1"
    (Sim.Invariant.summary inv)

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)
(* ------------------------------------------------------------------ *)

let rate = Sim.Units.mbps 12.
let rm = 0.04
let buffer = 64 * 1500

let delivered_at flow t =
  match Sim.Series.value_at (Sim.Flow.delivered_series flow) t with
  | Some v -> v
  | None -> 0.

let run_faulted ?(flows = 1) ?(duration = 8.) ?(seed = 1) ~events mk =
  Sim.Network.run_config
    (Sim.Network.config ~rate:(Sim.Link.Constant rate) ~buffer ~rm ~seed
       ~faults:(Sim.Fault.plan events) ~monitor_period:0.05 ~duration
       (List.init flows (fun _ -> Sim.Network.flow (mk ()))))

let test_blackout_recovery () =
  (* A 1.2 s total blackout mid-run: every CCA must resume delivering
     after the link comes back, with zero invariant violations. *)
  List.iter
    (fun (name, mk) ->
      let net =
        run_faulted ~events:[ Sim.Fault.Link_blackout { t0 = 3.; t1 = 4.2 } ] mk
      in
      let flow = (Sim.Network.flows net).(0) in
      let during = delivered_at flow 4.2 -. delivered_at flow 3.1 in
      let after = delivered_at flow 8. -. delivered_at flow 4.3 in
      Alcotest.(check bool)
        (Printf.sprintf "%s: starved during blackout (%.0f B)" name during)
        true
        (during < 0.05 *. rate *. 1.2);
      Alcotest.(check bool)
        (Printf.sprintf "%s: recovered after blackout (%.0f B)" name after)
        true
        (after > 0.2 *. rate *. 3.5);
      match Sim.Network.invariant net with
      | Some inv ->
          Alcotest.(check string)
            (name ^ ": no violations")
            "" (if Sim.Invariant.ok inv then "" else Sim.Invariant.summary inv)
      | None -> Alcotest.fail "monitor requested but absent")
    [
      ("reno", fun () -> Reno.make ());
      ("cubic", fun () -> Cubic.make ());
      ("bbr", fun () -> Bbr.make ());
      ("vegas", fun () -> Vegas.make ());
    ]

(* A pathological CCA: a timeout collapses its window to zero forever.
   Without the stall probe the flow would deadlock after the first
   blackout; with it, the probe keeps forcing one segment per RTO and
   the flow keeps (slowly) delivering. *)
let wedge_cca () =
  let cwnd = ref 10_500. in
  {
    Cca.name = "wedge";
    on_ack = (fun _ -> ());
    on_loss = (fun info -> if info.Cca.kind = `Timeout then cwnd := 0.);
    on_send = (fun _ -> ());
    on_timer = (fun _ -> ());
    next_timer = (fun () -> None);
    cwnd = (fun () -> !cwnd);
    pacing_rate = (fun () -> None);
    inspect = (fun () -> []);
  }

let test_stall_probe_unwedges () =
  let net =
    run_faulted ~duration:10.
      ~events:[ Sim.Fault.Link_blackout { t0 = 2.; t1 = 3. } ]
      wedge_cca
  in
  let flow = (Sim.Network.flows net).(0) in
  Alcotest.(check bool) "window collapsed to zero" true
    ((Sim.Flow.cca flow).Cca.cwnd () = 0.);
  Alcotest.(check bool) "stall probes fired" true (Sim.Flow.stall_probes flow > 0);
  let after = delivered_at flow 10. -. delivered_at flow 3. in
  Alcotest.(check bool)
    (Printf.sprintf "still delivering after collapse (%.0f B)" after)
    true (after > 0.);
  match Sim.Network.invariant net with
  | Some inv ->
      Alcotest.(check string) "no violations" ""
        (if Sim.Invariant.ok inv then "" else Sim.Invariant.summary inv)
  | None -> Alcotest.fail "monitor requested but absent"

let test_cca_sanity_clamp () =
  (* A CCA emitting NaN outputs is clamped (degraded counter) and the
     monitor's cca-sane check reports it — the run itself stays finite. *)
  let nan_cca () =
    {
      Cca.name = "nan";
      on_ack = (fun _ -> ());
      on_loss = (fun _ -> ());
      on_send = (fun _ -> ());
      on_timer = (fun _ -> ());
      next_timer = (fun () -> None);
      cwnd = (fun () -> Float.nan);
      pacing_rate = (fun () -> Some Float.nan);
      inspect = (fun () -> []);
    }
  in
  let net = run_faulted ~duration:2. ~events:[] nan_cca in
  let flow = (Sim.Network.flows net).(0) in
  Alcotest.(check bool) "degraded counted" true (Sim.Flow.degraded_count flow > 0);
  Alcotest.(check bool) "flow still made progress" true
    (Sim.Flow.delivered_bytes flow > 0);
  match Sim.Network.invariant net with
  | Some inv ->
      Alcotest.(check bool) "cca-sane violations reported" true
        (List.mem_assoc "cca-sane" (Sim.Invariant.by_check inv));
      Alcotest.(check bool) "conservation still holds" false
        (List.mem_assoc "link-conservation" (Sim.Invariant.by_check inv))
  | None -> Alcotest.fail "monitor requested but absent"

(* Scenario fuzzing (seed 20261017) once reported queue-bound violations
   on a sound link: the buffer started unbounded, the queue grew between
   two audits, and a resize then set a cap far below the occupancy.  The
   link drained correctly; the audit had bounded the excess by the
   previous audit's occupancy instead of the occupancy at the resize.
   With [plant], bytes are admitted above the cap just before the next
   audit (the cap lifted and restored behind the network's back), and
   the check must still catch them. *)
let resize_below_occupancy ~plant =
  let resize_at = 5.0459 and cap = 255_137 in
  let net =
    Sim.Network.build
      (Sim.Network.config ~rate:(Sim.Link.Constant (Sim.Units.mbps 42.8)) ~rm:0.079
         ~faults:
           (Sim.Fault.plan
              [ Sim.Fault.Buffer_resize { at = resize_at; buffer = Some cap } ])
         ~monitor_period:0.05 ~duration:5.2
         [ Sim.Network.flow (Reno.make ()) ])
  in
  let link = Sim.Network.link net and eq = Sim.Network.event_queue net in
  let queued_at t =
    let q = ref 0 in
    Sim.Event_queue.schedule eq ~at:t (fun () -> q := Sim.Link.queued_bytes link);
    q
  in
  let last_audit = queued_at 5.0 and resize = queued_at (resize_at -. 1e-6) in
  let next_audit = queued_at (5.05 -. 1e-6) in
  if plant then
    Sim.Event_queue.schedule eq ~at:(5.05 -. 2e-6) (fun () ->
        Sim.Link.set_buffer link None;
        for _ = 1 to 100 do
          ignore
            (Sim.Link.enqueue link
               { Sim.Packet.flow = Sim.Network.phantom_flow_id; seq = 0; size = 1500;
                 sent_at = 5.05; delivered_at_send = 0; app_limited = false;
                 ce = false })
        done;
        Sim.Link.set_buffer link (Some cap));
  ignore (Sim.Network.run net);
  let trips =
    match Sim.Network.invariant net with
    | Some inv -> List.mem_assoc "queue-bound" (Sim.Invariant.by_check inv)
    | None -> Alcotest.fail "monitor requested but absent"
  in
  (!last_audit, !resize, !next_audit, cap, trips)

let test_queue_bound_after_unbounded_growth () =
  let last_audit, resize, next_audit, cap, trips = resize_below_occupancy ~plant:false in
  Alcotest.(check bool)
    (Printf.sprintf "queue grew while unbounded (%d -> %d B)" last_audit resize)
    true (resize > last_audit);
  Alcotest.(check bool)
    (Printf.sprintf "audited above both the cap and the last audit (%d B, cap %d B)"
       next_audit cap)
    true
    (next_audit > cap && next_audit > last_audit);
  Alcotest.(check bool) "no queue-bound violation" false trips;
  let _, _, _, _, planted = resize_below_occupancy ~plant:true in
  Alcotest.(check bool) "planted admission above the cap trips queue-bound" true planted

(* ------------------------------------------------------------------ *)
(* Chaos harness                                                       *)
(* ------------------------------------------------------------------ *)

(* Scenario matrix: flow 0 takes the per-flow faults; the link-level
   faults hit everyone.  Windows sized for an 8 s run. *)
let chaos_scenarios =
  [
    ("blackout", [ Sim.Fault.Link_blackout { t0 = 3.; t1 = 4. } ]);
    ( "rate-renegotiation",
      [
        Sim.Fault.Rate_step { at = 2.5; rate = rate /. 5. };
        Sim.Fault.Rate_step { at = 5.5; rate };
      ] );
    ( "bursty-loss",
      [
        Sim.Fault.Bursty_loss
          { flow = 0; t0 = 2.; t1 = 6.; p_enter = 0.05; p_exit = 0.25;
            loss_good = 0.; loss_bad = 0.5 };
      ] );
    ("ack-blackhole", [ Sim.Fault.Ack_blackhole { flow = 0; t0 = 3.; t1 = 3.8 } ]);
    ( "buffer-shrink",
      [
        Sim.Fault.Buffer_resize { at = 3.; buffer = Some (4 * 1500) };
        Sim.Fault.Buffer_resize { at = 5.5; buffer = Some buffer };
      ] );
  ]

let chaos_ccas =
  [
    ("reno", fun seed -> ignore seed; Reno.make ());
    ("cubic", fun seed -> ignore seed; Cubic.make ());
    ("bbr", fun seed -> Bbr.make ~params:{ Bbr.default_params with seed } ());
  ]

type chaos_result = {
  delivered : int array;
  lost : int array;
  link_delivered : int;
  link_drops : int;
  data_drops : int array;
  ack_drops : int array;
  stall_probes : int array;
  violations : int;
}

let chaos_run ~seed ~events ~mk =
  let duration = 8. in
  let net =
    Sim.Network.run_config
      (Sim.Network.config ~rate:(Sim.Link.Constant rate) ~buffer ~rm ~seed
         ~faults:(Sim.Fault.plan events) ~monitor_period:0.05 ~duration
         [
           Sim.Network.flow (mk seed);
           Sim.Network.flow ~extra_rm:0.02 (mk (seed + 1000));
         ])
  in
  let flows = Sim.Network.flows net in
  ( net,
    {
      delivered = Array.map Sim.Flow.delivered_bytes flows;
      lost = Array.map Sim.Flow.lost_bytes flows;
      link_delivered = Sim.Link.delivered_bytes (Sim.Network.link net);
      link_drops = Sim.Link.drops (Sim.Network.link net);
      data_drops = Sim.Network.fault_data_drops net;
      ack_drops = Sim.Network.fault_ack_drops net;
      stall_probes = Array.map Sim.Flow.stall_probes flows;
      violations =
        (match Sim.Network.invariant net with
        | Some inv -> Sim.Invariant.count inv
        | None -> -1);
    } )

let test_chaos () =
  let seeds = [ 1; 2; 3; 4; 5 ] in
  let runs = ref 0 in
  List.iter
    (fun seed ->
      List.iter
        (fun (scen, events) ->
          List.iter
            (fun (cca_name, mk) ->
              incr runs;
              let label = Printf.sprintf "%s/%s/seed%d" cca_name scen seed in
              let net, r = chaos_run ~seed ~events ~mk in
              Alcotest.(check int) (label ^ ": zero violations") 0 r.violations;
              Array.iteri
                (fun i d ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s: flow %d delivered" label i)
                    true (d > 0))
                r.delivered;
              (* Every flow must resume delivering once a blackout ends. *)
              if scen = "blackout" then
                Array.iter
                  (fun f ->
                    let after = delivered_at f 8. -. delivered_at f 4.1 in
                    Alcotest.(check bool)
                      (Printf.sprintf "%s: flow %d recovered" label (Sim.Flow.id f))
                      true (after > 0.))
                  (Sim.Network.flows net))
            chaos_ccas)
        chaos_scenarios)
    seeds;
  Alcotest.(check bool)
    (Printf.sprintf "at least 50 randomized runs (%d)" !runs)
    true (!runs >= 50)

let test_chaos_deterministic () =
  (* Bit-identical replay: every integer counter matches across two runs
     of every scenario with the same seed. *)
  List.iter
    (fun (scen, events) ->
      let _, a = chaos_run ~seed:7 ~events ~mk:(fun s -> ignore s; Reno.make ()) in
      let _, b = chaos_run ~seed:7 ~events ~mk:(fun s -> ignore s; Reno.make ()) in
      let lbl what = Printf.sprintf "%s: %s identical" scen what in
      Alcotest.(check (array int)) (lbl "delivered") a.delivered b.delivered;
      Alcotest.(check (array int)) (lbl "lost") a.lost b.lost;
      Alcotest.(check int) (lbl "link delivered") a.link_delivered b.link_delivered;
      Alcotest.(check int) (lbl "link drops") a.link_drops b.link_drops;
      Alcotest.(check (array int)) (lbl "fault data drops") a.data_drops b.data_drops;
      Alcotest.(check (array int)) (lbl "fault ack drops") a.ack_drops b.ack_drops;
      Alcotest.(check (array int)) (lbl "stall probes") a.stall_probes b.stall_probes)
    chaos_scenarios

let test_no_fault_runs_unchanged () =
  (* An empty plan must leave the RNG split sequence alone: a config with
     [~faults:Fault.none] replays exactly like one without the option. *)
  let mk ~with_faults =
    let cfg =
      if with_faults then
        Sim.Network.config ~rate:(Sim.Link.Constant rate) ~buffer ~rm ~seed:5
          ~faults:Sim.Fault.none ~duration:6.
          [ Sim.Network.flow ~loss_rate:0.02 (Reno.make ()) ]
      else
        Sim.Network.config ~rate:(Sim.Link.Constant rate) ~buffer ~rm ~seed:5
          ~duration:6.
          [ Sim.Network.flow ~loss_rate:0.02 (Reno.make ()) ]
    in
    let net = Sim.Network.run_config cfg in
    ( Sim.Flow.delivered_bytes (Sim.Network.flows net).(0),
      (Sim.Network.random_losses net).(0) )
  in
  let d1, l1 = mk ~with_faults:true and d2, l2 = mk ~with_faults:false in
  Alcotest.(check int) "delivered identical" d2 d1;
  Alcotest.(check int) "random losses identical" l2 l1

let () =
  Alcotest.run "faults"
    [
      ( "fault-plan",
        [
          Alcotest.test_case "validation" `Quick test_plan_validation;
          Alcotest.test_case "compile blackout" `Quick test_compile_rate_blackout;
          Alcotest.test_case "compile steps" `Quick test_compile_rate_steps;
          Alcotest.test_case "compile piecewise base" `Quick
            test_compile_rate_piecewise_base;
          Alcotest.test_case "passthrough" `Quick test_compile_rate_passthrough;
          Alcotest.test_case "runtime drops" `Quick test_fault_runtime_drops;
          Alcotest.test_case "runtime deterministic" `Quick
            test_fault_runtime_deterministic;
        ] );
      ( "invariant",
        [
          Alcotest.test_case "recorder" `Quick test_invariant_recorder;
          Alcotest.test_case "queue bound after unbounded growth" `Quick
            test_queue_bound_after_unbounded_growth;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "blackout recovery" `Slow test_blackout_recovery;
          Alcotest.test_case "stall probe unwedges" `Quick test_stall_probe_unwedges;
          Alcotest.test_case "cca sanity clamp" `Quick test_cca_sanity_clamp;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "75 monitored runs" `Slow test_chaos;
          Alcotest.test_case "bit-identical replay" `Slow test_chaos_deterministic;
          Alcotest.test_case "no-fault runs unchanged" `Quick
            test_no_fault_runs_unchanged;
        ] );
    ]

(* Checkpoint/restore fidelity, snapshot persistence, checkpointed-run
   divergence location, and the failing-scenario shrinker.

   The load-bearing property throughout: running a scenario 0→T is
   byte-identical (state hash, flow statistics) to running 0→T/2,
   serializing, restoring into a fresh heap, and running T/2→T. *)

let qt = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Scenario builders                                                   *)
(* ------------------------------------------------------------------ *)

(* Every run needs a fresh config: instantiated CCA closures carry
   mutable state, so sharing one config across two runs would let the
   first dirty the second. *)

let mk_cca = function
  | 0 -> Reno.make ()
  | 1 -> Cubic.make ()
  | 2 -> Bbr.make ()
  | 3 -> Vegas.make ()
  | _ -> Copa.make ()

let base_flow ?jitter ?jitter_bound ?ack_policy ?loss_rate cca_id =
  Sim.Network.flow ?jitter ?jitter_bound ?ack_policy ?loss_rate (mk_cca cca_id)

let wheel_scenario = "wheel-300-staggered"
let ecn_scenario = "threshold-ecn"

(* A matrix of deliberately awkward scenarios: CCAs with internal state
   machines, jitter RNG streams, delayed/aggregated ACK timers, random
   loss, a CE-marking threshold AQM, DRR per-flow queues, and fault chains —
   everything the snapshot must carry. *)
let scenarios : (string * (unit -> Sim.Network.config)) list =
  let rate = Sim.Units.mbps 12. in
  let buffer = 48 * 1500 in
  [
    ( "reno-plain",
      fun () ->
        Sim.Network.config ~rate:(Sim.Link.Constant rate) ~buffer ~rm:0.04
          ~seed:1 ~duration:2.0
          [ base_flow 0 ] );
    ( "cubic-vs-bbr-jitter",
      fun () ->
        Sim.Network.config ~rate:(Sim.Link.Constant rate) ~buffer ~rm:0.04
          ~seed:2 ~duration:2.0
          [
            base_flow
              ~jitter:(Sim.Jitter.Uniform { lo = 0.; hi = 0.01 })
              ~jitter_bound:0.02 1;
            base_flow 2;
          ] );
    ( "vegas-delack-loss",
      fun () ->
        Sim.Network.config ~rate:(Sim.Link.Constant rate) ~buffer ~rm:0.04
          ~seed:3 ~duration:2.0
          [
            base_flow
              ~ack_policy:(Sim.Network.Delayed { count = 2; timeout = 0.04 })
              ~loss_rate:0.01 3;
            base_flow ~ack_policy:(Sim.Network.Aggregate { period = 0.01 }) 4;
          ] );
    ( "reno-blackout-monitored",
      fun () ->
        Sim.Network.config ~rate:(Sim.Link.Constant rate) ~buffer ~rm:0.04
          ~seed:4 ~monitor_period:0.05 ~duration:2.0
          ~faults:
            (Sim.Fault.plan
               [
                 (* The snapshot point (t = 1.0) lands inside this
                    blackout: pending RTO timers and a dark link are
                    exactly the state a checkpoint must not lose. *)
                 Sim.Fault.Link_blackout { t0 = 0.8; t1 = 1.3 };
                 Sim.Fault.Rate_step { at = 1.6; rate = rate /. 2. };
               ])
          [ base_flow 0; base_flow 2 ] );
    ( "bursty-ackhole-drr",
      fun () ->
        Sim.Network.config ~rate:(Sim.Link.Constant rate) ~buffer ~rm:0.04
          ~seed:5 ~discipline:(Sim.Link.Drr { quantum = 1500 }) ~duration:2.0
          ~faults:
            (Sim.Fault.plan
               [
                 Sim.Fault.Bursty_loss
                   { flow = 0; t0 = 0.3; t1 = 1.7; p_enter = 0.05;
                     p_exit = 0.3; loss_good = 0.; loss_bad = 0.4 };
                 Sim.Fault.Ack_blackhole { flow = 1; t0 = 0.9; t1 = 1.1 };
               ])
          [ base_flow 1; base_flow 0 ] );
    (* An ECN-reacting flow against a loss-based one on a link that
       marks every arrival above a quarter of the buffer. *)
    ( ecn_scenario,
      fun () ->
        Sim.Network.config ~rate:(Sim.Link.Constant rate) ~buffer
          ~ecn_threshold:(buffer / 4) ~rm:0.04 ~seed:6 ~duration:2.0
          [ Sim.Network.flow (Ecn_reno.make ()); base_flow 1 ] );
    (* Enough flows that the event queue outgrows its wheel threshold:
       the capture carries a live timer wheel and due heap, not just the
       overflow heap every small scenario stays in.  The matrix asserts
       the wheel is allocated at the capture point. *)
    ( wheel_scenario,
      fun () ->
        Sim.Network.config
          ~rate:(Sim.Link.Constant (Sim.Units.mbps 48.))
          ~buffer ~rm:0.04 ~seed:7 ~duration:2.0
          (List.init 300 (fun i ->
               Sim.Network.flow
                 ~start_time:(float_of_int i *. 0.003)
                 (mk_cca (if i mod 2 = 0 then 0 else 4)))) );
  ]

(* Observable outcome of a finished run, compared bit-for-bit. *)
let outcome net =
  let flows = Sim.Network.flows net in
  let t0 = Sim.Network.start_time net and t1 = Sim.Network.horizon net in
  let per_flow =
    Array.to_list flows
    |> List.concat_map (fun f ->
           [
             string_of_int (Sim.Flow.delivered_bytes f);
             string_of_int (Sim.Flow.lost_bytes f);
             Int64.to_string
               (Int64.bits_of_float (Sim.Flow.throughput f ~t0 ~t1));
             string_of_int (Sim.Flow.stall_probes f);
           ])
  in
  String.concat "," (Sim.Network.state_hash net :: per_flow)

let run_straight mk = outcome (Sim.Network.run_config (mk ()))

(* 0→frac·T, capture, restore, finish on the restored copy. *)
let run_split ?(frac = 0.5) mk =
  let cfg = mk () in
  let net = Sim.Network.build cfg in
  let t_mid =
    Sim.Network.start_time net
    +. (frac *. (Sim.Network.horizon net -. Sim.Network.start_time net))
  in
  Sim.Network.run_to net t_mid;
  let restored = Sim.Snapshot.restore (Sim.Snapshot.capture net) in
  outcome (Sim.Network.run restored)

(* ------------------------------------------------------------------ *)
(* Split-run equivalence                                               *)
(* ------------------------------------------------------------------ *)

let test_split_run_matrix () =
  List.iter
    (fun (name, mk) ->
      Alcotest.(check string)
        (name ^ ": split == straight")
        (run_straight mk) (run_split mk))
    scenarios;
  (* The wheel scenario must keep covering a live wheel: replay it to
     its capture point (mid-horizon, t = 1 s). *)
  let net = Sim.Network.build ((List.assoc wheel_scenario scenarios) ()) in
  Sim.Network.run_to net 1.0;
  let eq = Sim.Network.event_queue net in
  Alcotest.(check bool)
    (Printf.sprintf "%s: wheel allocated at capture (%d pending)"
       wheel_scenario (Sim.Event_queue.pending eq))
    true
    (Sim.Event_queue.wheel_allocated eq);
  (* The ECN scenario must keep covering a link that marks CE on both
     sides of its capture point. *)
  let net = Sim.Network.build ((List.assoc ecn_scenario scenarios) ()) in
  Sim.Network.run_to net 1.0;
  let marks_at_capture = Sim.Link.ce_marks (Sim.Network.link net) in
  let net = Sim.Network.run net in
  let marks_at_end = Sim.Link.ce_marks (Sim.Network.link net) in
  Alcotest.(check bool)
    (Printf.sprintf "%s: CE marks before (%d) and after (%d) capture"
       ecn_scenario marks_at_capture (marks_at_end - marks_at_capture))
    true
    (marks_at_capture > 0 && marks_at_end > marks_at_capture)

let test_double_split () =
  (* Snapshot twice (at 1/3 and 2/3) — restores compose. *)
  let _, mk = List.nth scenarios 3 in
  let cfg = mk () in
  let net = Sim.Network.build cfg in
  let t0 = Sim.Network.start_time net and hz = Sim.Network.horizon net in
  Sim.Network.run_to net (t0 +. ((hz -. t0) /. 3.));
  let net2 = Sim.Snapshot.restore (Sim.Snapshot.capture net) in
  Sim.Network.run_to net2 (t0 +. (2. *. (hz -. t0) /. 3.));
  let net3 = Sim.Snapshot.restore (Sim.Snapshot.capture net2) in
  Alcotest.(check string) "two restores == straight" (run_straight mk)
    (outcome (Sim.Network.run net3))

let test_restore_is_independent () =
  (* Advancing the restored copy must not disturb the original. *)
  let _, mk = List.nth scenarios 1 in
  let net = Sim.Network.build (mk ()) in
  Sim.Network.run_to net 1.0;
  let h_mid = Sim.Network.state_hash net in
  let restored = Sim.Snapshot.restore (Sim.Snapshot.capture net) in
  ignore (Sim.Network.run restored);
  Alcotest.(check string) "original undisturbed" h_mid
    (Sim.Network.state_hash net);
  ignore (Sim.Network.run net);
  Alcotest.(check string) "both futures identical"
    (Sim.Network.state_hash restored)
    (Sim.Network.state_hash net)

(* Randomized scenarios: seed, snapshot point, flow mix, optional
   blackout arranged to cover the snapshot point (so some snapshots land
   mid-blackout with RTO timers pending). *)
let qcheck_split_equivalence =
  let gen =
    QCheck.make
      ~print:(fun (seed, fracq, mix, blackout) ->
        Printf.sprintf "seed=%d frac=%d/8 mix=%d blackout=%b" seed fracq mix
          blackout)
      QCheck.Gen.(
        quad (int_range 0 1000) (int_range 1 7) (int_range 0 24) bool)
  in
  QCheck.Test.make ~name:"snapshot/restore/run == straight run (randomized)"
    ~count:25 gen (fun (seed, fracq, mix, blackout) ->
      let frac = float_of_int fracq /. 8. in
      let duration = 1.6 in
      let mk () =
        let flows =
          [
            base_flow
              ~jitter:(Sim.Jitter.Uniform { lo = 0.; hi = 0.005 })
              ~jitter_bound:0.01 (mix mod 5);
            base_flow ~loss_rate:0.005
              ~ack_policy:(Sim.Network.Delayed { count = 2; timeout = 0.03 })
              (mix / 5);
          ]
        in
        let faults =
          if blackout then
            (* Window straddling the snapshot point: the restore must
               revive a dark link and the RTO timers it provoked. *)
            let t_snap = frac *. duration in
            Sim.Fault.plan
              [
                Sim.Fault.Link_blackout
                  {
                    t0 = Float.max 0.01 (t_snap -. 0.15);
                    t1 = Float.min (duration -. 0.01) (t_snap +. 0.15);
                  };
              ]
          else Sim.Fault.none
        in
        Sim.Network.config ~rate:(Sim.Link.Constant (Sim.Units.mbps 8.))
          ~buffer:(32 * 1500) ~rm:0.03 ~seed ~faults ~duration flows
      in
      String.equal (run_straight mk) (run_split ~frac mk))

(* ------------------------------------------------------------------ *)
(* Persistence                                                         *)
(* ------------------------------------------------------------------ *)

let with_temp_file f =
  let path = Filename.temp_file "ccstarve_snap" ".bin" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_save_load_roundtrip () =
  with_temp_file (fun path ->
      let _, mk = List.nth scenarios 3 in
      let net = Sim.Network.build (mk ()) in
      Sim.Network.run_to net 1.0;
      let snap = Sim.Snapshot.capture net in
      Sim.Snapshot.save path snap;
      let loaded = Sim.Snapshot.load path in
      Alcotest.(check (float 0.)) "time survives" (Sim.Snapshot.time snap)
        (Sim.Snapshot.time loaded);
      Alcotest.(check string) "hash survives" (Sim.Snapshot.hash snap)
        (Sim.Snapshot.hash loaded);
      let finished = Sim.Network.run (Sim.Snapshot.restore loaded) in
      Alcotest.(check string) "restored-from-disk == straight"
        (run_straight mk) (outcome finished))

let expect_incompatible name f =
  match f () with
  | exception Sim.Snapshot.Incompatible _ -> ()
  | _ -> Alcotest.fail (name ^ ": expected Snapshot.Incompatible")

let test_corrupt_snapshot_rejected () =
  with_temp_file (fun path ->
      let _, mk = List.nth scenarios 0 in
      let net = Sim.Network.build (mk ()) in
      Sim.Network.run_to net 0.5;
      Sim.Snapshot.save path (Sim.Snapshot.capture net);
      let raw = In_channel.with_open_bin path In_channel.input_all in
      (* Truncation. *)
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc
            (String.sub raw 0 (String.length raw / 2)));
      expect_incompatible "truncated" (fun () -> Sim.Snapshot.load path);
      (* A flipped byte deep in the payload. *)
      let tampered = Bytes.of_string raw in
      let i = String.length raw - 40 in
      Bytes.set tampered i (Char.chr (Char.code (Bytes.get tampered i) lxor 1));
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_bytes oc tampered);
      expect_incompatible "bit flip" (fun () ->
          Sim.Snapshot.restore (Sim.Snapshot.load path));
      (* Not a snapshot at all. *)
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc "not a snapshot\n");
      expect_incompatible "bad magic" (fun () -> Sim.Snapshot.load path))

(* ------------------------------------------------------------------ *)
(* Checkpoint streams and divergence location                          *)
(* ------------------------------------------------------------------ *)

let checkpoint_stream mk =
  let acc = ref [] in
  let net = Sim.Network.build (mk ()) in
  ignore
    (Sim.Snapshot.run_with_checkpoints ~interval:0.25
       ~on_checkpoint:(fun s ->
         acc := (Sim.Snapshot.time s, Sim.Snapshot.hash s) :: !acc)
       net);
  List.rev !acc

let test_checkpoint_cadence_and_determinism () =
  let _, mk = List.nth scenarios 4 in
  let a = checkpoint_stream mk and b = checkpoint_stream mk in
  Alcotest.(check int) "2 s / 0.25 s = 7 interior checkpoints" 7
    (List.length a);
  Alcotest.(check (list (pair (float 0.) string)))
    "checkpoint hash streams identical" a b

let fingerprint_stream ~seed () =
  let acc = ref [] in
  let net =
    Sim.Network.build
      (Sim.Network.config ~rate:(Sim.Link.Constant (Sim.Units.mbps 8.))
         ~buffer:(32 * 1500) ~rm:0.03 ~seed ~duration:1.5
         [ base_flow ~loss_rate:0.01 0; base_flow 1 ])
  in
  ignore
    (Sim.Snapshot.run_with_checkpoints ~interval:0.25
       ~on_checkpoint:(fun s -> acc := Sim.Snapshot.time s :: !acc)
       net);
  (* Re-run collecting full fingerprints (capture only records the
     digest; the fingerprint stream is what first_divergence compares). *)
  let acc = ref [] in
  let net =
    Sim.Network.build
      (Sim.Network.config ~rate:(Sim.Link.Constant (Sim.Units.mbps 8.))
         ~buffer:(32 * 1500) ~rm:0.03 ~seed ~duration:1.5
         [ base_flow ~loss_rate:0.01 0; base_flow 1 ])
  in
  let rec step t =
    if t < 1.5 then begin
      Sim.Network.run_to net t;
      acc := (t, Sim.Network.fingerprint net) :: !acc;
      step (t +. 0.25)
    end
  in
  step 0.25;
  List.rev !acc

let test_first_divergence () =
  let a = fingerprint_stream ~seed:11 () in
  let b = fingerprint_stream ~seed:11 () in
  Alcotest.(check bool) "identical runs never diverge" true
    (Sim.Snapshot.first_divergence a b = None);
  let c = fingerprint_stream ~seed:12 () in
  match Sim.Snapshot.first_divergence a c with
  | None -> Alcotest.fail "different seeds must diverge"
  | Some (t, component) ->
      Alcotest.(check bool) "divergence at a checkpoint time" true
        (t >= 0.25 && t <= 1.25);
      Alcotest.(check bool) "component named" true
        (String.length component > 0)

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)
(* ------------------------------------------------------------------ *)

(* One flow violates its declared jitter bound (Uniform above the bound
   clamps, and clamps are audited); the second flow and both faults are
   decoys the shrinker must discard. *)
let violating_config () =
  Sim.Network.config ~rate:(Sim.Link.Constant (Sim.Units.mbps 1.5)) ~rm:0.05
    ~seed:7 ~monitor_period:0.05 ~duration:4.0
    ~faults:
      (Sim.Fault.plan
         [
           Sim.Fault.Link_blackout { t0 = 1.0; t1 = 1.2 };
           Sim.Fault.Rate_step { at = 2.0; rate = 750_000. };
         ])
    [
      Sim.Network.flow
        ~jitter:(Sim.Jitter.Uniform { lo = 0.; hi = 0.05 })
        ~jitter_bound:0.02 (Reno.make ());
      Sim.Network.flow (Reno.make ());
    ]

let test_shrink_minimizes () =
  match Sim.Shrink.shrink (violating_config ()) with
  | None -> Alcotest.fail "expected a violation to shrink"
  | Some r ->
      Alcotest.(check string) "same check survives" "jitter-bound"
        r.Sim.Shrink.check;
      Alcotest.(check bool) "at most 2 flows" true
        (List.length r.Sim.Shrink.config.Sim.Network.flows <= 2);
      Alcotest.(check bool) "at most 1 fault event" true
        (List.length
           (Sim.Fault.events r.Sim.Shrink.config.Sim.Network.faults)
        <= 1);
      Alcotest.(check bool) "horizon shrank" true
        (r.Sim.Shrink.config.Sim.Network.duration < 4.0);
      Alcotest.(check bool) "still violates" true (r.Sim.Shrink.violations > 0);
      (* The minimized config must remain runnable and still trip. *)
      Alcotest.(check bool) "reproducer re-trips" true
        (List.mem_assoc r.Sim.Shrink.check
           (Sim.Shrink.trips r.Sim.Shrink.config))

let test_shrink_clean_config () =
  let clean () =
    Sim.Network.config ~rate:(Sim.Link.Constant (Sim.Units.mbps 8.))
      ~buffer:(32 * 1500) ~rm:0.03 ~seed:1 ~monitor_period:0.05 ~duration:1.0
      [ Sim.Network.flow (Reno.make ()) ]
  in
  Alcotest.(check bool) "clean scenario does not shrink" true
    (Sim.Shrink.shrink (clean ()) = None)

let test_repro_file_roundtrip () =
  with_temp_file (fun path ->
      match Sim.Shrink.shrink (violating_config ()) with
      | None -> Alcotest.fail "expected a violation"
      | Some r ->
          Sim.Shrink.write_repro path r;
          let r' = Sim.Shrink.load_repro path in
          Alcotest.(check string) "check survives disk" r.Sim.Shrink.check
            r'.Sim.Shrink.check;
          Alcotest.(check bool) "loaded reproducer still trips" true
            (List.mem_assoc r'.Sim.Shrink.check
               (Sim.Shrink.trips r'.Sim.Shrink.config));
          (* Corruption is rejected before Marshal sees the payload. *)
          let raw = In_channel.with_open_bin path In_channel.input_all in
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc
                (String.sub raw 0 (String.length raw - 7)));
          expect_incompatible "truncated repro" (fun () ->
              Sim.Shrink.load_repro path))

let () =
  Alcotest.run "snapshot"
    [
      ( "split-run",
        [
          Alcotest.test_case "scenario matrix" `Quick test_split_run_matrix;
          Alcotest.test_case "double split" `Quick test_double_split;
          Alcotest.test_case "restore is independent" `Quick
            test_restore_is_independent;
          qt qcheck_split_equivalence;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "save/load roundtrip" `Quick
            test_save_load_roundtrip;
          Alcotest.test_case "corruption rejected" `Quick
            test_corrupt_snapshot_rejected;
        ] );
      ( "checkpoints",
        [
          Alcotest.test_case "cadence and determinism" `Quick
            test_checkpoint_cadence_and_determinism;
          Alcotest.test_case "first divergence" `Quick test_first_divergence;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "minimizes to the core" `Quick
            test_shrink_minimizes;
          Alcotest.test_case "clean config" `Quick test_shrink_clean_config;
          Alcotest.test_case "repro file roundtrip" `Quick
            test_repro_file_roundtrip;
        ] );
    ]

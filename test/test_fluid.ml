(* Tests for lib/fluid: the backend selector, the fixed-step fluid
   engine's byte ledger and determinism, the fluid census, and the
   cross-validation oracles in lib/validate/fluid_oracle. *)

let qt = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Backend selector                                                    *)
(* ------------------------------------------------------------------ *)

let test_backend_round_trip () =
  List.iter
    (fun b ->
      let s = Fluid.Backend.to_string b in
      match Fluid.Backend.of_string s with
      | Ok b' ->
          Alcotest.(check string)
            (Printf.sprintf "round-trip %s" s)
            s
            (Fluid.Backend.to_string b')
      | Error e -> Alcotest.failf "round-trip %s rejected: %s" s e)
    Fluid.Backend.all;
  (match Fluid.Backend.of_string "FLUID" with
  | Ok Fluid.Backend.Fluid -> ()
  | _ -> Alcotest.fail "of_string is case-insensitive");
  match Fluid.Backend.of_string "quantum" with
  | Ok _ -> Alcotest.fail "unknown backend accepted"
  | Error msg ->
      List.iter
        (fun b ->
          let name = Fluid.Backend.to_string b in
          let mentions =
            let len = String.length name in
            let n = String.length msg in
            let rec scan i =
              i + len <= n && (String.sub msg i len = name || scan (i + 1))
            in
            scan 0
          in
          Alcotest.(check bool)
            (Printf.sprintf "error names %s" name)
            true mentions)
        Fluid.Backend.all

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let engine_config ?(rate = 1.25e6) ?(rm = 0.04) ?(duration = 30.)
    ?(nflows = 2) law =
  let flows =
    List.init nflows (fun _ -> Fluid.Engine.flow ~mss:1500. law)
  in
  Fluid.Engine.config ~rate ~buffer:(2. *. rate *. rm) ~rm ~duration flows

let test_engine_conservation () =
  List.iter
    (fun (name, law) ->
      let eng = Fluid.Engine.run_config (engine_config law) in
      let accepted = Fluid.Engine.accepted_total eng in
      let err = Fluid.Engine.conservation_error eng in
      Alcotest.(check bool)
        (Printf.sprintf "%s: flows actually sent" name)
        true (accepted > 0.);
      Alcotest.(check bool)
        (Printf.sprintf "%s: ledger closes (err %.3g)" name err)
        true
        (err <= 1. +. 1e-6 *. accepted))
    [
      ("reno", Ccac.Model.reno_fluid);
      ("copa", Ccac.Model.copa_fluid ());
      ("vegas", Ccac.Model.vegas_fluid ());
    ]

let test_engine_deterministic () =
  let run () =
    let eng = Fluid.Engine.run_config (engine_config Ccac.Model.reno_fluid) in
    ( Fluid.Engine.steps eng,
      Int64.bits_of_float (Fluid.Engine.served_total eng),
      Int64.bits_of_float (Fluid.Engine.queue_bytes eng),
      Int64.bits_of_float (Fluid.Engine.flow_cwnd eng 0) )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "bitwise-identical reruns" true (a = b)

let test_engine_symmetric_fairness () =
  (* Two identical Reno flows on one link: equilibrium shares within a
     sawtooth band of each other, and the link is near-saturated. *)
  let rate = 1.25e6 in
  let eng =
    Fluid.Engine.run_config
      (engine_config ~rate ~duration:60. Ccac.Model.reno_fluid)
  in
  let r0 = Fluid.Engine.goodput eng 0 and r1 = Fluid.Engine.goodput eng 1 in
  let ratio = Float.max r0 r1 /. Float.min r0 r1 in
  Alcotest.(check bool)
    (Printf.sprintf "throughput ratio %.3f < 1.5" ratio)
    true (ratio < 1.5);
  let util = (r0 +. r1) /. rate in
  Alcotest.(check bool)
    (Printf.sprintf "utilisation %.2f in [0.6, 1.01]" util)
    true
    (util > 0.6 && util < 1.01)

let prop_engine_conservation =
  QCheck.Test.make ~name:"fluid ledger closes for arbitrary small configs"
    ~count:25
    QCheck.(
      triple (1 -- 4)
        (float_range 2.5e5 5e6)
        (float_range 0.01 0.08))
    (fun (nflows, rate, rm) ->
      let eng =
        Fluid.Engine.run_config
          (engine_config ~nflows ~rate ~rm ~duration:20.
             (Ccac.Model.copa_fluid ()))
      in
      Fluid.Engine.conservation_error eng
      <= 1. +. (1e-6 *. Fluid.Engine.accepted_total eng))

(* ------------------------------------------------------------------ *)
(* Census                                                              *)
(* ------------------------------------------------------------------ *)

let test_census_smoke () =
  let n = 300 in
  let mss = 1500. in
  let cfg =
    Fluid.Census.config ~key:"test/fluid-census" ~seed:42 ~n ~duration:120.
      ~arrival_frac:0.6 ~rate:7.5e6 ~rm:0.04 ~mss ~jitter_d:0.01 ~alpha:1.5
      ~xm:(10. *. mss) ~size_cap:(3000. *. mss)
      (Ccac.Model.copa_fluid ())
  in
  let res = Fluid.Census.run cfg in
  Alcotest.(check int) "goodput per flow" n (Array.length res.Fluid.Census.goodputs);
  Alcotest.(check bool) "most flows complete" true
    (res.Fluid.Census.completed > n / 2);
  Alcotest.(check bool) "population overlapped" true
    (res.Fluid.Census.peak_active > 1);
  Alcotest.(check bool) "goodputs finite and non-negative" true
    (Array.for_all
       (fun g -> Float.is_finite g && g >= 0.)
       res.Fluid.Census.goodputs);
  Alcotest.(check bool) "census ledger closes" true
    (res.Fluid.Census.conservation_error
    <= 1. +. (1e-6 *. res.Fluid.Census.offered_bytes))

let test_census_deterministic () =
  let cfg () =
    Fluid.Census.config ~key:"test/fluid-census-det" ~seed:7 ~n:120
      ~duration:60. ~arrival_frac:0.6 ~rate:7.5e6 ~rm:0.04 ~mss:1500.
      ~jitter_d:0.005 ~alpha:1.5 ~xm:15000. ~size_cap:1.5e6
      (Ccac.Model.vegas_fluid ())
  in
  let a = Fluid.Census.run (cfg ()) and b = Fluid.Census.run (cfg ()) in
  Alcotest.(check int) "same completions" a.Fluid.Census.completed
    b.Fluid.Census.completed;
  Alcotest.(check bool) "bitwise-identical goodputs" true
    (Array.for_all2
       (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
       a.Fluid.Census.goodputs b.Fluid.Census.goodputs)

(* Every float field is checked NaN-safely and named.  Unchecked, a NaN
   rate, jitter_d or size_cap, or a zero mss, reports every flow starved
   with all quantiles 0, a plausible-looking result; a NaN duration
   fails late inside [Rng.exponential] and an infinite one never
   returns. *)
let test_census_config_rejects () =
  let config ?(n = 200) ?(duration = 60.) ?(arrival_frac = 0.6)
      ?(rate = 7.5e6) ?buffer ?(rm = 0.04) ?(mss = 1500.) ?(jitter_d = 0.01)
      ?(alpha = 1.5) ?(xm = 15000.) ?(size_cap = 1.5e6) ?dt () =
    Fluid.Census.config ~key:"test/fluid-census-reject" ~seed:1 ~n ~duration
      ~arrival_frac ~rate ?buffer ~rm ~mss ~jitter_d ~alpha ~xm ~size_cap ?dt
      Ccac.Model.reno_fluid
  in
  let rejects (name, field, f) =
    match f () with
    | _ -> Alcotest.failf "%s accepted" name
    | exception Invalid_argument msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %S names %s" name msg field)
          true
          (String.starts_with ~prefix:("Fluid.Census.config: " ^ field) msg)
  in
  List.iter rejects
    [
      ("n 0", "n", fun () -> config ~n:0 ());
      ("duration nan", "duration", fun () -> config ~duration:nan ());
      ("duration inf", "duration", fun () -> config ~duration:infinity ());
      ("duration 0", "duration", fun () -> config ~duration:0. ());
      ("arrival_frac nan", "arrival_frac", fun () -> config ~arrival_frac:nan ());
      ("arrival_frac 0", "arrival_frac", fun () -> config ~arrival_frac:0. ());
      ("arrival_frac 1.5", "arrival_frac", fun () -> config ~arrival_frac:1.5 ());
      ("rate nan", "rate", fun () -> config ~rate:nan ());
      ("rate inf", "rate", fun () -> config ~rate:infinity ());
      ("rate 0", "rate", fun () -> config ~rate:0. ());
      ("buffer nan", "buffer", fun () -> config ~buffer:nan ());
      ("buffer -1", "buffer", fun () -> config ~buffer:(-1.) ());
      ("rm nan", "rm", fun () -> config ~rm:nan ());
      ("rm inf", "rm", fun () -> config ~rm:infinity ());
      ("rm 0", "rm", fun () -> config ~rm:0. ());
      ("mss nan", "mss", fun () -> config ~mss:nan ());
      ("mss 0", "mss", fun () -> config ~mss:0. ());
      ("jitter_d nan", "jitter_d", fun () -> config ~jitter_d:nan ());
      ("jitter_d inf", "jitter_d", fun () -> config ~jitter_d:infinity ());
      ("jitter_d -1", "jitter_d", fun () -> config ~jitter_d:(-1.) ());
      ("alpha nan", "alpha", fun () -> config ~alpha:nan ());
      ("alpha 0", "alpha", fun () -> config ~alpha:0. ());
      ("xm nan", "xm", fun () -> config ~xm:nan ());
      ("xm 0", "xm", fun () -> config ~xm:0. ());
      ("size_cap nan", "size_cap", fun () -> config ~size_cap:nan ());
      ("size_cap inf", "size_cap", fun () -> config ~size_cap:infinity ());
      ("size_cap 0", "size_cap", fun () -> config ~size_cap:0. ());
      ("dt nan", "dt", fun () -> config ~dt:nan ());
      ("dt 0", "dt", fun () -> config ~dt:0. ());
    ];
  (* The boundary values stay legal: an unbounded or empty buffer, no
     jitter, arrivals over the whole run. *)
  ignore (config ~buffer:infinity ~jitter_d:0. ~arrival_frac:1. ());
  ignore (config ~buffer:0. ())

(* The engine and hybrid constructors check every number NaN-safely and
   name the field.  Before, their checks were [rate <= 0.] and the like,
   which NaN passes, an error did not say which field was wrong, and
   [Hybrid.flow] checked nothing. *)
let test_constructors_reject () =
  let law = Ccac.Model.reno_fluid in
  let packet_cca ~cwnd:_ = Reno.make () in
  let engine_flow ?start_time ?mss () =
    ignore (Fluid.Engine.flow ?start_time ?mss law)
  in
  let engine_config ?(rate = 1.25e6) ?buffer ?(rm = 0.04) ?dt ?t0
      ?measure_from ?initial_queue ?(duration = 1.) () =
    ignore
      (Fluid.Engine.config ~rate ?buffer ~rm ?dt ?t0 ?measure_from
         ?initial_queue ~duration [ Fluid.Engine.flow law ])
  in
  let hybrid_flow ?jitter_bound ?mss () =
    ignore (Fluid.Hybrid.flow ?jitter_bound ?mss ~packet_cca law)
  in
  let hybrid_config ?(rate = 1.25e6) ?buffer ?(rm = 0.04) ?dt ?measure_from
      ?events ?window ?(duration = 1.) () =
    ignore
      (Fluid.Hybrid.config ~rate ?buffer ~rm ?dt ?measure_from ?events
         ?window ~duration
         [ Fluid.Hybrid.flow ~packet_cca law ])
  in
  let ef = "Fluid.Engine.flow" and ec = "Fluid.Engine.config" in
  let hf = "Fluid.Hybrid.flow" and hc = "Fluid.Hybrid.config" in
  let rejects (fn, field, case, f) =
    match f () with
    | () -> Alcotest.failf "%s %s accepted" fn case
    | exception Invalid_argument msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s %s: %S names %s" fn case msg field)
          true
          (String.starts_with ~prefix:(fn ^ ": " ^ field) msg)
  in
  List.iter rejects
    [
      (ef, "start_time", "nan", fun () -> engine_flow ~start_time:nan ());
      (ef, "start_time", "inf", fun () -> engine_flow ~start_time:infinity ());
      (ef, "mss", "nan", fun () -> engine_flow ~mss:nan ());
      (ef, "mss", "inf", fun () -> engine_flow ~mss:infinity ());
      (ef, "mss", "0", fun () -> engine_flow ~mss:0. ());
      (ec, "rate", "nan", fun () -> engine_config ~rate:nan ());
      (ec, "rate", "inf", fun () -> engine_config ~rate:infinity ());
      (ec, "rate", "0", fun () -> engine_config ~rate:0. ());
      (ec, "buffer", "nan", fun () -> engine_config ~buffer:nan ());
      (ec, "buffer", "-1", fun () -> engine_config ~buffer:(-1.) ());
      (ec, "rm", "nan", fun () -> engine_config ~rm:nan ());
      (ec, "rm", "inf", fun () -> engine_config ~rm:infinity ());
      (ec, "rm", "0", fun () -> engine_config ~rm:0. ());
      (ec, "dt", "nan", fun () -> engine_config ~dt:nan ());
      (ec, "dt", "0", fun () -> engine_config ~dt:0. ());
      (ec, "t0", "nan", fun () -> engine_config ~t0:nan ());
      (ec, "measure_from", "nan", fun () -> engine_config ~measure_from:nan ());
      (ec, "initial_queue", "nan", fun () -> engine_config ~initial_queue:nan ());
      (ec, "initial_queue", "-1", fun () -> engine_config ~initial_queue:(-1.) ());
      (ec, "duration", "nan", fun () -> engine_config ~duration:nan ());
      (ec, "duration", "inf", fun () -> engine_config ~duration:infinity ());
      (ec, "duration", "-1", fun () -> engine_config ~duration:(-1.) ());
      (hf, "jitter_bound", "nan", fun () -> hybrid_flow ~jitter_bound:nan ());
      (hf, "jitter_bound", "-1", fun () -> hybrid_flow ~jitter_bound:(-1.) ());
      (hf, "mss", "nan", fun () -> hybrid_flow ~mss:nan ());
      (hf, "mss", "inf", fun () -> hybrid_flow ~mss:infinity ());
      (hf, "mss", "0.5", fun () -> hybrid_flow ~mss:0.5 ());
      (hc, "rate", "nan", fun () -> hybrid_config ~rate:nan ());
      (hc, "rate", "0", fun () -> hybrid_config ~rate:0. ());
      (hc, "buffer", "nan", fun () -> hybrid_config ~buffer:nan ());
      (hc, "buffer", "-1", fun () -> hybrid_config ~buffer:(-1.) ());
      (hc, "rm", "nan", fun () -> hybrid_config ~rm:nan ());
      (hc, "rm", "0", fun () -> hybrid_config ~rm:0. ());
      (hc, "dt", "nan", fun () -> hybrid_config ~dt:nan ());
      (hc, "duration", "nan", fun () -> hybrid_config ~duration:nan ());
      (hc, "duration", "0", fun () -> hybrid_config ~duration:0. ());
      (hc, "measure_from", "nan", fun () -> hybrid_config ~measure_from:nan ());
      (hc, "events", "nan", fun () -> hybrid_config ~events:[ 0.5; nan ] ());
      (hc, "window", "nan", fun () -> hybrid_config ~window:nan ());
      (hc, "window", "0", fun () -> hybrid_config ~window:0. ());
    ];
  (* The boundaries stay legal: unbounded and empty buffers, a
     zero-length engine run, an unbounded jitter bound and events
     outside the horizon. *)
  engine_config ~buffer:infinity ~duration:0. ();
  engine_config ~buffer:0. ~t0:5. ~measure_from:0. ();
  hybrid_flow ~jitter_bound:infinity ();
  hybrid_flow ~jitter_bound:0. ~mss:1. ();
  hybrid_config ~buffer:infinity ~events:[ -1.; 0.5; 10. ] ();
  hybrid_config ~buffer:0. ()

(* ------------------------------------------------------------------ *)
(* Cross-validation oracles                                            *)
(* ------------------------------------------------------------------ *)

let check_verdicts name vs =
  Alcotest.(check bool) "ran something" true (vs <> []);
  match Validate.Oracle.failures vs with
  | [] -> ()
  | fs ->
      Alcotest.failf "%s: %d oracle failure(s):\n%s" name (List.length fs)
        (String.concat "\n" (List.map Validate.Oracle.to_string fs))

let test_fluid_oracle_agreement () =
  check_verdicts "fluid-vs-packet agreement"
    (Validate.Fluid_oracle.all ~quick:true ())

let test_hybrid_threshold () =
  check_verdicts "hybrid threshold"
    (Validate.Fluid_oracle.hybrid_threshold ())

let () =
  Alcotest.run "fluid"
    [
      ( "backend",
        [ Alcotest.test_case "round trip" `Quick test_backend_round_trip ] );
      ( "engine",
        [
          Alcotest.test_case "conservation" `Quick test_engine_conservation;
          Alcotest.test_case "deterministic" `Quick test_engine_deterministic;
          Alcotest.test_case "symmetric fairness" `Quick
            test_engine_symmetric_fairness;
          Alcotest.test_case "engine and hybrid reject bad input" `Quick
            test_constructors_reject;
          qt prop_engine_conservation;
        ] );
      ( "census",
        [
          Alcotest.test_case "smoke" `Quick test_census_smoke;
          Alcotest.test_case "deterministic" `Quick test_census_deterministic;
          Alcotest.test_case "config rejects bad input" `Quick
            test_census_config_rejects;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "fluid vs packet" `Slow test_fluid_oracle_agreement;
          Alcotest.test_case "hybrid threshold" `Slow test_hybrid_threshold;
        ] );
    ]

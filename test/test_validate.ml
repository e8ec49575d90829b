(* The validation layer validated: the oracles must pass on the honest
   simulator and fail on a deliberately broken one.  The injected-bug
   test is the load-bearing one — an oracle suite that has never caught
   a planted bug proves nothing. *)

let contains s needle =
  let n = String.length needle in
  let rec scan i =
    i + n <= String.length s && (String.sub s i n = needle || scan (i + 1))
  in
  scan 0

let check_all_ok label verdicts =
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (label ^ ": " ^ Validate.Oracle.to_string v)
        true v.Validate.Oracle.ok)
    verdicts;
  Alcotest.(check bool) (label ^ ": non-empty") true (verdicts <> [])

(* ------------------------------------------------------------------ *)
(* Oracle verdict records                                              *)
(* ------------------------------------------------------------------ *)

let test_oracle_check_bands () =
  let v =
    Validate.Oracle.check ~oracle:"o" ~scenario:"s" ~expected:10.
      ~observed:10.4 ~tolerance:0.5 ()
  in
  Alcotest.(check bool) "inside band" true v.Validate.Oracle.ok;
  let v =
    Validate.Oracle.check ~oracle:"o" ~scenario:"s" ~expected:10.
      ~observed:10.6 ~tolerance:0.5 ()
  in
  Alcotest.(check bool) "outside band" false v.Validate.Oracle.ok;
  let v =
    Validate.Oracle.check ~oracle:"o" ~scenario:"s" ~expected:Float.nan
      ~observed:1. ~tolerance:infinity ()
  in
  Alcotest.(check bool) "nan never passes" false v.Validate.Oracle.ok

let test_oracle_exact_and_json () =
  let v =
    Validate.Oracle.exact ~oracle:"rescale" ~scenario:"s" ~expected:2.
      ~observed:2. ()
  in
  Alcotest.(check bool) "bitwise equal passes" true v.Validate.Oracle.ok;
  let v' =
    Validate.Oracle.exact ~oracle:"rescale" ~scenario:"s" ~expected:2.
      ~observed:(Float.succ 2.) ()
  in
  Alcotest.(check bool) "one ulp fails" false v'.Validate.Oracle.ok;
  Alcotest.(check bool) "failures isolates the failure" true
    (Validate.Oracle.failures [ v; v' ] = [ v' ]);
  let json = Validate.Oracle.to_json v in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("json has " ^ needle) true (contains json needle))
    [ "\"oracle\""; "\"scenario\""; "\"expected\""; "\"observed\""; "\"ok\"" ]

(* ------------------------------------------------------------------ *)
(* Analytic queueing oracles                                           *)
(* ------------------------------------------------------------------ *)

(* Short horizons keep the suite fast; the z=5 autocorrelation-inflated
   bands widen accordingly, so this is not a weaker check — just a
   noisier instrument with honestly wider error bars. *)
let quick spec = { spec with Validate.Queueing.horizon = 90.; warmup = 10. }

let test_mm1_within_bands () =
  let rng = Sim.Rng.create ~seed:1 in
  check_all_ok "mm1"
    (Validate.Queueing.verdicts ~rng (quick Validate.Queueing.mm1_default))

let test_md1_within_bands () =
  let rng = Sim.Rng.create ~seed:2 in
  check_all_ok "md1"
    (Validate.Queueing.verdicts ~rng (quick Validate.Queueing.md1_default))

(* ------------------------------------------------------------------ *)
(* Conservation + equilibrium oracles                                  *)
(* ------------------------------------------------------------------ *)

let faulty_config () =
  let rate = Sim.Units.mbps 12. in
  Sim.Network.config ~rate:(Sim.Link.Constant rate) ~rm:0.04
    ~buffer:90_000 ~initial_queue_bytes:40_000 ~monitor_period:0.05
    ~faults:
      (Sim.Fault.plan
         [ Sim.Fault.Link_blackout { t0 = 2.; t1 = 2.3 };
           Sim.Fault.Rate_step { at = 4.; rate = rate /. 2. } ])
    ~duration:6.
    [ Sim.Network.flow ~loss_rate:0.005 (Reno.make ());
      Sim.Network.flow (Vegas.make ()) ]

let test_conservation_on_faulty_run () =
  let net = Sim.Network.run_config (faulty_config ()) in
  check_all_ok "conservation"
    (Validate.Conservation.verdicts ~scenario:"faulty" net)

let test_equilibria () = check_all_ok "equilibrium" (Validate.Equilibrium.all ())

(* ------------------------------------------------------------------ *)
(* Metamorphic matrix                                                  *)
(* ------------------------------------------------------------------ *)

let test_metamorphic_matrix () =
  check_all_ok "metamorphic" (Validate.Metamorphic.all ())

(* ------------------------------------------------------------------ *)
(* Fuzzing                                                             *)
(* ------------------------------------------------------------------ *)

let test_fuzz_clean () =
  let report = Validate.Fuzz.run ~seed:1 ~n:6 () in
  Alcotest.(check int) "samples" 6 report.Validate.Fuzz.samples;
  Alcotest.(check bool) "verdicts checked" true
    (report.Validate.Fuzz.verdicts_checked >= 6 * 5);
  Alcotest.(check (list string)) "no violations" []
    (List.map
       (fun v -> v.Validate.Fuzz.summary)
       report.Validate.Fuzz.violations)

let test_fuzz_determinism () =
  (* Same (seed, id) twice from scratch: identical verdict records. *)
  let a, sa = Validate.Fuzz.check_sample ~seed:9 ~id:0 () in
  let b, sb = Validate.Fuzz.check_sample ~seed:9 ~id:0 () in
  Alcotest.(check string) "summary stable" sa sb;
  Alcotest.(check (list string)) "verdicts stable"
    (List.map Validate.Oracle.to_string a)
    (List.map Validate.Oracle.to_string b)

(* The acceptance test for the whole layer: plant an off-by-one in the
   link's aggregate byte accounting (one extra byte per serviced packet,
   behind the test-only hook) and demand that fuzzing (a) notices, (b)
   shrinks the offender to a minimal reproducer, and (c) persists a
   replayable corpus entry. *)
let test_fuzz_catches_injected_accounting_bug () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ccstarve-fuzz-test-%d" (Unix.getpid ()))
  in
  Sim.Link.set_accounting_skew 1;
  Fun.protect
    ~finally:(fun () -> Sim.Link.set_accounting_skew 0)
    (fun () ->
      let report = Validate.Fuzz.run ~dir ~seed:1 ~n:3 () in
      let violations = report.Validate.Fuzz.violations in
      Alcotest.(check bool) "bug caught" true (violations <> []);
      List.iter
        (fun v ->
          let oracles =
            List.map
              (fun f -> f.Validate.Oracle.oracle)
              v.Validate.Fuzz.failing
          in
          Alcotest.(check bool)
            ("a conservation oracle fired: "
            ^ String.concat ", " oracles)
            true
            (List.exists
               (fun o ->
                 o = "link-conservation" || o = "link-flow-conservation"
                 || o = "invariant-violations")
               oracles);
          (match v.Validate.Fuzz.shrunk with
          | None -> Alcotest.fail "violation was not shrunk"
          | Some d ->
              Alcotest.(check bool) ("shrunk: " ^ d) true (String.length d > 0));
          match v.Validate.Fuzz.repro_path with
          | None -> Alcotest.fail "no reproducer persisted"
          | Some p ->
              Alcotest.(check bool) ("repro exists: " ^ p) true (Sys.file_exists p);
              (* The reproducer must still trip while the bug is in. *)
              let r = Validate.Shrink.load_repro p in
              Alcotest.(check bool) "reproducer replays the violation" true
                (Validate.Shrink.trips ~monitor_period:0.05
                   (Validate.Shrink.copy_config r.Validate.Shrink.config)
                 <> []))
        violations)

let test_fuzz_report_json () =
  let report = Validate.Fuzz.run ~seed:4 ~n:2 () in
  let json = Validate.Fuzz.report_to_json report in
  Alcotest.(check bool) "mentions seed" true
    (String.length json > 0 && json.[0] = '{');
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("json has " ^ needle) true (contains json needle))
    [ "\"seed\""; "\"samples\""; "\"verdicts_checked\""; "\"violations\"" ]

(* A violation persisted under a directory with a non-ASCII name must
   still be valid JSON: UTF-8 bytes are copied as they are (OCaml's [%S]
   would write [\195\169], which JSON forbids), and quotes and newlines
   are escaped. *)
let test_fuzz_report_json_escapes () =
  let odd = "caf\xc3\xa9 \"q\"\nx" in
  let failing =
    [ Validate.Oracle.fail ~oracle:"determinism" ~scenario:odd ~detail:odd () ]
  in
  let report =
    {
      Validate.Fuzz.seed = 1;
      samples = 1;
      verdicts_checked = 1;
      violations =
        [
          {
            Validate.Fuzz.id = 0;
            summary = odd;
            failing;
            shrunk = Some odd;
            repro_path = Some (odd ^ "/scenario-0.repro.bin");
          };
        ];
    }
  in
  let json = Validate.Fuzz.report_to_json report in
  List.iter
    (fun (what, needle, present) ->
      Alcotest.(check bool) what present (contains json needle))
    [
      ("raw UTF-8 bytes", "caf\xc3\xa9", true);
      ("escaped quote", "\\\"q\\\"", true);
      ("escaped newline", "\\nx", true);
      ("no decimal escape", "\\195", false);
      ("repro path", "\"repro\":\"caf\xc3\xa9", true);
    ]

let () =
  Alcotest.run "validate"
    [
      ( "oracle",
        [
          Alcotest.test_case "bands" `Quick test_oracle_check_bands;
          Alcotest.test_case "exact and json" `Quick test_oracle_exact_and_json;
        ] );
      ( "queueing",
        [
          Alcotest.test_case "mm1" `Quick test_mm1_within_bands;
          Alcotest.test_case "md1" `Quick test_md1_within_bands;
        ] );
      ( "conservation",
        [
          Alcotest.test_case "faulty run" `Quick test_conservation_on_faulty_run;
        ] );
      ( "equilibrium", [ Alcotest.test_case "all" `Quick test_equilibria ] );
      ( "metamorphic",
        [ Alcotest.test_case "matrix" `Quick test_metamorphic_matrix ] );
      ( "fuzz",
        [
          Alcotest.test_case "clean" `Quick test_fuzz_clean;
          Alcotest.test_case "deterministic" `Quick test_fuzz_determinism;
          Alcotest.test_case "catches injected bug" `Quick
            test_fuzz_catches_injected_accounting_bug;
          Alcotest.test_case "report json" `Quick test_fuzz_report_json;
          Alcotest.test_case "report json escapes" `Quick
            test_fuzz_report_json_escapes;
        ] );
    ]

(* The failing-scenario shrinker and its reproducer files. *)

let with_temp_file f =
  let path = Filename.temp_file "ccstarve_repro" ".bin" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let expect_incompatible name f =
  match f () with
  | exception Validate.Shrink.Incompatible _ -> ()
  | _ -> Alcotest.fail (name ^ ": expected Shrink.Incompatible")

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
  match Validate.Shrink.shrink (violating_config ()) with
  | None -> Alcotest.fail "expected a violation to shrink"
  | Some r ->
      Alcotest.(check string) "same check survives" "jitter-bound"
        r.Validate.Shrink.check;
      Alcotest.(check bool) "at most 2 flows" true
        (List.length r.Validate.Shrink.config.Sim.Network.flows <= 2);
      Alcotest.(check bool) "at most 1 fault event" true
        (List.length
           (Sim.Fault.events r.Validate.Shrink.config.Sim.Network.faults)
        <= 1);
      Alcotest.(check bool) "horizon shrank" true
        (r.Validate.Shrink.config.Sim.Network.duration < 4.0);
      Alcotest.(check bool) "still violates" true
        (r.Validate.Shrink.violations > 0);
      (* The minimized config must remain runnable and still trip. *)
      Alcotest.(check bool) "reproducer re-trips" true
        (List.mem_assoc r.Validate.Shrink.check
           (Validate.Shrink.trips r.Validate.Shrink.config))

let test_shrink_clean_config () =
  let clean () =
    Sim.Network.config ~rate:(Sim.Link.Constant (Sim.Units.mbps 8.))
      ~buffer:(32 * 1500) ~rm:0.03 ~seed:1 ~monitor_period:0.05 ~duration:1.0
      [ Sim.Network.flow (Reno.make ()) ]
  in
  Alcotest.(check bool) "clean scenario does not shrink" true
    (Validate.Shrink.shrink (clean ()) = None)

(* A reproducer file is the magic line, the writing binary's digest as
   32 hex characters, the payload's MD5 and the payload.  A load must
   reject a damaged envelope before Marshal sees the payload. *)
let test_repro_file_roundtrip () =
  with_temp_file (fun path ->
      match Validate.Shrink.shrink (violating_config ()) with
      | None -> Alcotest.fail "expected a violation"
      | Some r ->
          Validate.Shrink.write_repro path r;
          let r' = Validate.Shrink.load_repro path in
          Alcotest.(check string) "check survives disk" r.Validate.Shrink.check
            r'.Validate.Shrink.check;
          Alcotest.(check bool) "loaded reproducer still trips" true
            (List.mem_assoc r'.Validate.Shrink.check
               (Validate.Shrink.trips r'.Validate.Shrink.config));
          let raw = In_channel.with_open_bin path In_channel.input_all in
          let rejected name content =
            Out_channel.with_open_bin path (fun oc ->
                Out_channel.output_string oc content);
            expect_incompatible name (fun () -> Validate.Shrink.load_repro path)
          in
          let tampered f =
            let b = Bytes.of_string raw in
            f b;
            Bytes.to_string b
          in
          let flip i b =
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1))
          in
          let magic = String.index raw '\n' + 1 in
          rejected "truncated" (String.sub raw 0 (String.length raw - 7));
          rejected "bad magic" (tampered (flip 0));
          rejected "flipped payload byte"
            (tampered (flip (String.length raw - 40)));
          rejected "foreign binary digest"
            (tampered (fun b ->
                 for i = magic to magic + 31 do
                   Bytes.set b i (if Bytes.get b i = '0' then '1' else '0')
                 done)))

let () =
  Alcotest.run "shrink"
    [
      ( "shrink",
        [
          Alcotest.test_case "minimizes to the core" `Quick
            test_shrink_minimizes;
          Alcotest.test_case "clean config" `Quick test_shrink_clean_config;
          Alcotest.test_case "repro file roundtrip" `Quick
            test_repro_file_roundtrip;
        ] );
    ]

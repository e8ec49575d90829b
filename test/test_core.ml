(* Tests for the analysis layer: convergence measurement, rate-delay
   curves, fairness metrics, the pigeonhole search, the Eq. 5 emulation
   machinery, the ambiguity/figure-of-merit math, and (as a slow test)
   the full Theorem 1 construction. *)

let check_float = Alcotest.(check (float 1e-9))
let check_float_eps eps = Alcotest.(check (float eps))
let qt = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Convergence                                                         *)
(* ------------------------------------------------------------------ *)

let measure_vegas ?(rate = Sim.Units.mbps 12.) ?(rm = 0.02) () =
  Core.Convergence.measure ~make_cca:(fun () -> Vegas.make ()) ~rate ~rm
    ~duration:10. ()

let test_convergence_vegas () =
  let m = measure_vegas () in
  Alcotest.(check bool) "converged" true m.Core.Convergence.converged;
  Alcotest.(check bool) "band above floor" true (m.Core.Convergence.d_min >= 0.02);
  Alcotest.(check bool) "efficient" true (m.Core.Convergence.efficiency > 0.9);
  Alcotest.(check bool) "t_converge sensible" true
    (m.Core.Convergence.t_converge >= 0. && m.Core.Convergence.t_converge < 6.)

let test_convergence_band_contains_tail () =
  let m = measure_vegas () in
  let tail =
    Sim.Series.window_values m.Core.Convergence.rtt ~t0:6. ~t1:10.
  in
  Array.iter
    (fun v ->
      Alcotest.(check bool) "sample in band" true
        (v >= m.Core.Convergence.d_min -. 1e-9
        && v <= m.Core.Convergence.d_max +. 1e-9))
    tail

let test_convergence_delta_definition () =
  let m = measure_vegas () in
  check_float "delta = d_max - d_min"
    (m.Core.Convergence.d_max -. m.Core.Convergence.d_min)
    m.Core.Convergence.delta

let test_convergence_nonconvergent_flagged () =
  (* Reno on a buffered link saws forever: the band is the whole sawtooth,
     but convergence into it should still be detected as entering late or
     having a wide band; what must NOT happen is a crash.  We assert only
     structural sanity here. *)
  let rate = Sim.Units.mbps 12. in
  let m =
    Core.Convergence.measure ~make_cca:(fun () -> Reno.make ()) ~rate ~rm:0.02
      ~duration:10. ()
  in
  Alcotest.(check bool) "delta is a sawtooth width" true
    (m.Core.Convergence.delta > 0.001)

let test_is_delay_convergent () =
  let ok, d_max_sup, delta_sup =
    Core.Convergence.is_delay_convergent
      ~make_cca:(fun () -> Fast_tcp.make ())
      ~rates:[ Sim.Units.mbps 8.; Sim.Units.mbps 32. ]
      ~rm:0.02 ~duration:10. ()
  in
  Alcotest.(check bool) "fast is delay-convergent" true ok;
  Alcotest.(check bool) "sup d_max finite" true (Float.is_finite d_max_sup);
  Alcotest.(check bool) "delta small" true (delta_sup < 0.01)

(* ------------------------------------------------------------------ *)
(* Rate-delay curves                                                   *)
(* ------------------------------------------------------------------ *)

let test_curves_at_spot () =
  let rm = 0.1 and rate = Sim.Units.mbps 12. in
  let v = Core.Rate_delay.vegas Vegas.default_params in
  let b = v.Core.Rate_delay.band ~rate ~rm in
  (* alpha..beta packets at 1 ms/packet plus 1 ms transmission. *)
  check_float_eps 1e-6 "vegas d_min" (rm +. 0.003) b.Core.Rate_delay.d_min;
  check_float_eps 1e-6 "vegas d_max" (rm +. 0.005) b.Core.Rate_delay.d_max;
  let bp = Core.Rate_delay.bbr_pacing.Core.Rate_delay.band ~rate ~rm in
  check_float_eps 1e-6 "bbr pacing width" ((0.25 *. rm) )
    (Core.Rate_delay.width bp);
  let pv = Core.Rate_delay.pcc_vivace.Core.Rate_delay.band ~rate ~rm in
  check_float_eps 1e-6 "vivace width" (rm /. 20.) (Core.Rate_delay.width pv)

let test_curve_delta_max () =
  let rm = 0.1 in
  check_float "vegas delta_max = 0" 0.
    ((Core.Rate_delay.vegas Vegas.default_params).Core.Rate_delay.delta_max ~rm);
  check_float "bbr pacing delta_max = rm/4" (rm /. 4.)
    (Core.Rate_delay.bbr_pacing.Core.Rate_delay.delta_max ~rm);
  check_float "vivace delta_max = rm/20" (rm /. 20.)
    (Core.Rate_delay.pcc_vivace.Core.Rate_delay.delta_max ~rm)

let prop_curves_shrink_with_rate =
  QCheck.Test.make ~name:"rate-delay bands decrease with link rate" ~count:100
    QCheck.(pair (float_range 1e5 1e7) (float_range 1.5 20.))
    (fun (rate, mult) ->
      let rm = 0.05 in
      List.for_all
        (fun (c : Core.Rate_delay.curve) ->
          let b1 = c.band ~rate ~rm and b2 = c.band ~rate:(rate *. mult) ~rm in
          b2.Core.Rate_delay.d_max <= b1.Core.Rate_delay.d_max +. 1e-12)
        [
          Core.Rate_delay.vegas Vegas.default_params;
          Core.Rate_delay.fast Fast_tcp.default_params;
          Core.Rate_delay.copa Copa.default_params;
          Core.Rate_delay.bbr_cwnd Bbr.default_params;
        ])

let test_alg1_curve_inversion () =
  let p = Alg1.default_params in
  let c = Core.Rate_delay.alg1 p in
  (* At rate mu(d), the band should bracket d. *)
  let d = p.Alg1.rm +. 0.03 in
  let rate = Alg1.target_rate p ~d in
  let b = c.Core.Rate_delay.band ~rate ~rm:p.Alg1.rm in
  Alcotest.(check bool) "band brackets d" true
    (b.Core.Rate_delay.d_min <= d +. 0.01 && b.Core.Rate_delay.d_max >= d -. 0.001)

let test_sweep_lengths () =
  let rates = [ 1e5; 1e6; 1e7 ] in
  let c = Core.Rate_delay.vegas Vegas.default_params in
  Alcotest.(check int) "sweep one point per rate" 3
    (List.length (Core.Rate_delay.sweep c ~rates ~rm:0.05))

let test_convergence_diverging_flagged () =
  (* A pathological CCA that grows its window forever on an unbounded
     queue never settles into a band; the detector must say so. *)
  let make_runaway () =
    let cwnd = ref 6000. in
    {
      Cca.name = "runaway";
      on_ack = (fun (a : Cca.ack_info) -> cwnd := !cwnd +. float_of_int a.acked_bytes);
      on_loss = (fun _ -> ());
      on_send = (fun _ -> ());
      on_timer = (fun _ -> ());
      next_timer = (fun () -> None);
      cwnd = (fun () -> !cwnd);
      pacing_rate = (fun () -> None);
      inspect = (fun () -> []);
    }
  in
  let m =
    Core.Convergence.measure ~make_cca:make_runaway ~rate:(Sim.Units.mbps 12.)
      ~rm:0.02 ~duration:10. ()
  in
  Alcotest.(check bool) "not converged" false m.Core.Convergence.converged

(* ------------------------------------------------------------------ *)
(* Fairness                                                            *)
(* ------------------------------------------------------------------ *)

let test_fairness_report () =
  let rate = Sim.Units.mbps 12. in
  let buffer = Sim.Units.bdp_bytes ~rate ~rtt:0.02 in
  let net =
    Sim.Network.run_config
      (Sim.Network.config ~rate:(Sim.Link.Constant rate) ~buffer ~rm:0.02
         ~duration:20.
         [ Sim.Network.flow (Reno.make ()); Sim.Network.flow (Reno.make ()) ])
  in
  let r = Core.Fairness.of_network net () in
  Alcotest.(check bool) "ratio finite" true (Float.is_finite r.Core.Fairness.ratio);
  Alcotest.(check bool) "s-fair at s=3" true (Core.Fairness.is_s_fair r ~s:3.);
  Alcotest.(check bool) "not s-fair at s=1" false (Core.Fairness.is_s_fair r ~s:1.);
  Alcotest.(check bool) "jain high" true (r.Core.Fairness.jain > 0.8);
  Alcotest.(check bool) "utilization high" true (r.Core.Fairness.utilization > 0.8)

let test_f_efficiency () =
  let f =
    Core.Fairness.f_efficiency ~make_cca:(fun () -> Fast_tcp.make ())
      ~rate:(Sim.Units.mbps 12.) ~rm:0.02 ~duration:10. ()
  in
  Alcotest.(check bool) (Printf.sprintf "fast f=%.2f > 0.8" f) true (f > 0.8);
  let f_silly =
    Core.Fairness.f_efficiency
      ~make_cca:(fun () -> Const_cwnd.make ~cwnd_packets:2. ())
      ~rate:(Sim.Units.mbps 100.) ~rm:0.05 ~duration:10. ()
  in
  Alcotest.(check bool) "const cwnd is not f-efficient on fast links" true
    (f_silly < 0.05)

let test_throughput_definition () =
  let rate = Sim.Units.mbps 12. in
  let net =
    Sim.Network.run_config
      (Sim.Network.config ~rate:(Sim.Link.Constant rate) ~rm:0.02 ~duration:10.
         [ Sim.Network.flow (Fast_tcp.make ()) ])
  in
  let x = Core.Fairness.throughput_definition (Sim.Network.flows net).(0) ~t:10. in
  Alcotest.(check bool) "bytes(0,t)/t near link rate" true (x > 0.8 *. rate);
  check_float "zero at t=0" 0.
    (Core.Fairness.throughput_definition (Sim.Network.flows net).(0) ~t:0.)

let test_ratio_trajectory () =
  let rate = Sim.Units.mbps 12. in
  let buffer = Sim.Units.bdp_bytes ~rate ~rtt:0.02 in
  let net =
    Sim.Network.run_config
      (Sim.Network.config ~rate:(Sim.Link.Constant rate) ~buffer ~rm:0.02
         ~duration:20.
         [ Sim.Network.flow (Reno.make ()); Sim.Network.flow (Reno.make ()) ])
  in
  let traj = Core.Fairness.ratio_trajectory net ~dt:0.5 in
  Alcotest.(check bool) "has samples" true (Sim.Series.length traj > 10);
  Array.iter
    (fun v -> Alcotest.(check bool) "ratio >= 1" true (v >= 1.))
    (Sim.Series.values traj);
  (* Two identical Renos settle under s = 3 at some finite time. *)
  match Core.Fairness.s_fair_from net ~dt:0.5 ~s:3. with
  | Some t -> Alcotest.(check bool) "finite entry time" true (t < 20.)
  | None -> Alcotest.fail "never became 3-fair"

let test_s_fair_from_never () =
  (* One silent flow: the ratio has no samples with both positive, or the
     starved flow keeps it above any s; either way there is no entry time
     for a tiny s. *)
  let rate = Sim.Units.mbps 12. in
  let net =
    Sim.Network.run_config
      (Sim.Network.config ~rate:(Sim.Link.Constant rate) ~rm:0.02 ~duration:5.
         [
           Sim.Network.flow (Fast_tcp.make ());
           Sim.Network.flow (Const_cwnd.make ~cwnd_packets:2. ());
         ])
  in
  match Core.Fairness.s_fair_from net ~dt:0.5 ~s:1.05 with
  | None -> ()
  | Some t -> Alcotest.fail (Printf.sprintf "claimed 1.05-fair from %.1f" t)

(* ------------------------------------------------------------------ *)
(* Pigeonhole                                                          *)
(* ------------------------------------------------------------------ *)

let fake_measurement ~rate ~d_max =
  {
    Core.Convergence.cca_name = "fake";
    rate;
    rm = 0.05;
    duration = 1.;
    converged = true;
    t_converge = 0.1;
    d_min = d_max -. 0.001;
    d_max;
    delta = 0.001;
    throughput = rate;
    efficiency = 1.;
    rtt = Sim.Series.create ();
  }

let test_pigeonhole_finds_close_pair () =
  (* d_max(C) = rm + 1/C: a decreasing curve; geometric probes must find a
     pair within epsilon. *)
  let measure ~rate = fake_measurement ~rate ~d_max:(0.05 +. (1000. /. rate)) in
  match
    Core.Pigeonhole.find_pair ~measure ~lambda0:1e5 ~factor:4. ~epsilon:5e-4 ()
  with
  | Error e -> Alcotest.fail e
  | Ok pair ->
      Alcotest.(check bool) "gap below epsilon" true
        (pair.Core.Pigeonhole.gap < 5e-4);
      Alcotest.(check bool) "rates spaced by factor" true
        (pair.Core.Pigeonhole.c2 >= 4. *. pair.Core.Pigeonhole.c1)

let test_pigeonhole_rejects_nonconvergent () =
  let measure ~rate =
    { (fake_measurement ~rate ~d_max:0.06) with Core.Convergence.converged = false }
  in
  match Core.Pigeonhole.find_pair ~measure ~lambda0:1e5 ~factor:4. ~epsilon:1e-3 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "should fail on non-convergent CCA"

let test_pigeonhole_budget () =
  (* A curve that never repeats within the probe budget: linear spacing of
     d_max values all more than epsilon apart. *)
  let count = ref 0. in
  let measure ~rate =
    count := !count +. 1.;
    fake_measurement ~rate ~d_max:(1.0 -. (0.01 *. !count))
  in
  match
    Core.Pigeonhole.find_pair ~measure ~lambda0:1e5 ~factor:2. ~epsilon:1e-6
      ~max_probes:5 ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "budget should be exhausted"

(* [f ()] raises [Invalid_argument] with a message "<function>: <param>
   must be ...". *)
let check_rejects param f =
  let named msg =
    let key = ": " ^ param ^ " must" in
    let n = String.length key in
    let rec go i =
      i + n <= String.length msg && (String.sub msg i n = key || go (i + 1))
    in
    go 0
  in
  match f () with
  | _ -> Alcotest.failf "bad %s accepted" param
  | exception Invalid_argument msg ->
      Alcotest.(check bool) (Printf.sprintf "%S names %s" msg param) true (named msg)

let test_pigeonhole_validates_args () =
  let measure ~rate = fake_measurement ~rate ~d_max:0.06 in
  let find ?(lambda0 = 1e5) ?(factor = 4.) ?(epsilon = 1e-3) () =
    ignore (Core.Pigeonhole.find_pair ~measure ~lambda0 ~factor ~epsilon ())
  in
  List.iter
    (fun v -> check_rejects "lambda0" (find ~lambda0:v))
    [ nan; infinity; 0.; -1e5 ];
  List.iter (fun v -> check_rejects "factor" (find ~factor:v)) [ nan; infinity; 1.; 0.5 ];
  List.iter
    (fun v -> check_rejects "epsilon" (find ~epsilon:v))
    [ nan; infinity; 0.; -1e-3 ]

(* ------------------------------------------------------------------ *)
(* Emulation (Eq. 5)                                                   *)
(* ------------------------------------------------------------------ *)

let test_d_star_weighted_average () =
  (* Equal rates: plain average minus the constant. *)
  check_float "symmetric" (0.055 -. 0.003)
    (Core.Emulation.d_star_at ~c1:1e6 ~c2:1e6 ~d1:0.05 ~d2:0.06 ~delta_max:0.002
       ~epsilon:0.001);
  (* Heavier flow dominates. *)
  let ds =
    Core.Emulation.d_star_at ~c1:1e6 ~c2:9e6 ~d1:0.05 ~d2:0.06 ~delta_max:0.
      ~epsilon:0.
  in
  check_float_eps 1e-12 "weighted" 0.059 ds

let mk_series pts =
  let s = Sim.Series.create () in
  List.iter (fun (t, v) -> Sim.Series.add s ~time:t v) pts;
  s

let test_emulation_verify_clean () =
  (* Two trajectories within delta+eps of each other: bounds must hold. *)
  let d1 = mk_series [ (0., 0.050); (1., 0.0505); (2., 0.050) ] in
  let d2 = mk_series [ (0., 0.0502); (1., 0.0508); (2., 0.0503) ] in
  let chk =
    Core.Emulation.verify ~c1:1e6 ~c2:4e6 ~d1 ~d2 ~delta_max:0.0008 ~epsilon:0.0002
      ~t0:0. ~t1:2. ~dt:0.1
  in
  Alcotest.(check int) "no violations" 0 chk.Core.Emulation.violations;
  Alcotest.(check bool) "eta nonnegative" true (chk.Core.Emulation.eta_min >= 0.);
  Alcotest.(check bool) "eta below D" true
    (chk.Core.Emulation.eta_max <= 2. *. (0.0008 +. 0.0002))

let test_emulation_verify_catches_violation () =
  (* Trajectories much further apart than delta_max+epsilon claim. *)
  let d1 = mk_series [ (0., 0.050); (2., 0.050) ] in
  let d2 = mk_series [ (0., 0.080); (2., 0.080) ] in
  let chk =
    Core.Emulation.verify ~c1:1e6 ~c2:1e6 ~d1 ~d2 ~delta_max:0.001 ~epsilon:0.001
      ~t0:0. ~t1:2. ~dt:0.5
  in
  Alcotest.(check bool) "violations detected" true (chk.Core.Emulation.violations > 0)

let test_controller_targets_rtt () =
  let ctrl =
    Core.Emulation.make_controller ~target:(fun _ -> 0.08) ~time_shift:0. ()
  in
  match ctrl.Core.Emulation.policy with
  | Sim.Jitter.Controller f ->
      (* Packet sent at 1.0, arrives back at 1.06: eta should be 0.02 so
         the total is 0.08. *)
      check_float "eta tops up to target" 0.02
        (f { Sim.Jitter.flow = 0; arrival = 1.06; sent = 1.0 });
      Alcotest.(check int) "request logged" 1
        (Sim.Series.length ctrl.Core.Emulation.requested)
  | _ -> Alcotest.fail "controller policy expected"

let test_initial_queue_bytes () =
  let b =
    Core.Emulation.initial_queue_bytes ~c1:1e6 ~c2:1e6 ~d1_0:0.06 ~d2_0:0.06
      ~delta_max:0.002 ~epsilon:0.001 ~rm:0.05
  in
  (* d*(0) = 0.06 - 0.003 = 0.057; backlog = (0.057-0.05) * 2e6 = 14000. *)
  Alcotest.(check int) "backlog" 14000 b;
  Alcotest.(check int) "clamped at zero" 0
    (Core.Emulation.initial_queue_bytes ~c1:1e6 ~c2:1e6 ~d1_0:0.05 ~d2_0:0.05
       ~delta_max:0.01 ~epsilon:0.01 ~rm:0.05)

let prop_d_star_below_min =
  QCheck.Test.make
    ~name:"d* sits below min(d1,d2) when they are within delta+eps" ~count:200
    QCheck.(quad (float_range 1e5 1e8) (float_range 1e5 1e8)
              (float_range 0.01 0.2) (float_range 0. 0.001))
    (fun (c1, c2, d1, gap) ->
      let delta_max = 0.0015 and epsilon = 0.0005 in
      let d2 = d1 +. gap in
      (* gap <= delta_max + epsilon by construction (0.001 < 0.002) *)
      let ds = Core.Emulation.d_star_at ~c1 ~c2 ~d1 ~d2 ~delta_max ~epsilon in
      ds <= Float.min d1 d2 +. 1e-12
      && Float.max d1 d2 <= ds +. (2. *. (delta_max +. epsilon)) +. 1e-12)

(* ------------------------------------------------------------------ *)
(* Ambiguity / figure of merit                                         *)
(* ------------------------------------------------------------------ *)

let test_d_star_constant () =
  check_float "delta + eps" 0.003
    (Core.Emulation.d_star_constant ~delta_max:0.002 ~epsilon:0.001)

let test_starvation_score () =
  let r =
    {
      Core.Fairness.throughputs = [| 1.; 5. |];
      ratio = 5.;
      jain = 0.7;
      utilization = 0.9;
    }
  in
  check_float "score = ratio" 5. (Core.Fairness.starvation_score r)

let test_vegas_mu_plus () =
  (* alpha = 6000 B, D = 10 ms, s = 2: mu+ = alpha/D * (1 - 1/2). *)
  check_float_eps 1e-9 "eq. 1 precursor" 300_000.
    (Core.Ambiguity.vegas_mu_plus ~alpha_bytes:6000. ~jitter:0.01 ~s:2.)

let test_blocks () =
  let lo, hi = Core.Ambiguity.blocks ~d:0.055 ~jitter:0.01 in
  Alcotest.(check int) "low block" 4 lo;
  Alcotest.(check int) "high block" 5 hi;
  let lo0, hi0 = Core.Ambiguity.blocks ~d:0.005 ~jitter:0.01 in
  Alcotest.(check int) "clamps at zero" 0 lo0;
  Alcotest.(check int) "same block" 0 hi0

let test_distinguishable () =
  Alcotest.(check bool) "far apart" true
    (Core.Ambiguity.distinguishable ~d1:0.05 ~d2:0.08 ~jitter:0.01);
  Alcotest.(check bool) "within jitter" false
    (Core.Ambiguity.distinguishable ~d1:0.05 ~d2:0.055 ~jitter:0.01)

let test_merit_paper_examples () =
  (* D = 10 ms, s = 2, Rmax = 100 ms -> ~2^10; s = 4 -> ~2^20 (paper 6.3,
     with Rm = 0 as in the paper's O() form). *)
  check_float_eps 1e-6 "s=2" (2. ** 9.)
    (Core.Ambiguity.exponential_range ~rm:0. ~rmax:0.1 ~jitter:0.01 ~s:2.);
  check_float_eps 1e-6 "s=4" (4. ** 9.)
    (Core.Ambiguity.exponential_range ~rm:0. ~rmax:0.1 ~jitter:0.01 ~s:4.);
  check_float_eps 1e-6 "vegas eq.1" 5.
    (Core.Ambiguity.vegas_range ~rm:0. ~rmax:0.1 ~jitter:0.01 ~s:2.)

let test_merit_table_structure () =
  let rows =
    Core.Ambiguity.merit_table ~rm:0. ~rmax:0.1 ~jitters:[ 0.01; 0.02 ]
      ~ss:[ 2.; 4. ]
  in
  Alcotest.(check int) "grid size" 4 (List.length rows);
  List.iter
    (fun (r : Core.Ambiguity.merit_row) ->
      Alcotest.(check bool) "exponential beats vegas" true (r.exponential > r.vegas))
    rows

let prop_exponential_range_monotone_in_s =
  QCheck.Test.make ~name:"exponential range grows with s" ~count:100
    QCheck.(pair (float_range 1.1 3.) (float_range 1.1 3.))
    (fun (s1, s2) ->
      let lo = Float.min s1 s2 and hi = Float.max s1 s2 in
      Core.Ambiguity.exponential_range ~rm:0. ~rmax:0.1 ~jitter:0.01 ~s:hi
      >= Core.Ambiguity.exponential_range ~rm:0. ~rmax:0.1 ~jitter:0.01 ~s:lo -. 1e-9)

(* ------------------------------------------------------------------ *)
(* Theorem machinery helpers                                           *)
(* ------------------------------------------------------------------ *)

let test_by_send_time () =
  let acks = mk_series [ (1.0, 0.1); (1.05, 0.1); (1.1, 0.12) ] in
  let by_send = Core.Theorem1.by_send_time acks in
  Alcotest.(check int) "three samples" 3 (Sim.Series.length by_send);
  let times = Sim.Series.times by_send in
  check_float "send = ack - rtt" 0.9 times.(0);
  check_float_eps 1e-9 "third" 0.98 times.(2)

let test_by_send_time_drops_nonmonotone () =
  (* Second sample's send time goes backwards (big RTT jump). *)
  let acks = mk_series [ (1.0, 0.05); (1.01, 0.2) ] in
  let by_send = Core.Theorem1.by_send_time acks in
  Alcotest.(check int) "dropped" 1 (Sim.Series.length by_send)

let test_target_of_series_extension () =
  let s = mk_series [ (1., 5.); (2., 6.) ] in
  let f = Core.Theorem1.target_of_series s in
  check_float "before start" 5. (f 0.);
  check_float "mid" 5. (f 1.5);
  check_float "after end" 6. (f 99.)

(* ------------------------------------------------------------------ *)
(* Theorems end-to-end (small versions)                                *)
(* ------------------------------------------------------------------ *)

let theorem1_quick_search ?(rm = 0.01) ?(s = 3.) ?(f = 0.8) ?(lambda0 = Sim.Units.mbps 4.)
    ?(epsilon = 0.002) ?(phase2_duration = 4.) ?(single_duration = 10.) () =
  Core.Theorem1.search
    ~make_cca:(fun () -> Fast_tcp.make ())
    ~rm ~s ~f ~lambda0 ~epsilon ~phase2_duration ~single_duration ()

let test_theorem1_validates_args () =
  let search ?rm ?s ?f ?lambda0 ?epsilon ?phase2_duration ?single_duration () () =
    ignore
      (theorem1_quick_search ?rm ?s ?f ?lambda0 ?epsilon ?phase2_duration
         ?single_duration ())
  in
  List.iter (fun v -> check_rejects "rm" (search ~rm:v ())) [ nan; infinity; 0.; -0.01 ];
  List.iter (fun v -> check_rejects "s" (search ~s:v ())) [ nan; infinity; 1.; 0.5 ];
  List.iter (fun v -> check_rejects "f" (search ~f:v ())) [ nan; 0.; -0.8; 1.5 ];
  List.iter
    (fun v -> check_rejects "phase2_duration" (search ~phase2_duration:v ()))
    [ nan; infinity; 0.; -4. ];
  List.iter
    (fun v -> check_rejects "single_duration" (search ~single_duration:v ()))
    [ nan; infinity; 0.; -10. ];
  (* Step 1's own inputs are rejected by the pigeonhole search before any
     probe runs. *)
  check_rejects "lambda0" (search ~lambda0:nan ());
  check_rejects "epsilon" (search ~epsilon:nan ())

let test_theorem1_full () =
  let a0 = Gc.allocated_bytes () in
  let searched = theorem1_quick_search () in
  let first = Result.bind searched (fun sr -> Core.Theorem1.construct sr) in
  let allocated = Gc.allocated_bytes () -. a0 in
  match (searched, first) with
  | Error e, _ | _, Error e -> Alcotest.fail e
  | Ok sr, Ok o ->
      Alcotest.(check bool) "starved" true o.Core.Theorem1.starved;
      Alcotest.(check int) "no runtime clamps" 0 o.Core.Theorem1.runtime_violations;
      Alcotest.(check int) "no analytic violations" 0
        o.Core.Theorem1.analytic.Core.Emulation.violations;
      Alcotest.(check bool) "D > 2 delta_max" true
        (o.Core.Theorem1.big_d > 2. *. o.Core.Theorem1.delta_max);
      Alcotest.(check bool)
        (Printf.sprintf "emulation exact to %.4f ms"
           (Sim.Units.to_ms o.Core.Theorem1.max_emulation_error))
        true
        (o.Core.Theorem1.max_emulation_error < 0.001);
      (* Allocation budget: reading each RTT array once, search and
         construction allocate ~210 MB over the shared run's ~88k RTT
         samples; copying the whole array per sample cost ~40 GB.
         Bytecode boxes differently, so the budget only binds on the
         native backend. *)
      (match Sys.backend_type with
      | Sys.Native ->
          Alcotest.(check bool)
            (Printf.sprintf "%.0f MB allocated <= 2 GB" (allocated /. 1e6))
            true (allocated <= 2e9)
      | Sys.Bytecode | Sys.Other _ -> ());
      (* E7 and E7c construct from one search: a second construction must
         read the same probe series and trajectories, untouched. *)
      (match Core.Theorem1.construct sr with
      | Error e -> Alcotest.fail e
      | Ok o2 ->
          let open Core.Theorem1 in
          List.iter
            (fun (name, get) ->
              Alcotest.(check int64)
                (name ^ " bit-identical on a shared search")
                (Int64.bits_of_float (get o))
                (Int64.bits_of_float (get o2)))
            [
              ("ratio", fun o -> o.ratio);
              ("x1", fun o -> o.x1);
              ("x2", fun o -> o.x2);
              ("max_emulation_error", fun o -> o.max_emulation_error);
              ("big_d", fun o -> o.big_d);
            ];
          Alcotest.(check bool) "analytic equal" true (o.analytic = o2.analytic);
          Alcotest.(check int) "runtime_violations equal" o.runtime_violations
            o2.runtime_violations)

let test_theorem2_full () =
  let o =
    Core.Theorem2.run
      ~make_cca:(fun () -> Vegas.make ())
      ~rate:(Sim.Units.mbps 4.) ~rm:0.02 ~multipliers:[ 10.; 100. ] ~duration:15. ()
  in
  let utils = List.map (fun p -> p.Core.Theorem2.utilization) o.Core.Theorem2.points in
  (match utils with
  | [ u10; u100 ] ->
      Alcotest.(check bool) "10x -> ~0.1" true (u10 < 0.15);
      Alcotest.(check bool) "100x -> ~0.01" true (u100 < 0.02)
  | _ -> Alcotest.fail "two points expected");
  List.iter
    (fun p ->
      Alcotest.(check int) "no settled violations" 0 p.Core.Theorem2.settled_violations)
    o.Core.Theorem2.points

let test_theorem3_full () =
  (* Gentle AIMD constants keep Alg1's oscillation band narrow so each
     D-subtraction step shows up cleanly in the throughputs. *)
  let params =
    { Alg1.default_params with rm = 0.02; rmax = 0.06; d_jitter = 0.01;
      a = Sim.Units.mbps 0.02; b = 0.95 }
  in
  let o =
    Core.Theorem3.run
      ~make_cca:(fun () -> Alg1.make ~params ())
      ~lambda:(Sim.Units.mbps 1.) ~rm:0.02 ~big_d:0.01 ~s:1.6 ~duration:20. ()
  in
  Alcotest.(check bool) "found witness pair" true (o.Core.Theorem3.witness <> None);
  (* Delays must shrink along the iteration. *)
  let delays = List.map (fun s -> s.Core.Theorem3.max_delay) o.Core.Theorem3.steps in
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a >= b -. 1e-9 && decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "delays shrink" true (decreasing delays)

let () =
  Alcotest.run "core"
    [
      ( "convergence",
        [
          Alcotest.test_case "vegas" `Quick test_convergence_vegas;
          Alcotest.test_case "band contains tail" `Quick test_convergence_band_contains_tail;
          Alcotest.test_case "delta definition" `Quick test_convergence_delta_definition;
          Alcotest.test_case "reno sawtooth" `Quick test_convergence_nonconvergent_flagged;
          Alcotest.test_case "runaway not converged" `Quick
            test_convergence_diverging_flagged;
          Alcotest.test_case "is_delay_convergent" `Quick test_is_delay_convergent;
        ] );
      ( "rate_delay",
        [
          Alcotest.test_case "spot values" `Quick test_curves_at_spot;
          Alcotest.test_case "delta_max" `Quick test_curve_delta_max;
          Alcotest.test_case "alg1 inversion" `Quick test_alg1_curve_inversion;
          Alcotest.test_case "sweep lengths" `Quick test_sweep_lengths;
          qt prop_curves_shrink_with_rate;
        ] );
      ( "fairness",
        [
          Alcotest.test_case "report" `Quick test_fairness_report;
          Alcotest.test_case "f-efficiency" `Quick test_f_efficiency;
          Alcotest.test_case "throughput definition" `Quick test_throughput_definition;
          Alcotest.test_case "ratio trajectory" `Quick test_ratio_trajectory;
          Alcotest.test_case "s_fair_from never" `Quick test_s_fair_from_never;
        ] );
      ( "pigeonhole",
        [
          Alcotest.test_case "finds pair" `Quick test_pigeonhole_finds_close_pair;
          Alcotest.test_case "rejects non-convergent" `Quick
            test_pigeonhole_rejects_nonconvergent;
          Alcotest.test_case "budget" `Quick test_pigeonhole_budget;
          Alcotest.test_case "validates args" `Quick test_pigeonhole_validates_args;
        ] );
      ( "emulation",
        [
          Alcotest.test_case "d* weighted average" `Quick test_d_star_weighted_average;
          Alcotest.test_case "verify clean" `Quick test_emulation_verify_clean;
          Alcotest.test_case "verify catches violation" `Quick
            test_emulation_verify_catches_violation;
          Alcotest.test_case "controller" `Quick test_controller_targets_rtt;
          Alcotest.test_case "initial queue" `Quick test_initial_queue_bytes;
          qt prop_d_star_below_min;
        ] );
      ( "ambiguity",
        [
          Alcotest.test_case "d_star constant" `Quick test_d_star_constant;
          Alcotest.test_case "starvation score" `Quick test_starvation_score;
          Alcotest.test_case "vegas mu+" `Quick test_vegas_mu_plus;
          Alcotest.test_case "blocks" `Quick test_blocks;
          Alcotest.test_case "distinguishable" `Quick test_distinguishable;
          Alcotest.test_case "paper examples" `Quick test_merit_paper_examples;
          Alcotest.test_case "table structure" `Quick test_merit_table_structure;
          qt prop_exponential_range_monotone_in_s;
        ] );
      ( "trajectory helpers",
        [
          Alcotest.test_case "by_send_time" `Quick test_by_send_time;
          Alcotest.test_case "drops non-monotone" `Quick test_by_send_time_drops_nonmonotone;
          Alcotest.test_case "target extension" `Quick test_target_of_series_extension;
        ] );
      ( "theorems",
        [
          Alcotest.test_case "theorem 1 end-to-end" `Slow test_theorem1_full;
          Alcotest.test_case "theorem 2 end-to-end" `Slow test_theorem2_full;
          Alcotest.test_case "theorem 3 end-to-end" `Slow test_theorem3_full;
          Alcotest.test_case "theorem 1 validates args" `Quick test_theorem1_validates_args;
        ] );
    ]

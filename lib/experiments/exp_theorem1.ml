(* Steps 1-2 for FAST; E7 and E7c construct their cases from this one
   search. *)
let search ~quick =
  let rm, s, lambda0, phase2_duration, single_duration =
    if quick then (0.01, 3., 4., 4., 10.) else (0.02, 4., 2., 8., 20.)
  in
  Core.Theorem1.search
    ~make_cca:(fun () -> Fast_tcp.make ())
    ~rm ~s ~f:0.8
    ~lambda0:(Sim.Units.mbps lambda0)
    ~epsilon:0.002 ~phase2_duration ~single_duration ()

let outcome ?(quick = false) () =
  Result.bind (search ~quick) (Core.Theorem1.construct ~construction:Case1)

let ledbat_outcome () =
  (* LEDBAT's delay band is dominated by its 25 ms target, so successive
     probes' d_max values differ by little more than packet granularity;
     a 5 ms epsilon finds the pair within a couple of probes instead of
     marching into multi-gigabit rates. *)
  Core.Theorem1.run
    ~make_cca:(fun () -> Ledbat.make ())
    ~rm:0.02 ~s:3. ~f:0.8
    ~lambda0:(Sim.Units.mbps 4.)
    ~epsilon:0.005 ~phase2_duration:8. ~single_duration:20. ()

let ledbat_row () =
  match ledbat_outcome () with
  | Error e ->
      Report.row ~id:"E7b" ~label:"theorem 1 on ledbat" ~paper:"starvation"
        ~measured:("failed: " ^ e) ~ok:false
  | Ok o ->
      let open Core.Theorem1 in
      let worst =
        Array.fold_left
          (fun acc j -> Float.max acc (Sim.Jitter.worst_excess j))
          0.
          (Sim.Network.jitters o.net)
      in
      Report.row ~id:"E7b" ~label:"theorem 1 on ledbat (min-filter CCA)"
        ~paper:"the construction is CCA-agnostic"
        ~measured:
          (Printf.sprintf "C1=%s C2=%s ratio=%.1f (s=%.0f), analytic 0/%d, worst clamp excess %s"
             (Report.mbps o.pair.Core.Pigeonhole.c1)
             (Report.mbps o.pair.Core.Pigeonhole.c2)
             o.ratio o.target_s o.analytic.Core.Emulation.samples
             (Report.msec worst))
          (* LEDBAT's 1-packet AIAD granularity at megabit rates (a single
             packet is 3 ms of delay at C1 = 4 Mbit/s) makes the emulated
             system ride the eta boundary; accept boundary riding within
             one packet's worth of delay, reject real schedule breaks. *)
        ~ok:
          (o.starved
          && o.analytic.Core.Emulation.violations = 0
          && worst < 1500. /. Sim.Units.mbps 4.)

let case2_row result =
  match result with
  | Error e ->
      Report.row ~id:"E7c" ~label:"appendix A case 2 (huge link, pure jitter)"
        ~paper:"the easy case of the case split" ~measured:("failed: " ^ e) ~ok:false
  | Ok o ->
      let open Core.Theorem1 in
      Report.row ~id:"E7c" ~label:"appendix A case 2 (huge link, pure jitter)"
        ~paper:"same starvation with queueing replaced by jitter; shows Theorem 2 too"
        ~measured:
          (Printf.sprintf
             "ratio %.1f (s=%.0f), clamps %d, link utilization %.3f"
             o.ratio o.target_s o.runtime_violations
             (Sim.Network.utilization o.net ()))
        ~ok:
          (o.starved && o.runtime_violations = 0
          (* The 50x link is mostly idle: the Theorem 2 under-utilization. *)
          && Sim.Network.utilization o.net () < 0.05)

let run ?(quick = false) () =
  let searched = search ~quick in
  let construct construction =
    Result.bind searched (Core.Theorem1.construct ~construction)
  in
  let extra =
    case2_row (construct Case2) :: (if quick then [] else [ ledbat_row () ])
  in
  (match construct Case1 with
  | Error e ->
      [
        Report.row ~id:"E7" ~label:"theorem 1 construction" ~paper:"starvation"
          ~measured:("failed: " ^ e) ~ok:false;
      ]
  | Ok o ->
      let open Core.Theorem1 in
      [
        Report.row ~id:"E7/F4" ~label:"step 1: pigeonhole pair"
          ~paper:"C2 >= (s/f) C1, d_max gap < eps"
          ~measured:
            (Printf.sprintf "C1=%s C2=%s gap=%s" (Report.mbps o.pair.Core.Pigeonhole.c1)
               (Report.mbps o.pair.Core.Pigeonhole.c2)
               (Report.msec o.pair.Core.Pigeonhole.gap))
          ~ok:
            (o.pair.Core.Pigeonhole.c2 >= 2. *. o.pair.Core.Pigeonhole.c1
            && o.pair.Core.Pigeonhole.gap < o.epsilon +. 1e-9);
        Report.row ~id:"E7/F5" ~label:"step 2: single-flow convergence"
          ~paper:"both flows converge on their ideal links"
          ~measured:
            (Printf.sprintf "T1=%.1fs T2=%.1fs"
               o.pair.Core.Pigeonhole.m1.Core.Convergence.t_converge
               o.pair.Core.Pigeonhole.m2.Core.Convergence.t_converge)
          ~ok:
            (o.pair.Core.Pigeonhole.m1.Core.Convergence.converged
            && o.pair.Core.Pigeonhole.m2.Core.Convergence.converged);
        Report.row ~id:"E7/F6" ~label:"step 3: eta in [0,D] (analytic, Eq. 5)"
          ~paper:"0 violations"
          ~measured:
            (Printf.sprintf "%d/%d violations, eta in [%s, %s], D=%s"
               o.analytic.Core.Emulation.violations o.analytic.Core.Emulation.samples
               (Report.msec o.analytic.Core.Emulation.eta_min)
               (Report.msec o.analytic.Core.Emulation.eta_max)
               (Report.msec o.big_d))
          ~ok:(o.analytic.Core.Emulation.violations = 0);
        Report.row ~id:"E7" ~label:"step 3: runtime emulation + starvation"
          ~paper:"x2/x1 >= s with a legal jitter trace"
          ~measured:
            (Printf.sprintf
               "x1=%s x2=%s ratio=%.1f (s=%.0f), clamps=%d, emulation error %s"
               (Report.mbps o.x1) (Report.mbps o.x2) o.ratio o.target_s
               o.runtime_violations
               (Report.msec o.max_emulation_error))
          ~ok:
            (o.starved && o.runtime_violations = 0
            && o.max_emulation_error < 0.001);
      ])
  @ extra

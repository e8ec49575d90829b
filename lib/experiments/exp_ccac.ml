let model_rows ~quick =
  let rm = 0.05 and mss = 1500. in
  let link_rate = Sim.Units.mbps 8. in
  let horizon = if quick then 30 else 40 in
  let vegas = Ccac.Model.vegas_fluid ~alpha:3. ~beta:5. () in
  let u_vegas, _ =
    Ccac.Model.max_unfairness ~law:vegas ~mss ~link_rate ~rm ~big_d:rm ~horizon ()
  in
  let util_vegas =
    Ccac.Model.min_utilization ~law:vegas ~mss ~link_rate ~rm ~big_d:rm ~horizon ()
  in
  let bdp = link_rate *. rm in
  let aimd_run big_d =
    fst
      (Ccac.Model.max_unfairness ~law:Ccac.Model.reno_fluid ~mss ~link_rate ~rm
         ~big_d ~buffer:bdp ~horizon ())
  in
  let u_aimd_0 = aimd_run 0. and u_aimd_j = aimd_run rm in
  [
    Report.row ~id:"E12g" ~label:"Appendix C model: vegas vs jitter D=Rm"
      ~paper:"delay-convergent CCAs break in the CCAC model"
      ~measured:
        (Printf.sprintf "max unfairness %.2f, min utilization %.2f" u_vegas util_vegas)
      ~ok:(u_vegas > 1.5 || util_vegas < 0.8);
    Report.row ~id:"E12h" ~label:"Appendix C model: AIMD is delay-blind"
      ~paper:"pure delay jitter cannot move loss-based AIMD (sec. 5.4)"
      ~measured:
        (Printf.sprintf "max unfairness %.2f with D=0, %.2f with D=Rm" u_aimd_0 u_aimd_j)
      ~ok:(Float.abs (u_aimd_0 -. u_aimd_j) < 1e-9);
  ]

let run ?(quick = false) () =
  let bdp = 10. and buffer = 10. in
  (* AIMD, no injected loss: exhaustive over 10 RTTs. *)
  let clean = Ccac.Aimd_check.check ~bdp ~buffer ~horizon:10 () in
  (* Same, longer horizon: the bound must stay modest (no blow-up). *)
  let clean_long =
    Ccac.Aimd_check.check ~bdp ~buffer ~horizon:(if quick then 14 else 16) ()
  in
  (* Injected loss allowed: the adversary can now keep flow 1 down. *)
  let lossy =
    Ccac.Aimd_check.check ~bdp ~buffer ~horizon:(if quick then 10 else 12)
      ~allow_injected_loss:true ()
  in
  let alg1_params =
    (* Additive constant sized so a newcomer reaches its share within the
       warmup half of the horizon. *)
    { Alg1.default_params with rm = 0.05; rmax = 0.1; d_jitter = 0.01; s = 2.;
      a = Sim.Units.mbps 0.5 }
  in
  let horizon = if quick then 24 else 40 in
  let link_rate = Sim.Units.mbps 10. in
  let exp_check =
    Ccac.Alg1_check.check ~params:alg1_params ~link_rate
      ~curve:Ccac.Alg1_check.Exponential ~horizon ()
  in
  let veg_check =
    Ccac.Alg1_check.check ~params:alg1_params ~link_rate
      ~curve:Ccac.Alg1_check.Vegas_like ~horizon ()
  in
  let aiad_check =
    Ccac.Alg1_check.check ~params:alg1_params ~link_rate
      ~curve:Ccac.Alg1_check.Exponential ~dynamics:Ccac.Alg1_check.Aiad ~horizon ()
  in
  [
    Report.row ~id:"E12a" ~label:"AIMD 10 RTTs, adversarial drops (exhaustive)"
      ~paper:"no starvation trace exists (CCAC proof)"
      ~measured:
        (Printf.sprintf "max ratio %.2f (exhaustive=%b)" clean.Ccac.Aimd_check.max_ratio
           clean.Ccac.Aimd_check.exhaustive)
      ~ok:(clean.Ccac.Aimd_check.max_ratio < 25. && clean.Ccac.Aimd_check.exhaustive);
    Report.row ~id:"E12b" ~label:"AIMD longer horizon, still no injected loss"
      ~paper:"unfairness stays bounded"
      ~measured:(Printf.sprintf "max ratio %.2f" clean_long.Ccac.Aimd_check.max_ratio)
      ~ok:(clean_long.Ccac.Aimd_check.max_ratio < 40.);
    Report.row ~id:"E12c" ~label:"AIMD with injected non-congestive loss"
      ~paper:"starvation returns (PCC Allegro analysis)"
      ~measured:(Printf.sprintf "max ratio %.2f" lossy.Ccac.Aimd_check.max_ratio)
      ~ok:(lossy.Ccac.Aimd_check.max_ratio > 2. *. clean.Ccac.Aimd_check.max_ratio);
    Report.row ~id:"E12d" ~label:"alg1 (exponential curve) vs jitter adversary"
      ~paper:"CCAC found no violation"
      ~measured:
        (Printf.sprintf "max ratio %.2f (s=2), min util %.2f"
           exp_check.Ccac.Alg1_check.max_ratio exp_check.Ccac.Alg1_check.min_utilization)
      ~ok:
        (exp_check.Ccac.Alg1_check.max_ratio < 2.6
        && exp_check.Ccac.Alg1_check.min_utilization > 0.5);
    Report.row ~id:"E12e" ~label:"vegas-like curve, same adversary"
      ~paper:"breaks: ratio exceeds the same s"
      ~measured:(Printf.sprintf "max ratio %.2f" veg_check.Ccac.Alg1_check.max_ratio)
      ~ok:(veg_check.Ccac.Alg1_check.max_ratio > exp_check.Ccac.Alg1_check.max_ratio);
    Report.row ~id:"E12f" ~label:"alg1 with AIAD instead of AIMD"
      ~paper:"CCAC steered the design to AIMD (sec. 6.3)"
      ~measured:
        (Printf.sprintf "max ratio %.2f (AIMD: %.2f)"
           aiad_check.Ccac.Alg1_check.max_ratio exp_check.Ccac.Alg1_check.max_ratio)
      ~ok:(aiad_check.Ccac.Alg1_check.max_ratio
           > exp_check.Ccac.Alg1_check.max_ratio +. 0.2);
  ]
  @ model_rows ~quick

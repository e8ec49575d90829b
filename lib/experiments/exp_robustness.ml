type spread = {
  label : string;
  ratios : float list;
  min_ratio : float;
}

let rate = Sim.Units.mbps 120.

let bbr_ratio ~seed ~duration =
  let jitter = Sim.Jitter.Uniform { lo = 0.; hi = 0.002 } in
  let mk s = Bbr.make ~params:{ Bbr.default_params with seed = s } () in
  let net =
    Sim.Network.run_config
      (Sim.Network.config ~rate:(Sim.Link.Constant rate) ~rm:0.04 ~seed ~duration
         [
           Sim.Network.flow ~jitter ~jitter_bound:0.002 (mk seed);
           Sim.Network.flow ~extra_rm:0.04 ~jitter ~jitter_bound:0.002 (mk (seed + 100));
         ])
  in
  let t0 = duration /. 6. in
  let x1 = Sim.Network.throughput net ~flow:0 ~t0 ~t1:duration in
  let x2 = Sim.Network.throughput net ~flow:1 ~t0 ~t1:duration in
  Float.max x1 x2 /. Float.max (Float.min x1 x2) 1.

let copa_ratio ~seed ~duration =
  let net =
    Sim.Network.run_config
      (Sim.Network.config ~rate:(Sim.Link.Constant rate) ~rm:0.059 ~seed ~duration
         [
           Sim.Network.flow ~jitter:(Sim.Jitter.Trace Exp_copa.poison_trace)
             ~jitter_bound:0.001 (Copa.make ());
           Sim.Network.flow ~jitter:(Sim.Jitter.Constant 0.001) ~jitter_bound:0.001
             (Copa.make ());
         ])
  in
  let t0 = duration /. 6. in
  let x1 = Sim.Network.throughput net ~flow:0 ~t0 ~t1:duration in
  let x2 = Sim.Network.throughput net ~flow:1 ~t0 ~t1:duration in
  x2 /. Float.max x1 1.

let scenarios = [ ("bbr Rm 40/80", bbr_ratio); ("copa poisoned", copa_ratio) ]

let params ~quick =
  ((if quick then [ 1; 2; 3 ] else [ 1; 2; 3; 4; 5 ]),
   if quick then 20. else 60.)

let spread_of label ratios =
  {
    label;
    ratios;
    min_ratio = List.fold_left Float.min infinity ratios;
  }

let rows_of_spreads spreads =
  List.map
    (fun s ->
      let shown =
        String.concat ", " (List.map (Printf.sprintf "%.1f") s.ratios)
      in
      let threshold = if s.label = "bbr Rm 40/80" then 5. else 3. in
      Report.row ~id:"E16"
        ~label:(Printf.sprintf "seed robustness: %s" s.label)
        ~paper:"the starvation shape must hold for every seed"
        ~measured:(Printf.sprintf "ratios {%s}" shown)
        ~ok:(s.min_ratio > threshold))
    spreads

let plan ~quick =
  let seeds, duration = params ~quick in
  let jobs =
    List.concat_map
      (fun (label, f) ->
        List.map
          (fun seed ->
            Runner.Job.create
              ~key:(Printf.sprintf "robustness/%s/seed=%d/dur=%g" label seed duration)
              (fun () -> f ~seed ~duration))
          seeds)
      scenarios
  in
  let merge payloads =
    let ratios = List.map (fun b -> (Runner.Job.decode b : float)) payloads in
    let per = List.length seeds in
    let spreads =
      List.mapi
        (fun i (label, _) ->
          spread_of label
            (List.filteri (fun j _ -> j / per = i) ratios))
        scenarios
    in
    rows_of_spreads spreads
  in
  (jobs, merge)

type measurement = {
  cca_name : string;
  rate : float;
  rm : float;
  duration : float;
  converged : bool;
  t_converge : float;
  d_min : float;
  d_max : float;
  delta : float;
  throughput : float;
  efficiency : float;
  rtt : Sim.Series.t;
}

(* The band is the trailing [tail_frac] of the run, padded by
   [band_pad_frac] of its width. *)
let tail_frac = 0.4
let band_pad_frac = 0.02

let measure ~make_cca ~rate ~rm ?duration ?(seed = 42) () =
  let cca = make_cca () in
  let duration =
    match duration with Some d -> d | None -> Float.max 30. (400. *. rm)
  in
  let cfg =
    Sim.Network.config ~rate:(Sim.Link.Constant rate) ~rm ~seed ~duration
      [ Sim.Network.flow cca ]
  in
  let net = Sim.Network.run_config cfg in
  let flow = (Sim.Network.flows net).(0) in
  let rtt = Sim.Flow.rtt_series flow in
  let tail0 = (1. -. tail_frac) *. duration in
  let band = Sim.Series.min_max_in rtt ~t0:tail0 ~t1:duration in
  match band with
  | None ->
      {
        cca_name = cca.Cca.name;
        rate;
        rm;
        duration;
        converged = false;
        t_converge = nan;
        d_min = nan;
        d_max = nan;
        delta = nan;
        throughput = 0.;
        efficiency = 0.;
        rtt;
      }
  | Some (lo, hi) ->
      let pad = Float.max (band_pad_frac *. (hi -. lo)) 1e-5 in
      let lo' = lo -. pad and hi' = hi +. pad in
      (* Earliest time after which every sample stays inside the padded
         band: scan from the end for the last out-of-band sample. *)
      let times = Sim.Series.times rtt and values = Sim.Series.values rtt in
      let n = Array.length times in
      let t_converge = ref 0. in
      (try
         for i = n - 1 downto 0 do
           if values.(i) < lo' || values.(i) > hi' then begin
             t_converge := times.(i);
             raise Exit
           end
         done
       with Exit -> ());
      let throughput = Sim.Flow.throughput flow ~t0:tail0 ~t1:duration in
      (* A band measured over a monotone drift looks "entered" exactly at
         the tail boundary; require the band itself to be stable across
         the two halves of the tail window. *)
      let stable =
        let mid = (tail0 +. duration) /. 2. in
        match
          ( Sim.Series.min_max_in rtt ~t0:tail0 ~t1:mid,
            Sim.Series.min_max_in rtt ~t0:mid ~t1:duration )
        with
        | Some (lo1, hi1), Some (lo2, hi2) ->
            let drift = Float.max (Float.abs (hi2 -. hi1)) (Float.abs (lo2 -. lo1)) in
            drift <= Float.max (0.5 *. (hi -. lo)) (Float.max pad 1e-4)
        | _ -> false
      in
      {
        cca_name = cca.Cca.name;
        rate;
        rm;
        duration;
        converged = !t_converge < tail0 && stable;
        t_converge = !t_converge;
        d_min = lo;
        d_max = hi;
        delta = hi -. lo;
        throughput;
        efficiency = throughput /. rate;
        rtt;
      }

let is_delay_convergent ~make_cca ~rates ~rm ?duration ?seed () =
  let ms =
    List.map (fun rate -> measure ~make_cca ~rate ~rm ?duration ?seed ()) rates
  in
  let all = List.for_all (fun m -> m.converged) ms in
  let sup f = List.fold_left (fun acc m -> Float.max acc (f m)) 0. ms in
  (all, sup (fun m -> m.d_max), sup (fun m -> m.delta))

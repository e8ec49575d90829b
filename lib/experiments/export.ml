let cells = List.map (Printf.sprintf "%.9g")

let write_cells ~path ~cols rows =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (String.concat "," cols);
      output_char oc '\n';
      List.iter
        (fun row ->
          output_string oc (String.concat "," row);
          output_char oc '\n')
        rows)

let write_csv ~path ~cols rows =
  write_cells ~path ~cols (List.map cells rows)

let series_to_rows ?(stride = 1) s =
  let times = Sim.Series.times s and values = Sim.Series.values s in
  let rows = ref [] in
  Array.iteri
    (fun i t -> if i mod stride = 0 then rows := [ t; values.(i) ] :: !rows)
    times;
  List.rev !rows

let figures ~dir ~quick =
  Runner.Cache.mkdir_p dir;
  let written = ref [] in
  let emit_cells name cols rows =
    let path = Filename.concat dir (name ^ ".csv") in
    write_cells ~path ~cols rows;
    written := path :: !written
  in
  let emit name cols rows = emit_cells name cols (List.map cells rows) in
  (* Figure 1: RTT trajectories. *)
  List.iter
    (fun (name, s) ->
      let stride = max 1 (Sim.Series.length s / 2000) in
      emit (Printf.sprintf "fig1_%s" name) [ "t"; "rtt_s" ]
        (series_to_rows ~stride s))
    (Exp_fig1.series ~quick ());
  (* Figure 3: analytic rate-delay bands. *)
  let rates =
    List.map Sim.Units.mbps
      [ 0.1; 0.2; 0.5; 1.; 2.; 5.; 10.; 20.; 50.; 100. ]
  in
  List.iter
    (fun (name, pts) ->
      emit
        (Printf.sprintf "fig3_%s" name)
        [ "rate_mbps"; "d_min_s"; "d_max_s" ]
        (List.map
           (fun (r, (b : Core.Rate_delay.band)) ->
             [ Sim.Units.to_mbps r; b.d_min; b.d_max ])
           pts))
    (Exp_fig3.analytic_series ~rm:0.1 ~rates);
  (* Figure 7: cwnd traces. *)
  List.iter
    (fun (r : Exp_fig7.result) ->
      List.iter
        (fun (tag, s) ->
          let stride = max 1 (Sim.Series.length s / 2000) in
          emit
            (Printf.sprintf "fig7_%s_%s" r.cca_name tag)
            [ "t"; "cwnd_bytes" ]
            (series_to_rows ~stride s))
        [ ("delack", r.cwnd_delack); ("normal", r.cwnd_normal) ])
    (Exp_fig7.series ~quick ());
  (* Figures 4-6 from Theorem 1. *)
  let theorem1 =
    match Exp_theorem1.outcome ~quick () with
    | Error e -> Error ("Figures 4-6: the Theorem 1 construction failed: " ^ e)
    | Ok o ->
        emit "fig4_probes" [ "rate_mbps"; "d_max_s" ]
          (List.map
             (fun (m : Core.Convergence.measurement) ->
               [ Sim.Units.to_mbps m.rate; m.d_max ])
             o.Core.Theorem1.pair.Core.Pigeonhole.probes);
        emit "fig5_c1_rtt" [ "t"; "rtt_s" ]
          (series_to_rows ~stride:5
             o.Core.Theorem1.pair.Core.Pigeonhole.m1.Core.Convergence.rtt);
        emit "fig5_c2_rtt" [ "t"; "rtt_s" ]
          (series_to_rows ~stride:5
             o.Core.Theorem1.pair.Core.Pigeonhole.m2.Core.Convergence.rtt);
        emit "fig6_d_star" [ "t"; "d_star_s" ]
          (series_to_rows o.Core.Theorem1.d_star);
        Ok ()
  in
  (* E14 phase diagram. *)
  emit "e14_phase" [ "jitter_s"; "jitter_over_delta"; "ratio" ]
    (List.map
       (fun (p : Exp_threshold.point) -> [ p.jitter; p.jitter_over_delta; p.ratio ])
       (Exp_threshold.sweep ~quick ()));
  (* E17 cross-CCA matrix, one row per CCA. *)
  emit_cells "e17_matrix"
    [ "cca"; "util"; "p95_rtt_s"; "jain"; "random_jitter_ratio";
      "adversarial_ratio" ]
    (List.map
       (fun (e : Exp_matrix.entry) ->
         e.cca_name
         :: cells
              [ e.solo_utilization; e.solo_p95_rtt; e.pair_jain;
                e.jitter_ratio; e.adv_ratio ])
       (Exp_matrix.measure ~quick ()));
  (* E10 figure-of-merit grid. *)
  emit "e10_merit" [ "jitter_s"; "s"; "vegas"; "exponential" ]
    (List.map
       (fun (r : Core.Ambiguity.merit_row) -> [ r.jitter; r.s; r.vegas; r.exponential ])
       (Exp_alg1.merit_rows ()));
  Result.map (fun () -> List.rev !written) theorem1

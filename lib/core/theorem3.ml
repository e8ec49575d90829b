type step = {
  index : int;
  throughput : float;
  max_delay : float;
}

type outcome = {
  steps : step list;
  witness : (int * int) option;
  ratio : float;
  target_s : float;
}

(* Trace-peeling iterations before the search gives up. *)
let max_steps = 12

let run ~make_cca ~lambda ~rm ~big_d ~s ?duration ?(seed = 42) () =
  let base = Convergence.measure ~make_cca ~rate:lambda ~rm ?duration ~seed () in
  let duration = base.Convergence.duration in
  (* d_1: queueing component of the recorded trajectory (RTT minus floor). *)
  let by_send = Theorem1.by_send_time base.Convergence.rtt in
  let d1 = Sim.Series.map (fun rtt -> Float.max 0. (rtt -. rm)) by_send in
  let fast_rate = lambda *. 1000. in
  (* Impose trace d_n with a controller on a link fast enough to keep its
     own queue negligible. *)
  let run_trace d_n =
    let q_target = Theorem1.target_of_series d_n in
    let target tau = rm +. q_target tau in
    let ctrl = Emulation.make_controller ~target ~time_shift:0. () in
    let cfg =
      Sim.Network.config
        ~rate:(Sim.Link.Constant fast_rate)
        ~rm ~seed ~duration
        [
          (* The strong model has no jitter bound; the controller plays the
             role of the rate-varying adversary. *)
          Sim.Network.flow ~jitter:ctrl.Emulation.policy ~jitter_bound:infinity
            (make_cca ());
        ]
    in
    let net = Sim.Network.run_config cfg in
    (* Tail half only: the additive climb toward the trace's equilibrium
       rate is a transient the theorem's long-run throughputs exclude. *)
    Sim.Network.throughput net ~flow:0 ~t0:(duration /. 2.) ~t1:duration
  in
  let max_of series =
    Array.fold_left Float.max 0. (Sim.Series.values series)
  in
  let rec iterate n d_n acc =
    let x_n = run_trace d_n in
    let step = { index = n; throughput = x_n; max_delay = max_of d_n } in
    let acc = step :: acc in
    if n >= max_steps || step.max_delay <= 0. then List.rev acc
    else begin
      let d_next = Sim.Series.map (fun d -> Float.max 0. (d -. big_d)) d_n in
      iterate (n + 1) d_next acc
    end
  in
  let steps = iterate 1 d1 [] in
  let rec best_pair = function
    | a :: (b :: _ as rest) ->
        let r = if a.throughput <= 0. then infinity else b.throughput /. a.throughput in
        let w, best = best_pair rest in
        if r >= best then (Some (a.index, b.index), r) else (w, best)
    | _ -> (None, 0.)
  in
  let witness, ratio = best_pair steps in
  let witness = if ratio >= s then witness else None in
  { steps; witness; ratio; target_s = s }

type outcome = {
  pair : Pigeonhole.pair;
  delta_max : float;
  epsilon : float;
  big_d : float;
  analytic : Emulation.check;
  runtime_violations : int;
  settled_violations : int;
  max_emulation_error : float;
  x1 : float;
  x2 : float;
  ratio : float;
  target_s : float;
  starved : bool;
  t_start : float;
  d_star : Sim.Series.t;
  net : Sim.Network.t;
}

(* RTT trajectory re-indexed by packet send time (ack series carry ack
   times).  FIFO delivery keeps send times non-decreasing across acks of
   one flow; coalesced samples at equal times are dropped. *)
let by_send_time (rtt : Sim.Series.t) =
  let out = Sim.Series.create ~name:"rtt_by_send" () in
  let last = ref neg_infinity in
  Array.iter2
    (fun ta r ->
      let ts = ta -. r in
      if ts > !last then begin
        Sim.Series.add out ~time:ts r;
        last := ts
      end)
    (Sim.Series.times rtt) (Sim.Series.values rtt);
  out

let target_of_series s =
  let first = match Sim.Series.first s with Some (_, v) -> v | None -> nan in
  fun tau -> match Sim.Series.value_at s tau with Some v -> v | None -> first

type construction = Case1 | Case2

type search = {
  make_cca : unit -> Cca.t;
  rm : float;
  s : float;
  seed : int;
  phase2_duration : float;
  pair : Pigeonhole.pair;
  delta_max : float;
  epsilon : float;
  big_d : float;
  t1 : float;
  t2 : float;
  t_start : float;
  d1 : Sim.Series.t;
  d2 : Sim.Series.t;
  horizon : float;
  d1_traj : Sim.Series.t;
  d2_traj : Sim.Series.t;
}

let search ~make_cca ~rm ~s ~f ~lambda0 ?(epsilon = 5e-4) ?(phase2_duration = 30.)
    ?single_duration ?(seed = 42) () =
  let require name ok what =
    if not ok then
      invalid_arg (Printf.sprintf "Theorem1.search: %s must be %s" name what)
  in
  let positive x = Float.is_finite x && x > 0. in
  require "rm" (positive rm) "finite and positive";
  require "s" (Float.is_finite s && s > 1.) "finite and greater than 1";
  require "f" (f > 0. && f <= 1.) "in (0, 1]";
  require "phase2_duration" (positive phase2_duration) "finite and positive";
  let single_duration =
    match single_duration with
    | Some d ->
        require "single_duration" (positive d) "finite and positive";
        d
    | None -> Float.max (Float.max 30. (400. *. rm)) (2.5 *. phase2_duration)
  in
  let measure ~rate =
    Convergence.measure ~make_cca ~rate ~rm ~duration:single_duration ~seed ()
  in
  let factor = s /. f in
  match Pigeonhole.find_pair ~measure ~lambda0 ~factor ~epsilon () with
  | Error e -> Error e
  | Ok pair ->
      let m1 = pair.Pigeonhole.m1 and m2 = pair.Pigeonhole.m2 in
      let delta_max =
        List.fold_left
          (fun acc m -> Float.max acc m.Convergence.delta)
          0. pair.Pigeonhole.probes
      in
      let epsilon_eff = Float.max pair.Pigeonhole.gap epsilon in
      let big_d = 2. *. (delta_max +. epsilon_eff) in
      let t1 = Float.max m1.Convergence.t_converge (4. *. rm) in
      let t2 = Float.max m2.Convergence.t_converge (4. *. rm) in
      let t_start = Float.max t1 t2 in
      (* Trajectories by send time, shifted so both start at their own T_i. *)
      let d1 = by_send_time m1.Convergence.rtt in
      let d2 = by_send_time m2.Convergence.rtt in
      let horizon = Float.min phase2_duration (single_duration -. t_start) in
      (* Step-sampled on the grid tau = k Rm/4 in [0, horizon], where flow i
         sees d_i(T_i + tau): the analytic Eq. 5 bound check's input. *)
      let resampled series t_from =
        let out = Sim.Series.create () in
        let tgt = target_of_series series in
        let dtg = rm /. 4. in
        let k = ref 0 in
        while float_of_int !k *. dtg <= horizon do
          let tau = float_of_int !k *. dtg in
          Sim.Series.add out ~time:tau (tgt (t_from +. tau));
          incr k
        done;
        out
      in
      Ok
        {
          make_cca;
          rm;
          s;
          seed;
          phase2_duration;
          pair;
          delta_max;
          epsilon = epsilon_eff;
          big_d;
          t1;
          t2;
          t_start;
          d1;
          d2;
          horizon;
          d1_traj = resampled d1 t1;
          d2_traj = resampled d2 t2;
        }

let construct ?(construction = Case1) sr =
  let { make_cca; rm; s; seed; phase2_duration; pair; delta_max;
        epsilon = epsilon_eff; big_d; t1; t2; t_start; d1; d2; horizon;
        d1_traj; d2_traj } =
    sr
  in
  let m1 = pair.Pigeonhole.m1 and m2 = pair.Pigeonhole.m2 in
  let c1 = pair.Pigeonhole.c1 and c2 = pair.Pigeonhole.c2 in
  (* Analytic Eq. 5 bound check over the overlapping converged window,
     in shifted coordinates tau in [0, horizon]. *)
  let shift1 = t1 -. t_start and shift2 = t2 -. t_start in
  let analytic =
    match construction with
    | Case1 ->
        Emulation.verify ~c1 ~c2 ~d1:d1_traj ~d2:d2_traj ~delta_max
          ~epsilon:epsilon_eff ~t0:0. ~t1:horizon ~dt:(rm /. 4.)
    | Case2 ->
        (* The queue is ~empty, so d* = Rm and the whole trajectory
           must fit in the jitter budget: 0 <= d_i - Rm <= D. *)
        let star = Sim.Series.create ~name:"d_star" () in
        Sim.Series.add star ~time:0. rm;
        Sim.Series.add star ~time:horizon rm;
        let samples = ref 0 and violations = ref 0 in
        let eta_min = ref infinity and eta_max = ref neg_infinity in
        List.iter
          (fun traj ->
            Array.iter
              (fun v ->
                let eta = v -. rm in
                incr samples;
                if eta < !eta_min then eta_min := eta;
                if eta > !eta_max then eta_max := eta;
                if eta < -1e-9 || eta > big_d +. 1e-9 then incr violations)
              (Sim.Series.values traj))
          [ d1_traj; d2_traj ];
        {
          Emulation.samples = !samples;
          violations = !violations;
          eta_min = !eta_min;
          eta_max = !eta_max;
          d_star = star;
        }
  in
  let case2_ok =
    Float.min m1.Convergence.d_min m2.Convergence.d_min
    <= rm +. delta_max +. epsilon_eff +. 1e-9
  in
  if construction = Case2 && not case2_ok then
    Error "case-2 condition (min d_min <= Rm + delta_max + eps) does not hold"
  else begin
    (* Re-warm fresh CCA instances to their converged states by replaying
       the (deterministic) single-flow runs up to T_i. *)
    let warm rate t_i =
      let cca = make_cca () in
      let cfg =
        Sim.Network.config ~rate:(Sim.Link.Constant rate) ~rm ~seed
          ~duration:t_i
          [ Sim.Network.flow cca ]
      in
      ignore (Sim.Network.run_config cfg);
      cca
    in
    let cca1 = warm c1 t1 and cca2 = warm c2 t2 in
    (* Shared-link scenario. *)
    let ctrl1 =
      Emulation.make_controller ~target:(target_of_series d1) ~time_shift:shift1 ()
    in
    let ctrl2 =
      Emulation.make_controller ~target:(target_of_series d2) ~time_shift:shift2 ()
    in
    let d1_0 = target_of_series d1 t1 and d2_0 = target_of_series d2 t2 in
    (* Each flow opens its converged window paced at its own link rate, so
       the joint arrival rate equals the shared service rate and the
       phantom backlog below realizes d*(0) exactly (Appendix A's initial
       conditions). *)
    let shared_rate, phantom =
      match construction with
      | Case1 ->
          ( c1 +. c2,
            Emulation.initial_queue_bytes ~c1 ~c2 ~d1_0 ~d2_0 ~delta_max
              ~epsilon:epsilon_eff ~rm )
      | Case2 -> (50. *. (c1 +. c2), 0)
    in
    let cfg =
      Sim.Network.config
        ~rate:(Sim.Link.Constant shared_rate)
        ~rm ~seed ~t0:t_start ~duration:phase2_duration
        ~initial_queue_bytes:phantom
        [
          Sim.Network.flow ~start_time:t_start ~jitter:ctrl1.Emulation.policy
            ~jitter_bound:big_d ~initial_pacing:c1 cca1;
          Sim.Network.flow ~start_time:t_start ~jitter:ctrl2.Emulation.policy
            ~jitter_bound:big_d ~initial_pacing:c2 cca2;
        ]
    in
    let net = Sim.Network.run_config cfg in
    let jitters = Sim.Network.jitters net in
    let runtime_violations =
      Sim.Jitter.violations jitters.(0) + Sim.Jitter.violations jitters.(1)
    in
    (* Violations after the settle window, from the controllers' logs. *)
    let settle = t_start +. (10. *. (rm +. delta_max)) in
    let settled_violations =
      List.fold_left
        (fun acc ctrl ->
          Array.fold_left
            (fun acc2 (t, eta) ->
              if t >= settle && (eta < -1e-9 || eta > big_d +. 1e-9) then acc2 + 1
              else acc2)
            acc
            (Array.map2
               (fun a b -> (a, b))
               (Sim.Series.times ctrl.Emulation.requested)
               (Sim.Series.values ctrl.Emulation.requested)))
        0 [ ctrl1; ctrl2 ]
    in
    (* Direct emulation check: each flow's observed RTT, indexed by send
       time, must equal the recorded trajectory it was assigned. *)
    let max_emulation_error =
      let flows_arr = Sim.Network.flows net in
      let err flow_idx recorded shift =
        let target = target_of_series recorded in
        let observed = by_send_time (Sim.Flow.rtt_series flows_arr.(flow_idx)) in
        let rtts = Sim.Series.values observed in
        Array.fold_left Float.max 0.
          (Array.mapi
             (fun i ts ->
               if ts >= settle then Float.abs (rtts.(i) -. target (ts +. shift))
               else 0.)
             (Sim.Series.times observed))
      in
      Float.max (err 0 d1 shift1) (err 1 d2 shift2)
    in
    let t_end = t_start +. phase2_duration in
    let t_meas = t_start +. (0.25 *. phase2_duration) in
    let x1 = Sim.Network.throughput net ~flow:0 ~t0:t_meas ~t1:t_end in
    let x2 = Sim.Network.throughput net ~flow:1 ~t0:t_meas ~t1:t_end in
    let ratio = if x1 <= 0. then infinity else x2 /. x1 in
    Ok
      {
        pair;
        delta_max;
        epsilon = epsilon_eff;
        big_d;
        analytic;
        runtime_violations;
        settled_violations;
        max_emulation_error;
        x1;
        x2;
        ratio;
        target_s = s;
        starved = ratio >= s;
        t_start;
        d_star = analytic.Emulation.d_star;
        net;
      }
  end

let run ~make_cca ~rm ~s ~f ~lambda0 ?epsilon ?phase2_duration ?single_duration ?seed
    ?construction () =
  Result.bind
    (search ~make_cca ~rm ~s ~f ~lambda0 ?epsilon ?phase2_duration ?single_duration
       ?seed ())
    (construct ?construction)

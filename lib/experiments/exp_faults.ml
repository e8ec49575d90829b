type outcome = {
  cca : string;
  scenario : string;
  fault_window : float * float;
  pre_rate : float;
  post_rate : float;
  recovery : float option;
  violations : int;
  stall_probes : int;
  degraded : int;
}

let rate = Sim.Units.mbps 12.
let rm = 0.04
let buffer = 64 * 1500

(* Each scenario is a fault plan plus the window the fault occupies,
   both scaled to the run duration. *)
let scenarios ~duration =
  let f0 = 0.4 *. duration in
  [
    ( "blackout",
      (f0, f0 +. (0.15 *. duration)),
      [ Sim.Fault.Link_blackout { t0 = f0; t1 = f0 +. (0.15 *. duration) } ] );
    ( "rate-step",
      (f0, 0.7 *. duration),
      [
        Sim.Fault.Rate_step { at = f0; rate = rate /. 4. };
        Sim.Fault.Rate_step { at = 0.7 *. duration; rate };
      ] );
    ( "bursty-loss",
      (f0, 0.7 *. duration),
      [
        Sim.Fault.Bursty_loss
          {
            flow = 0;
            t0 = f0;
            t1 = 0.7 *. duration;
            p_enter = 0.05;
            p_exit = 0.25;
            loss_good = 0.;
            loss_bad = 0.5;
          };
      ] );
    ( "ack-blackhole",
      (f0, f0 +. (0.1 *. duration)),
      [ Sim.Fault.Ack_blackhole { flow = 0; t0 = f0; t1 = f0 +. (0.1 *. duration) } ] );
    ( "buffer-shrink",
      (f0, 0.7 *. duration),
      [
        Sim.Fault.Buffer_resize { at = f0; buffer = Some (4 * 1500) };
        Sim.Fault.Buffer_resize { at = 0.7 *. duration; buffer = Some buffer };
      ] );
  ]

let ccas ~quick =
  let base = [ ("reno", fun () -> Reno.make ()); ("bbr", fun () -> Bbr.make ()) ] in
  if quick then base else base @ [ ("cubic", fun () -> Cubic.make ()) ]

(* First delivery after the fault clears, as a delay from [fault_end]. *)
let recovery_time flow ~fault_end =
  let s = Sim.Flow.delivered_series flow in
  let times = Sim.Series.times s and values = Sim.Series.values s in
  let base =
    match Sim.Series.value_at s fault_end with Some v -> v | None -> 0.
  in
  let n = Array.length times in
  let rec find i =
    if i >= n then None
    else if times.(i) > fault_end && values.(i) > base +. 0.5 then
      Some (times.(i) -. fault_end)
    else find (i + 1)
  in
  find 0

let run_one ~duration ~cca_name ~mk ~scenario ~window ~events =
  let f0, f1 = window in
  let net =
    Sim.Network.run_config
      (Sim.Network.config ~rate:(Sim.Link.Constant rate) ~buffer ~rm ~seed:7
         ~faults:(Sim.Fault.plan events) ~monitor_period:0.05 ~duration
         [ Sim.Network.flow (mk ()) ])
  in
  let flow = (Sim.Network.flows net).(0) in
  let warmup = 0.1 *. duration in
  let grace = 0.05 *. duration in
  {
    cca = cca_name;
    scenario;
    fault_window = window;
    pre_rate = Sim.Flow.throughput flow ~t0:warmup ~t1:f0;
    post_rate = Sim.Flow.throughput flow ~t0:(f1 +. grace) ~t1:duration;
    recovery = recovery_time flow ~fault_end:f1;
    violations =
      (match Sim.Network.invariant net with
      | Some inv -> Sim.Invariant.count inv
      | None -> 0);
    stall_probes = Sim.Flow.stall_probes flow;
    degraded = Sim.Flow.degraded_count flow;
  }

let duration_of ~quick = if quick then 10. else 30.

let rows_of_outcomes outcomes =
  List.map
    (fun o ->
      let ratio = o.post_rate /. Float.max o.pre_rate 1. in
      let recovered = o.recovery <> None in
      Report.row
        ~id:"E18"
        ~label:(Printf.sprintf "%s / %s" o.cca o.scenario)
        ~paper:"recovers, 0 violations"
        ~measured:
          (Printf.sprintf "rec %s, post/pre %.2f, viol %d%s"
             (match o.recovery with
             | Some r -> Printf.sprintf "%.2f s" r
             | None -> "never")
             ratio o.violations
             (if o.stall_probes > 0 then
                Printf.sprintf ", probes %d" o.stall_probes
              else ""))
        ~ok:(o.violations = 0 && recovered && ratio > 0.15))
    outcomes

let plan ~quick =
  let duration = duration_of ~quick in
  let jobs =
    List.concat_map
      (fun (cca_name, mk) ->
        List.map
          (fun (scenario, window, events) ->
            Runner.Job.create
              ~key:(Printf.sprintf "faults/%s/%s/dur=%g" cca_name scenario duration)
              (fun () -> run_one ~duration ~cca_name ~mk ~scenario ~window ~events))
          (scenarios ~duration))
      (ccas ~quick)
  in
  let merge payloads =
    rows_of_outcomes
      (List.map (fun b -> (Runner.Job.decode b : outcome)) payloads)
  in
  (jobs, merge)

type spec = {
  label : string;
  lambda : float;
  mean_size : float;
  deterministic_size : bool;
  link_rate : float;
  horizon : float;
  warmup : float;
}

(* rho = 0.7 at mu = 100 packets/s: far enough from saturation that the
   variance inflation is moderate, loaded enough that the queueing term
   dominates pure service time (a do-nothing queue would fail loudly).
   Mean size 10^4 bytes keeps the integer-byte discretization of
   exponential sizes below 10^-4 relative. *)
let mm1_default =
  {
    label = "mm1-rho0.7";
    lambda = 70.;
    mean_size = 10_000.;
    deterministic_size = false;
    link_rate = 1e6;
    horizon = 300.;
    warmup = 20.;
  }

let md1_default =
  { mm1_default with label = "md1-rho0.7"; deterministic_size = true }

type measured = {
  completed : int;  (* packets fully served after warmup *)
  mean_sojourn : float;  (* seconds in system (queue + service) *)
  sojourn_stderr : float;  (* i.i.d. stderr of the mean, pre-inflation *)
  mean_occupancy : float;  (* time-average packets in system post-warmup *)
  utilization : float;  (* measured busy fraction of the link *)
}

let run ~rng spec =
  let eq = Sim.Event_queue.create () in
  let link =
    Sim.Link.create ~eq ~rate:(Sim.Link.Constant spec.link_rate)
      ~record_queue:false ()
  in
  let soj = Sim.Stats.Online.create () in
  (* Time-average of the in-system packet count over [warmup, horizon],
     integrated at every arrival/departure transition. *)
  let n_in_system = ref 0 in
  let occ_acc = ref 0. in
  let last_t = ref 0. in
  let integrate_to now =
    let from = Float.max !last_t spec.warmup in
    if now > from then
      occ_acc := !occ_acc +. (float_of_int !n_in_system *. (now -. from));
    last_t := now
  in
  let delivered_at_warmup = ref 0 in
  Sim.Link.set_on_dequeue link (fun pkt ->
      let now = Sim.Event_queue.now eq in
      integrate_to now;
      decr n_in_system;
      if pkt.Sim.Packet.sent_at >= spec.warmup then
        Sim.Stats.Online.add soj (now -. pkt.Sim.Packet.sent_at));
  let sizes =
    if spec.deterministic_size then
      Sim.Source.Fixed (int_of_float spec.mean_size)
    else Sim.Source.Exponential { mean = spec.mean_size }
  in
  let _source =
    Sim.Source.create ~eq ~rng
      ~arrivals:(Sim.Source.Poisson { rate = spec.lambda })
      ~sizes ~until:spec.horizon
      ~send:(fun pkt ->
        integrate_to (Sim.Event_queue.now eq);
        incr n_in_system;
        ignore (Sim.Link.enqueue link pkt))
      ()
  in
  Sim.Event_queue.schedule eq ~at:spec.warmup (fun () ->
      delivered_at_warmup := Sim.Link.delivered_bytes link);
  Sim.Event_queue.run_until eq spec.horizon;
  integrate_to spec.horizon;
  let window = spec.horizon -. spec.warmup in
  let n = Sim.Stats.Online.count soj in
  {
    completed = n;
    mean_sojourn = Sim.Stats.Online.mean soj;
    sojourn_stderr =
      (if n < 2 then nan
       else Sim.Stats.Online.stddev soj /. sqrt (float_of_int n));
    mean_occupancy = !occ_acc /. window;
    utilization =
      float_of_int (Sim.Link.delivered_bytes link - !delivered_at_warmup)
      /. (spec.link_rate *. window);
  }

let verdicts ~rng spec =
  let m = run ~rng spec in
  let mu = spec.link_rate /. spec.mean_size in
  let rho = spec.lambda /. mu in
  let expected_w, expected_l =
    if spec.deterministic_size then
      (* M/D/1: Pollaczek–Khinchine with zero service variance. *)
      ( (1. /. mu) *. (1. +. (rho /. (2. *. (1. -. rho)))),
        rho +. (rho *. rho /. (2. *. (1. -. rho))) )
    else ((1. /. mu) /. (1. -. rho), rho /. (1. -. rho))
  in
  (* Consecutive sojourn times in a busy queue are positively correlated,
     so the i.i.d. stderr understates the variance of the sample mean;
     sqrt((1+rho)/(1-rho)) is the standard inflation for an M/M/1-like
     autocorrelation structure.  z = 5 makes a false alarm astronomically
     unlikely; the 0.5% relative floor absorbs integer-byte size
     discretization and finite-horizon edge effects. *)
  let inflation = sqrt ((1. +. rho) /. (1. -. rho)) in
  let z = 5. in
  let tol_w =
    Float.max (z *. m.sojourn_stderr *. inflation) (0.005 *. expected_w)
  in
  let rel_w = tol_w /. expected_w in
  let detail =
    Printf.sprintf "rho=%.2f mu=%.1f/s n=%d stderr=%.3g inflation=%.2f" rho mu
      m.completed m.sojourn_stderr inflation
  in
  [
    Oracle.check
      ~oracle:(if spec.deterministic_size then "md1-sojourn" else "mm1-sojourn")
      ~scenario:spec.label ~expected:expected_w ~observed:m.mean_sojourn
      ~tolerance:tol_w ~detail ();
    (* Little's law ties L's relative error to W's; the 1.5 headroom
       covers the extra arrival-count noise in the time average. *)
    Oracle.check
      ~oracle:
        (if spec.deterministic_size then "md1-occupancy" else "mm1-occupancy")
      ~scenario:spec.label ~expected:expected_l ~observed:m.mean_occupancy
      ~tolerance:(1.5 *. rel_w *. expected_l)
      ~detail ();
    Oracle.check ~oracle:"utilization" ~scenario:spec.label ~expected:rho
      ~observed:m.utilization ~tolerance:(0.05 *. rho) ~detail ();
  ]

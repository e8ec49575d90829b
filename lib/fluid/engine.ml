(* Fixed-step discretised fluid simulation of n flows on one bottleneck.

   Each step of length dt:
   - every active flow observes delay = rm + q/C + jitter(t)
     and offers rate * dt bytes, where rate = cwnd / delay
     (self-clocking: the window spread over the observed RTT);
   - arrivals are clipped by the free room buffer + C*dt - q; the
     clipped fraction is dropped *proportionally* across offering
     flows and flagged as this epoch's loss signal — the same
     proportional-overflow rule the CCAC model step uses;
   - the queue serves min(q, C*dt) bytes, split across backlogged
     flows in proportion to their backlog (the neutral FIFO
     approximation);
   - a flow whose last epoch started one observed-RTT ago advances its
     CCA state via the law's per-RTT update.

   Flows are long-lived: each runs from its start time to the horizon.
   The engine keeps an exact byte ledger (accepted + initial queue =
   served + final queue, up to float rounding) that the fluid
   conservation oracle checks. *)

type flow_spec = {
  law : Ccac.Model.fluid;
  start_time : float;
  jitter : float -> float;
  mss : float;
}

(* NaN-safe: each test is written so that NaN fails it. *)
let require fn ok what = if not ok then invalid_arg (fn ^ ": " ^ what)

let flow ?(start_time = 0.) ?(jitter = fun _ -> 0.) ?(mss = 1500.) law =
  let require = require "Fluid.Engine.flow" in
  require (Float.is_finite start_time) "start_time must be finite";
  require (Float.is_finite mss && mss > 0.) "mss must be finite and positive";
  { law; start_time; jitter; mss }

type config = {
  rate : float;
  buffer : float;
  rm : float;
  dt : float;
  t0 : float;
  duration : float;
  measure_from : float;
  initial_queue : float;
  flows : flow_spec array;
}

let config ~rate ?(buffer = infinity) ~rm ?dt ?(t0 = 0.) ?measure_from
    ?(initial_queue = 0.) ~duration flows =
  let dt = match dt with Some d -> d | None -> rm /. 8. in
  let measure_from = Option.value measure_from ~default:t0 in
  let require = require "Fluid.Engine.config" in
  let positive name x =
    require (Float.is_finite x && x > 0.) (name ^ " must be finite and positive")
  in
  positive "rate" rate;
  require (buffer >= 0.) "buffer must be >= 0";
  positive "rm" rm;
  positive "dt" dt;
  require (Float.is_finite t0) "t0 must be finite";
  require (Float.is_finite measure_from) "measure_from must be finite";
  require (Float.is_finite initial_queue && initial_queue >= 0.)
    "initial_queue must be finite and >= 0";
  require (Float.is_finite duration && duration >= 0.)
    "duration must be finite and >= 0";
  { rate; buffer; rm; dt; t0; duration; measure_from; initial_queue;
    flows = Array.of_list flows }

type fstate = {
  spec : flow_spec;
  state : float array;
  mutable started : bool;
  mutable min_d : float;
  mutable last_d : float;
  mutable epoch_start : float;
  mutable epoch_acked : float;
  mutable epoch_lost : bool;
  mutable offered : float;
  mutable accepted : float;
  mutable served : float;
  mutable counted : float;
  mutable t_start : float;
}

type t = {
  cfg : config;
  fl : fstate array;
  want : float array;  (* per-step scratch *)
  mutable now : float;
  mutable q : float;
  mutable phantom : float;  (* initial-queue backlog not owned by a flow *)
  mutable phantom_served : float;
  mutable q_integral : float;
  mutable measured_time : float;
  mutable steps : int;
}

let fresh_fstate ~t0 spec =
  let st =
    { spec;
      state = spec.law.Ccac.Model.f_init ~mss:spec.mss;
      started = false;
      min_d = infinity; last_d = infinity;
      epoch_start = t0; epoch_acked = 0.; epoch_lost = false;
      offered = 0.; accepted = 0.; served = 0.; counted = 0.;
      t_start = nan }
  in
  if spec.start_time <= t0 then begin
    st.started <- true;
    st.t_start <- t0
  end;
  st

let create cfg =
  { cfg;
    fl = Array.map (fresh_fstate ~t0:cfg.t0) cfg.flows;
    want = Array.make (Array.length cfg.flows) 0.;
    now = cfg.t0;
    q = cfg.initial_queue;
    phantom = cfg.initial_queue;
    phantom_served = 0.;
    q_integral = 0.;
    measured_time = 0.;
    steps = 0 }

let step eng dt =
  let cfg = eng.cfg in
  let t = eng.now in
  let t' = t +. dt in
  (* Activations. *)
  Array.iter
    (fun f ->
      if (not f.started) && f.spec.start_time <= t +. 1e-12 then begin
        f.started <- true;
        f.t_start <- t;
        f.epoch_start <- t
      end)
    eng.fl;
  let qd = eng.q /. cfg.rate in
  (* Offers. *)
  let total_want = ref 0. in
  Array.iteri
    (fun i f ->
      if f.started then begin
        let d = cfg.rm +. qd +. f.spec.jitter t in
        if d < f.min_d then f.min_d <- d;
        f.last_d <- d;
        let cwnd = f.spec.law.Ccac.Model.f_cwnd f.state in
        let w = cwnd /. d *. dt in
        eng.want.(i) <- w;
        total_want := !total_want +. w
      end
      else eng.want.(i) <- 0.)
    eng.fl;
  (* Clip by the free room; drops are proportional and flagged. *)
  let room = Float.max 0. (cfg.buffer +. (cfg.rate *. dt) -. eng.q) in
  let scale =
    if !total_want <= room || !total_want <= 0. then 1. else room /. !total_want
  in
  Array.iteri
    (fun i f ->
      let w = eng.want.(i) in
      if w > 0. then begin
        let a = w *. scale in
        f.offered <- f.offered +. w;
        f.accepted <- f.accepted +. a;
        if scale < 1. -. 1e-12 then f.epoch_lost <- true;
        eng.q <- eng.q +. a
      end)
    eng.fl;
  (* Service, split in proportion to backlog (FIFO approximation). *)
  let s_total = Float.min eng.q (cfg.rate *. dt) in
  if s_total > 0. then begin
    let backlog_total = ref eng.phantom in
    Array.iter
      (fun f ->
        if f.started then
          backlog_total := !backlog_total +. Float.max 0. (f.accepted -. f.served))
      eng.fl;
    if !backlog_total > 0. then begin
      let share = s_total /. !backlog_total in
      Array.iter
        (fun f ->
          if f.started then begin
            let b = Float.max 0. (f.accepted -. f.served) in
            if b > 0. then begin
              let s = b *. share in
              f.served <- f.served +. s;
              f.epoch_acked <- f.epoch_acked +. s;
              if t >= cfg.measure_from then f.counted <- f.counted +. s
            end
          end)
        eng.fl;
      let sp = eng.phantom *. share in
      eng.phantom <- eng.phantom -. sp;
      eng.phantom_served <- eng.phantom_served +. sp;
      eng.q <- Float.max 0. (eng.q -. s_total)
    end
  end;
  (* Per-RTT epochs. *)
  Array.iter
    (fun f ->
      if f.started && t' -. f.epoch_start >= f.last_d then begin
        f.spec.law.Ccac.Model.f_update f.state ~mss:f.spec.mss
          ~delay:f.last_d ~min_delay:f.min_d ~acked:f.epoch_acked
          ~lost:f.epoch_lost;
        f.epoch_start <- t';
        f.epoch_acked <- 0.;
        f.epoch_lost <- false
      end)
    eng.fl;
  if t >= cfg.measure_from then begin
    eng.q_integral <- eng.q_integral +. (eng.q *. dt);
    eng.measured_time <- eng.measured_time +. dt
  end;
  eng.now <- t';
  eng.steps <- eng.steps + 1

let run_until eng t_end =
  while eng.now < t_end -. 1e-9 do
    step eng (Float.min eng.cfg.dt (t_end -. eng.now))
  done

let run eng =
  run_until eng (eng.cfg.t0 +. eng.cfg.duration);
  eng

let run_config cfg = run (create cfg)

(* Accessors. *)

let steps eng = eng.steps
let queue_bytes eng = eng.q

let flow_cwnd eng i = eng.fl.(i).spec.law.Ccac.Model.f_cwnd eng.fl.(i).state

let set_flow_cwnd eng i cwnd =
  eng.fl.(i).spec.law.Ccac.Model.f_warm eng.fl.(i).state ~cwnd

let flow_min_delay eng i = eng.fl.(i).min_d

let set_flow_min_delay eng i d =
  eng.fl.(i).min_d <- d;
  if Float.is_nan eng.fl.(i).last_d || eng.fl.(i).last_d = infinity then
    eng.fl.(i).last_d <- d

let flow_delay eng i =
  let f = eng.fl.(i) in
  if f.last_d < infinity then f.last_d
  else eng.cfg.rm +. (eng.q /. eng.cfg.rate)

let flow_rate eng i = flow_cwnd eng i /. flow_delay eng i
let served_bytes eng i = eng.fl.(i).served
let counted_bytes eng i = eng.fl.(i).counted

let goodput eng i =
  let f = eng.fl.(i) in
  if not f.started then 0.
  else
    let span = eng.now -. f.t_start in
    if span <= 0. then 0. else f.served /. span

let mean_queue_bytes eng =
  if eng.measured_time <= 0. then 0. else eng.q_integral /. eng.measured_time

let accepted_total eng =
  Array.fold_left (fun acc f -> acc +. f.accepted) 0. eng.fl

let served_total eng =
  Array.fold_left (fun acc f -> acc +. f.served) 0. eng.fl
  +. eng.phantom_served

let offered_total eng =
  Array.fold_left (fun acc f -> acc +. f.offered) 0. eng.fl

(* |initial queue + accepted - served - final queue|: every accepted
   byte is either still queued or was served.  Dropped bytes never
   enter the ledger.  Exact up to float rounding across the step
   accumulations. *)
let conservation_error eng =
  Float.abs
    (eng.cfg.initial_queue +. accepted_total eng -. served_total eng -. eng.q)

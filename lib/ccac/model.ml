(* Per-RTT update laws.  The fluid backend in [lib/fluid] calls
   [f_update] once per observed RTT with the running minimum of observed
   delays as [min_delay], so jitter can poison the base-RTT estimate —
   the starvation mechanism the threshold sweep measures.  The CCAC
   model below calls it once per step with the true Rm. *)

type fluid = {
  f_name : string;
  f_nstate : int;  (* length of the state vector *)
  f_init : mss:float -> float array;
  f_update :
    float array ->
    mss:float ->
    delay:float ->
    min_delay:float ->
    acked:float ->
    lost:bool ->
    unit;
  f_cwnd : float array -> float;
  f_warm : float array -> cwnd:float -> unit;
}

let clamp_floor ~mss cwnd = Float.max cwnd (2. *. mss)

(* All three laws keep cwnd in slot 0 and a slow-start flag in slot 1;
   warming from an externally observed window exits slow start. *)
let warm_cwnd s ~cwnd =
  s.(0) <- cwnd;
  s.(1) <- 0.

(* Reno: +1 mss per RTT in congestion avoidance, double in slow start
   until the first loss, halve on a lossy epoch.  Delay-blind. *)
let reno_fluid =
  {
    f_name = "reno";
    f_nstate = 2;
    f_init = (fun ~mss -> [| 4. *. mss; 1. |]);
    f_update =
      (fun s ~mss ~delay:_ ~min_delay:_ ~acked:_ ~lost ->
        if lost then begin
          s.(1) <- 0.;
          s.(0) <- clamp_floor ~mss (s.(0) /. 2.)
        end
        else if s.(1) > 0.5 then s.(0) <- s.(0) *. 2.
        else s.(0) <- s.(0) +. mss);
    f_cwnd = (fun s -> s.(0));
    f_warm = warm_cwnd;
  }

(* Vegas: slow-start doubling until the perceived queue exceeds
   [gamma] packets, then AIAD toward the [alpha]..[beta] corridor of
   queued packets, estimated as cwnd/mss * (delay - min_delay)/delay. *)
let vegas_fluid ?(alpha = 2.) ?(beta = 4.) () =
  let gamma = 1. in
  {
    f_name = "vegas";
    f_nstate = 2;
    f_init = (fun ~mss -> [| 4. *. mss; 1. |]);
    f_update =
      (fun s ~mss ~delay ~min_delay ~acked:_ ~lost ->
        if lost then begin
          s.(1) <- 0.;
          s.(0) <- clamp_floor ~mss (s.(0) /. 2.)
        end
        else begin
          let queued =
            s.(0) /. mss *. (Float.max 0. (delay -. min_delay) /. delay)
          in
          if s.(1) > 0.5 then
            if queued > gamma then s.(1) <- 0. else s.(0) <- s.(0) *. 2.;
          if s.(1) < 0.5 then begin
            if queued < alpha then s.(0) <- s.(0) +. mss
            else if queued > beta then s.(0) <- s.(0) -. mss;
            s.(0) <- clamp_floor ~mss s.(0)
          end
        end);
    f_cwnd = (fun s -> s.(0));
    f_warm = warm_cwnd;
  }

(* Copa: target rate 1/(delta * dq) packets/s where dq is the
   perceived queueing delay; cwnd moves by mss/delta per RTT toward
   the target (velocity 1), doubling while below target in slow
   start.  With one flow on a link of rate C this settles at
   dq = mss / (delta * C) — the same equilibrium the packet-level
   [Copa.equilibrium_queue_delay] predicts. *)
let copa_fluid () =
  let delta = 0.5 in
  {
    f_name = "copa";
    f_nstate = 2;
    f_init = (fun ~mss -> [| 4. *. mss; 1. |]);
    f_update =
      (fun s ~mss ~delay ~min_delay ~acked:_ ~lost ->
        if lost then begin
          s.(1) <- 0.;
          s.(0) <- clamp_floor ~mss (s.(0) /. 2.)
        end
        else begin
          let dq = Float.max 0. (delay -. min_delay) in
          let target_pps = if dq <= 0. then infinity else 1. /. (delta *. dq) in
          let current_pps = s.(0) /. mss /. delay in
          if s.(1) > 0.5 then
            if current_pps < target_pps then s.(0) <- s.(0) *. 2.
            else s.(1) <- 0.;
          if s.(1) < 0.5 then begin
            if current_pps <= target_pps then s.(0) <- s.(0) +. (mss /. delta)
            else s.(0) <- s.(0) -. (mss /. delta);
            s.(0) <- clamp_floor ~mss s.(0)
          end
        end);
    f_cwnd = (fun s -> s.(0));
    f_warm = warm_cwnd;
  }

let fluid_of_name name =
  match String.lowercase_ascii name with
  | "reno" -> reno_fluid
  | "vegas" -> vegas_fluid ()
  | "copa" -> copa_fluid ()
  | other -> invalid_arg (Printf.sprintf "Model.fluid_of_name: %s" other)

type choice = {
  waste : bool;
  split_bias : [ `Fifo | `Favor_1 | `Favor_2 ];
  jitter_1 : float;
  jitter_2 : float;
}

type state = {
  cca1 : float array;
  cca2 : float array;
  arrived1 : float;
  arrived2 : float;
  served1 : float;  (** physical cumulative service *)
  served2 : float;
  counted1 : float;  (** service after the warmup — the metric inputs *)
  counted2 : float;
  served1_lag : float;
  served2_lag : float;
  steps : int;
}

let queue st = st.arrived1 +. st.arrived2 -. st.served1 -. st.served2

let ratio x1 x2 =
  if x1 <= 0. then if x2 > 0. then infinity else 1.
  else Float.max (x2 /. x1) (x1 /. x2)

let unfairness st = ratio st.counted1 st.counted2

let utilization ~link_rate ~rm ~warmup st =
  let measured = max (st.steps - warmup) 1 in
  (st.counted1 +. st.counted2) /. (link_rate *. rm *. float_of_int measured)

let system ~law ~mss ~link_rate ~rm ~big_d ~buffer ~warmup ~score =
  (* The model has no slow start: each flow starts in congestion
     avoidance at the law's initial window. *)
  let init () =
    let s = law.f_init ~mss in
    law.f_warm s ~cwnd:(law.f_cwnd s);
    s
  in
  let rate s = law.f_cwnd s /. rm in
  (* Beam branches share states, so a step updates a copy: one array
     allocation per flow per step.  The base-RTT estimate is the true
     Rm. *)
  let update s ~delay ~acked ~lost =
    let s = Array.copy s in
    law.f_update s ~mss ~delay ~min_delay:rm ~acked ~lost;
    s
  in
  let jitters = [ 0.; big_d /. 2.; big_d ] in
  let moves waste =
    List.concat_map
      (fun split_bias ->
        List.concat_map
          (fun jitter_1 ->
            List.map (fun jitter_2 -> { waste; split_bias; jitter_1; jitter_2 }) jitters)
          jitters)
      [ `Fifo; `Favor_1; `Favor_2 ]
  in
  (* The alphabet is built once per system, not once per searched state. *)
  let busy = moves false in
  let idle = busy @ moves true in
  let choices st = if queue st > 1e-9 then busy else idle in
  let step st c =
    (* Arrivals this step at the CCAs' current rates, clipped by the
       buffer: bytes beyond it are dropped and become the loss signal. *)
    let r1 = rate st.cca1 and r2 = rate st.cca2 in
    let a1_want = r1 *. rm and a2_want = r2 *. rm in
    let q0 = queue st in
    let room = Float.max 0. (buffer +. (link_rate *. rm) -. q0) in
    let want = a1_want +. a2_want in
    let scale = if want <= room || want <= 0. then 1. else room /. want in
    let a1 = a1_want *. scale and a2 = a2_want *. scale in
    let lost1 = scale < 1. -. 1e-12 && a1_want > 0. in
    let lost2 = scale < 1. -. 1e-12 && a2_want > 0. in
    let arrived1 = st.arrived1 +. a1 and arrived2 = st.arrived2 +. a2 in
    (* Service: full rate when backlogged; wasteable otherwise. *)
    let backlog1 = arrived1 -. st.served1 and backlog2 = arrived2 -. st.served2 in
    let capacity = if c.waste then 0. else link_rate *. rm in
    let total_served = Float.min (backlog1 +. backlog2) capacity in
    (* FIFO relaxation floors: each flow must receive at least what it had
       enqueued one queueing-delay ago (already-served bytes count). *)
    let floor1 = Float.min backlog1 (Float.max 0. (st.served1_lag -. st.served1)) in
    let floor2 = Float.min backlog2 (Float.max 0. (st.served2_lag -. st.served2)) in
    let floor_total = Float.min total_served (floor1 +. floor2) in
    let spare = total_served -. floor_total in
    let s1, s2 =
      let room1 = backlog1 -. floor1 and room2 = backlog2 -. floor2 in
      match c.split_bias with
      | `Favor_1 ->
          let extra1 = Float.min spare room1 in
          (floor1 +. extra1, floor2 +. Float.min (spare -. extra1) room2)
      | `Favor_2 ->
          let extra2 = Float.min spare room2 in
          (floor1 +. Float.min (spare -. extra2) room1, floor2 +. extra2)
      | `Fifo ->
          (* Proportional to backlog — the neutral FIFO approximation. *)
          let total_room = room1 +. room2 in
          if total_room <= 0. then (floor1, floor2)
          else
            ( floor1 +. (spare *. room1 /. total_room),
              floor2 +. (spare *. room2 /. total_room) )
    in
    let served1 = st.served1 +. s1 and served2 = st.served2 +. s2 in
    (* Observed delays: queueing plus adversarial jitter. *)
    let qd =
      (arrived1 +. arrived2 -. served1 -. served2) /. link_rate
    in
    let d1 = rm +. qd +. c.jitter_1 and d2 = rm +. qd +. c.jitter_2 in
    (* Eventual-throughput accounting: service before warmup does not
       count toward the fairness/utilization metrics. *)
    let count = st.steps >= warmup in
    {
      cca1 = update st.cca1 ~delay:d1 ~acked:s1 ~lost:lost1;
      cca2 = update st.cca2 ~delay:d2 ~acked:s2 ~lost:lost2;
      arrived1;
      arrived2;
      served1;
      served2;
      counted1 = (st.counted1 +. if count then s1 else 0.);
      counted2 = (st.counted2 +. if count then s2 else 0.);
      served1_lag = arrived1 -. (qd *. r1);
      served2_lag = arrived2 -. (qd *. r2);
      steps = st.steps + 1;
    }
  in
  {
    Search.initial =
      {
        cca1 = init ();
        cca2 = init ();
        arrived1 = 0.;
        arrived2 = 0.;
        served1 = 0.;
        served2 = 0.;
        counted1 = 0.;
        counted2 = 0.;
        served1_lag = 0.;
        served2_lag = 0.;
        steps = 0;
      };
    choices;
    step;
    score;
  }

(* Every test fails on NaN; [infinity] is a legal [big_d] or [buffer]. *)
let check_args fn ~mss ~link_rate ~rm ~big_d ~buffer ~horizon ~beam_width =
  if not (Float.is_finite mss && mss > 0.) then
    invalid_arg (fn ^ ": mss must be finite and positive");
  if not (Float.is_finite link_rate && link_rate > 0.) then
    invalid_arg (fn ^ ": link_rate must be finite and positive");
  if not (Float.is_finite rm && rm > 0.) then
    invalid_arg (fn ^ ": rm must be finite and positive");
  if not (big_d >= 0.) then invalid_arg (fn ^ ": big_d must be >= 0");
  if not (buffer >= 0.) then invalid_arg (fn ^ ": buffer must be >= 0");
  if horizon < 0 then invalid_arg (fn ^ ": horizon must be >= 0");
  if beam_width < 1 then invalid_arg (fn ^ ": beam_width must be >= 1")

let max_unfairness ~law ~mss ~link_rate ~rm ~big_d ?buffer ~horizon
    ?(beam_width = 256) () =
  let buffer = Option.value buffer ~default:infinity in
  check_args "Model.max_unfairness" ~mss ~link_rate ~rm ~big_d ~buffer ~horizon
    ~beam_width;
  let sys =
    system ~law ~mss ~link_rate ~rm ~big_d ~buffer ~warmup:(horizon / 2)
      ~score:unfairness
  in
  let best = Search.beam_max sys ~horizon ~width:beam_width in
  (best.Search.score, best.Search.trace)

let min_utilization ~law ~mss ~link_rate ~rm ~big_d ?buffer ~horizon
    ?(beam_width = 256) () =
  let warmup = horizon / 2 in
  let buffer = Option.value buffer ~default:infinity in
  check_args "Model.min_utilization" ~mss ~link_rate ~rm ~big_d ~buffer ~horizon
    ~beam_width;
  let score st = 1. -. utilization ~link_rate ~rm ~warmup st in
  let sys = system ~law ~mss ~link_rate ~rm ~big_d ~buffer ~warmup ~score in
  let best = Search.beam_max sys ~horizon ~width:beam_width in
  1. -. best.Search.score

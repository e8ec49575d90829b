(* Hybrid backend: fluid far from discontinuities, packet-level inside
   a window after each event (flow starts, jitter/fault activations,
   known loss episodes — the caller names the event times).

   State translation at the seams:
   - fluid -> packet: each flow's fluid window becomes a warm packet
     CCA (the caller's [packet_cca ~cwnd] constructor, expected to set
     init_cwnd_packets / initial_ssthresh from it), paced at the fluid
     rate estimate via [initial_pacing], with one synthetic zero-byte
     ACK carrying the fluid min-delay so delay-based CCAs keep their
     (possibly jitter-poisoned) base-RTT estimate; the fluid queue is
     pre-loaded as [initial_queue_bytes].
   - packet -> fluid: the retained [Cca.t] handles give back the final
     window ([cwnd ()], seeded via the law's [f_warm]), the inspect
     min-RTT/base-RTT refreshes the fluid min-delay, tail throughput
     becomes the per-flow rate estimate, and the link's queued bytes
     carry over as the fluid initial queue.

   A byte ledger spans the seams: for every segment,
   q_start + inflow = outflow + q_end, where inflow is bytes entering
   the bottleneck (fluid accepted arrivals; packet offered minus the
   carried-in phantom queue) and outflow is bytes leaving it (fluid
   service; packet delivered + dropped).  Rounding the queue to whole
   bytes at fluid->packet seams is the only slack, bounded by one byte
   per handoff — the hybrid conservation oracle checks the chained
   identity against exactly that tolerance. *)

type flow_spec = {
  law : Ccac.Model.fluid;
  packet_cca : cwnd:float -> Cca.t;
  jitter : float -> float;
  jitter_bound : float;
  mss : float;
}

(* NaN-safe: each test is written so that NaN fails it. *)
let require fn ok what = if not ok then invalid_arg (fn ^ ": " ^ what)

let flow ?(jitter = fun _ -> 0.) ?(jitter_bound = infinity) ?(mss = 1500.)
    ~packet_cca law =
  let require = require "Fluid.Hybrid.flow" in
  require (jitter_bound >= 0.) "jitter_bound must be >= 0";
  (* Packet segments run [int_of_float mss]-byte segments. *)
  require (Float.is_finite mss && mss >= 1.) "mss must be finite and >= 1";
  { law; packet_cca; jitter; jitter_bound; mss }

type config = {
  rate : float;
  buffer : float;
  rm : float;
  dt : float;
  duration : float;
  measure_from : float;
  events : float list;
  window : float;
  flows : flow_spec array;
}

(* An infinite [buffer] is unbounded; [events] outside [0, duration)
   are ignored. *)
let config ~rate ?(buffer = infinity) ~rm ?dt ?measure_from ?(events = [])
    ?window ~duration flows =
  let dt = match dt with Some d -> d | None -> rm /. 8. in
  let window = match window with Some w -> w | None -> 50. *. rm in
  let measure_from = Option.value measure_from ~default:0. in
  let require = require "Fluid.Hybrid.config" in
  let positive name x =
    require (Float.is_finite x && x > 0.) (name ^ " must be finite and positive")
  in
  positive "rate" rate;
  require (buffer >= 0.) "buffer must be >= 0";
  positive "rm" rm;
  positive "dt" dt;
  positive "duration" duration;
  require (Float.is_finite measure_from) "measure_from must be finite";
  require (List.for_all (fun e -> not (Float.is_nan e)) events)
    "events must not be NaN";
  positive "window" window;
  { rate; buffer; rm; dt; duration; measure_from; events; window;
    flows = Array.of_list flows }

type kind = [ `Fluid | `Packet ]

(* The packet windows: [e, e + window] around each event (flow start
   at t=0 always counts), merged when they overlap, clipped to the
   horizon.  Everything between them runs fluid. *)
let segments cfg =
  let events =
    List.sort_uniq compare
      (0. :: List.filter (fun e -> e >= 0. && e < cfg.duration) cfg.events)
  in
  let packet =
    List.fold_left
      (fun acc e ->
        let a = e and b = Float.min cfg.duration (e +. cfg.window) in
        match acc with
        | (a0, b0) :: rest when a <= b0 -> (a0, Float.max b0 b) :: rest
        | _ -> (a, b) :: acc)
      [] events
    |> List.rev
  in
  let rec weave t packet acc =
    if t >= cfg.duration -. 1e-9 then List.rev acc
    else
      match packet with
      | (a, b) :: rest when a <= t +. 1e-9 ->
          weave b rest ((t, b, `Packet) :: acc)
      | (a, _) :: _ -> weave a packet ((t, a, `Fluid) :: acc)
      | [] -> List.rev ((t, cfg.duration, `Fluid) :: acc)
  in
  weave 0. packet []

type result = {
  counted : float array;  (** bytes per flow within [measure_from, duration] *)
  served : float array;
  rates : float array;  (** final per-flow rate estimates, bytes/s *)
  segments : (float * float * kind) list;
  inflow : float;
  outflow : float;
  q_final : float;
  handoffs : int;  (** fluid->packet seams (1 byte of rounding slack each) *)
  conservation_error : float;
      (** |inflow - outflow - q_final| over the whole chained run *)
}

let run cfg =
  let n = Array.length cfg.flows in
  let segs = segments cfg in
  let cwnd = Array.init n (fun i ->
      let s = cfg.flows.(i) in
      s.law.Ccac.Model.f_cwnd (s.law.Ccac.Model.f_init ~mss:s.mss))
  in
  let min_d = Array.make n infinity in
  let rates = Array.init n (fun i -> cwnd.(i) /. cfg.rm) in
  let counted = Array.make n 0. in
  let served = Array.make n 0. in
  let q = ref 0. in
  let inflow = ref 0. in
  let outflow = ref 0. in
  let handoffs = ref 0 in
  List.iter
    (fun (a, b, kind) ->
      match kind with
      | `Fluid ->
          let eng =
            Engine.create
              (Engine.config ~rate:cfg.rate ~buffer:cfg.buffer ~rm:cfg.rm
                 ~dt:cfg.dt ~t0:a ~measure_from:cfg.measure_from
                 ~initial_queue:!q ~duration:(b -. a)
                 (Array.to_list
                    (Array.map
                       (fun s ->
                         Engine.flow ~start_time:a ~jitter:s.jitter
                           ~mss:s.mss s.law)
                       cfg.flows)))
          in
          for i = 0 to n - 1 do
            Engine.set_flow_cwnd eng i cwnd.(i);
            if min_d.(i) < infinity then Engine.set_flow_min_delay eng i min_d.(i)
          done;
          ignore (Engine.run eng);
          for i = 0 to n - 1 do
            cwnd.(i) <- Engine.flow_cwnd eng i;
            min_d.(i) <- Engine.flow_min_delay eng i;
            rates.(i) <- Engine.flow_rate eng i;
            counted.(i) <- counted.(i) +. Engine.counted_bytes eng i;
            served.(i) <- served.(i) +. Engine.served_bytes eng i
          done;
          inflow := !inflow +. Engine.accepted_total eng;
          outflow := !outflow +. Engine.served_total eng;
          q := Engine.queue_bytes eng
      | `Packet ->
          let q_int = int_of_float (Float.round !q) in
          incr handoffs;
          let ccas =
            Array.mapi
              (fun i s ->
                let cca = s.packet_cca ~cwnd:cwnd.(i) in
                if min_d.(i) < infinity then
                  cca.Cca.on_ack
                    { Cca.now = a; rtt = min_d.(i); acked_bytes = 0;
                      sent_time = a -. min_d.(i); delivered = 0;
                      delivered_now = 0; inflight = 0; app_limited = true;
                      ecn_ce = false };
                cca)
              cfg.flows
          in
          let net =
            Sim.Network.run_config
              (Sim.Network.config
                 ~rate:(Sim.Link.Constant cfg.rate)
                 ?buffer:
                   (if cfg.buffer = infinity then None
                    else Some (int_of_float cfg.buffer))
                 ~rm:cfg.rm ~t0:a ~initial_queue_bytes:q_int
                 ~duration:(b -. a)
                 (Array.to_list
                    (Array.mapi
                       (fun i s ->
                         Sim.Network.flow ~start_time:a
                           ~jitter:(Sim.Jitter.Trace s.jitter)
                           ~jitter_bound:s.jitter_bound
                           ~mss:(int_of_float s.mss)
                           ~initial_pacing:rates.(i) ccas.(i))
                       cfg.flows)))
          in
          let link = Sim.Network.link net in
          let flows = Sim.Network.flows net in
          for i = 0 to n - 1 do
            cwnd.(i) <- ccas.(i).Cca.cwnd ();
            (match
               List.find_opt
                 (fun (k, v) ->
                   (k = "min_rtt" || k = "base_rtt") && Float.is_finite v)
                 (ccas.(i).Cca.inspect ())
             with
            | Some (_, v) -> min_d.(i) <- Float.min min_d.(i) v
            | None -> ());
            (* Packet state -> per-flow rate estimate: tail throughput
               over the last few RTTs of the window. *)
            let tail = Float.max a (b -. (8. *. cfg.rm)) in
            rates.(i) <- Sim.Network.throughput net ~flow:i ~t0:tail ~t1:b;
            if rates.(i) <= 0. then rates.(i) <- cwnd.(i) /. cfg.rm;
            served.(i) <-
              served.(i) +. float_of_int (Sim.Flow.delivered_bytes flows.(i));
            let m0 = Float.max a cfg.measure_from in
            if b > m0 then
              counted.(i) <-
                counted.(i)
                +. (Sim.Network.throughput net ~flow:i ~t0:m0 ~t1:b *. (b -. m0))
          done;
          inflow :=
            !inflow
            +. float_of_int (Sim.Link.offered_bytes link)
            -. float_of_int q_int;
          outflow :=
            !outflow
            +. float_of_int (Sim.Link.delivered_bytes link)
            +. float_of_int (Sim.Link.dropped_bytes link);
          q := float_of_int (Sim.Link.queued_bytes link))
    segs;
  { counted; served; rates; segments = segs; inflow = !inflow;
    outflow = !outflow; q_final = !q; handoffs = !handoffs;
    conservation_error = Float.abs (!inflow -. !outflow -. !q) }

(* The starvation census's churning population.

   The packets run on {!Network}: this module is only the census's
   arrival process.  A census population is a birth-death process whose
   {e concurrency} is bounded (arrival rate x mean lifetime) even when
   the total flow count is not, so it streams the population through
   the network's recycled flow slots ({!Network.spawn}):

   - Arrivals are generated lazily by one persistent event-queue handle
     (Poisson gaps over the arrival window), not pre-materialized; an
     arrival whose cumulative gaps overshoot the window arrives at the
     window's end.
   - Sizes are Pareto draws, truncated at [size_cap].
   - Each incarnation gets its own ACK-path jitter element, split from
     the cell's jitter stream (or, without jitter, a shared no-op one).

   Arrivals, sizes and jitter come from order-independent labeled
   streams keyed by [(seed, key)], in flow order, so the population is
   a pure function of the config however slots are recycled. *)

type config = {
  n : int;
  duration : float;
  arrival_frac : float;
  rate : float;
  buffer : int option;
  rm : float;
  mss : int;
  jitter_d : float;
  seed : int;
  key : string;
  alpha : float;
  xm : float;
  size_cap : int;
}

type result = {
  goodputs : float array;
  spawned : int;
  completed : int;
  peak_active : int;
  peak_pending : int;
  slots : int;
  fallbacks : int;
}

(* NaN-safe: each test is written so that NaN fails it. *)
let validate cfg =
  if cfg.n <= 0 then invalid_arg "Population.run: n must be positive";
  if not (Float.is_finite cfg.duration && cfg.duration > 0.) then
    invalid_arg "Population.run: duration must be finite and positive";
  if not (cfg.arrival_frac > 0. && cfg.arrival_frac <= 1.) then
    invalid_arg "Population.run: arrival_frac must be in (0, 1]";
  if not (Float.is_finite cfg.rate && cfg.rate > 0.) then
    invalid_arg "Population.run: rate must be finite and positive";
  (match cfg.buffer with
  | Some b when b < 0 -> invalid_arg "Population.run: buffer must be >= 0"
  | _ -> ());
  if not (Float.is_finite cfg.rm && cfg.rm >= 0.) then
    invalid_arg "Population.run: rm must be finite and >= 0";
  if cfg.mss <= 0 then invalid_arg "Population.run: mss must be positive";
  if not (Float.is_finite cfg.jitter_d && cfg.jitter_d >= 0.) then
    invalid_arg "Population.run: jitter_d must be finite and >= 0";
  if not (Float.is_finite cfg.alpha && cfg.alpha > 0.) then
    invalid_arg "Population.run: alpha must be finite and positive";
  if not (Float.is_finite cfg.xm && cfg.xm > 0.) then
    invalid_arg "Population.run: xm must be finite and positive";
  if cfg.size_cap < cfg.mss then
    invalid_arg "Population.run: size_cap below one segment"

let run ~cca:make_cca cfg =
  validate cfg;
  let net =
    Network.build
      {
        Network.rate = Link.Constant cfg.rate;
        buffer = cfg.buffer;
        ecn_threshold = None;
        discipline = Link.Fifo;
        rm = cfg.rm;
        flows = [];
        t0 = 0.;
        duration = cfg.duration;
        seed = cfg.seed;
        record_queue = false;
        initial_queue_bytes = 0;
        faults = Fault.none;
        monitor_period = None;
      }
  in
  let eq = Network.event_queue net in
  let master = Rng.create ~seed:cfg.seed in
  let arrivals_rng = Rng.stream master ~label:(cfg.key ^ "/arrivals") in
  let sizes_rng = Rng.stream master ~label:(cfg.key ^ "/sizes") in
  let jitter_rng = Rng.stream master ~label:(cfg.key ^ "/jitter") in
  let horizon = cfg.duration in
  let window = cfg.arrival_frac *. cfg.duration in
  let mean_gap = window /. float_of_int cfg.n in
  (* Not zero-filled: every spawned flow writes its own entry exactly
     once, at completion or in the horizon sweep, and [written] proves
     it.  Skipping the fill spares set-up a pass over n floats on pages
     the allocator may just have handed back to the kernel. *)
  let goodputs = Array.create_float cfg.n in
  let written = ref 0 in
  (* [flow_no.(slot)]: the population index of the slot's current
     incarnation, i.e. its row in [goodputs]. *)
  let flow_no = ref [||] in
  let record_goodput f =
    goodputs.(!flow_no.(Flow.id f)) <- Flow.goodput f ~horizon;
    incr written
  in

  let spawned = ref 0 in
  let completed = ref 0 in
  let active = ref 0 in
  let peak_active = ref 0 in
  let peak_pending = ref 0 in
  let on_complete f =
    record_goodput f;
    incr completed;
    decr active
  in
  (* Without jitter every release is the ACK's arrival, which a
     stateless element shared by every flow reproduces. *)
  let no_jitter = Jitter.create ~rng:jitter_rng Jitter.No_jitter in
  let fresh_jitter () =
    if cfg.jitter_d > 0. then
      Jitter.create ~bound:cfg.jitter_d ~rng:(Rng.split jitter_rng)
        (Jitter.Uniform { lo = 0.; hi = cfg.jitter_d })
    else no_jitter
  in

  (* Lazy Poisson arrivals: one persistent handle; gaps and sizes come
     from order-independent labeled streams, in flow order, so the
     population is a pure function of (seed, key) regardless of how many
     slots exist or how they are recycled. *)
  let next_t = ref 0. in
  let arrival_h = Event_queue.handle ignore in
  let spawn_next () =
    let k = !spawned in
    spawned := k + 1;
    let size =
      min cfg.size_cap
        (int_of_float (Rng.pareto sizes_rng ~alpha:cfg.alpha ~xm:cfg.xm))
    in
    let f =
      Network.spawn net ~cca:make_cca ~jitter:(fresh_jitter ()) ~mss:cfg.mss
        ~size_bytes:size ~on_complete
    in
    let slot = Flow.id f in
    if slot = Array.length !flow_no then begin
      let b = Array.make (max 64 (2 * slot)) 0 in
      Array.blit !flow_no 0 b 0 slot;
      flow_no := b
    end;
    !flow_no.(slot) <- k;
    incr active;
    if !active > !peak_active then peak_active := !active;
    let p = Event_queue.pending eq in
    if p > !peak_pending then peak_pending := p;
    if !spawned < cfg.n then begin
      next_t := !next_t +. Rng.exponential arrivals_rng ~mean:mean_gap;
      Event_queue.schedule_handle eq arrival_h ~at:(Float.min !next_t window)
    end
  in
  Event_queue.set_action arrival_h spawn_next;
  next_t := Rng.exponential arrivals_rng ~mean:mean_gap;
  Event_queue.schedule_handle eq arrival_h ~at:(Float.min !next_t window);

  Network.run_to net horizon;

  (* Survivors: flows still active at the horizon score their delivered
     bytes over their truncated lifetime, exactly as {!Network.goodputs}
     does for incomplete flows. *)
  let flows = Network.flows net in
  Array.iter (fun f -> if not (Flow.completed f) then record_goodput f) flows;
  if !written <> cfg.n then
    failwith
      (Printf.sprintf "Population.run: %d of %d goodputs written" !written cfg.n);
  {
    goodputs;
    spawned = !spawned;
    completed = !completed;
    peak_active = !peak_active;
    peak_pending = !peak_pending;
    slots = Array.length flows;
    fallbacks = Network.delay_line_fallbacks net;
  }

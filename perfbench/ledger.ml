(* The per-layer ledger of one traced pass.

   Nothing here reaches inside the library: every number comes from
   wrapping a closure the caller already hands the simulator (CCA
   records, jitter traces, fluid laws, the population factory, the
   hybrid's packet-CCA constructor, runner jobs) or from a public
   counter read after the run.  A wrapper delegates to the closure it
   wraps and only adds clock reads and integer counters, so a traced run
   must reproduce the untraced run's outputs bit for bit; each workload
   checks that. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs ns = float_of_int ns *. 1e-9
let since ns = secs (now_ns () - ns)

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, since t0)

(* Cost of one empty clock pair.  Every wrapped call pays it inside its
   own span, so it is subtracted from each layer's busy time (and left in
   its parent's self time, where [trace.overhead_frac] accounts for it). *)
let clock_cost_ns =
  lazy
    (let n = 2001 in
     let d =
       Array.init n (fun _ ->
           let t0 = now_ns () in
           now_ns () - t0)
     in
     Array.sort compare d;
     d.(n / 2))

type t = {
  mutable ack_calls : int;
  mutable ack_ns : int;
  mutable ack_words : int;
  mutable acked_bytes : int;
  mutable send_calls : int;
  mutable send_ns : int;
  mutable sent_bytes : int;
  mutable loss_calls : int;
  mutable loss_ns : int;
  mutable lost_packets : int;
  mutable timeouts : int;
  mutable timer_calls : int;
  mutable timer_ns : int;
  mutable query_calls : int;
  mutable query_ns : int;
  mutable jitter_calls : int;
  mutable jitter_ns : int;
  mutable law_inits : int;
  mutable law_updates : int;
  mutable law_ns : int;
  mutable factory_calls : int;
  mutable factory_ns : int;
  mutable recycles : int;
  mutable packet_cca_builds : int;
  mutable first_call : int;
      (* clock at the first factory / law-init call since [arm]: the end
         of set-up *)
  mutable in_packet : bool;
  mutable packet_start : int;
  mutable packet_ns : int;
      (* hybrid packet windows: from a segment's first packet-CCA build to
         the next fluid-law call *)
  mutable job_s : (string * float) list;  (* experiment key, job seconds *)
}

let create () =
  {
    ack_calls = 0; ack_ns = 0; ack_words = 0; acked_bytes = 0;
    send_calls = 0; send_ns = 0; sent_bytes = 0;
    loss_calls = 0; loss_ns = 0; lost_packets = 0; timeouts = 0;
    timer_calls = 0; timer_ns = 0; query_calls = 0; query_ns = 0;
    jitter_calls = 0; jitter_ns = 0;
    law_inits = 0; law_updates = 0; law_ns = 0;
    factory_calls = 0; factory_ns = 0; recycles = 0;
    packet_cca_builds = 0; first_call = 0;
    in_packet = false; packet_start = 0; packet_ns = 0;
    job_s = [];
  }

(* Busy time net of the stopwatch, in seconds. *)
let net ~calls ns =
  secs (max 0 (ns - (calls * Lazy.force clock_cost_ns)))

let cca_calls l =
  l.ack_calls + l.send_calls + l.loss_calls + l.timer_calls + l.query_calls

let cca_s l =
  net ~calls:(cca_calls l)
    (l.ack_ns + l.send_ns + l.loss_ns + l.timer_ns + l.query_ns)

let jitter_s l = net ~calls:l.jitter_calls l.jitter_ns
let law_s l = net ~calls:(l.law_inits + l.law_updates) l.law_ns
let factory_s l = net ~calls:l.factory_calls l.factory_ns

(* Start a new set-up measurement: the next factory or law-init call
   closes it. *)
let arm l = l.first_call <- 0

let mark l t = if l.first_call = 0 then l.first_call <- t

let close_packet_window l t =
  if l.in_packet then begin
    l.in_packet <- false;
    l.packet_ns <- l.packet_ns + (t - l.packet_start)
  end

(* ---- Cca ------------------------------------------------------------ *)

let wrap_cca l (c : Cca.t) : Cca.t =
  let query f () =
    let t0 = now_ns () in
    let r = f () in
    l.query_ns <- l.query_ns + (now_ns () - t0);
    l.query_calls <- l.query_calls + 1;
    r
  in
  {
    c with
    on_ack =
      (fun a ->
        let w0 = Gc.minor_words () in
        let t0 = now_ns () in
        c.on_ack a;
        let t1 = now_ns () in
        let w1 = Gc.minor_words () in
        l.ack_calls <- l.ack_calls + 1;
        l.ack_ns <- l.ack_ns + (t1 - t0);
        l.ack_words <- l.ack_words + int_of_float (w1 -. w0);
        l.acked_bytes <- l.acked_bytes + a.Cca.acked_bytes);
    on_send =
      (fun s ->
        let bytes = s.Cca.sent_bytes in
        let t0 = now_ns () in
        c.on_send s;
        l.send_ns <- l.send_ns + (now_ns () - t0);
        l.send_calls <- l.send_calls + 1;
        l.sent_bytes <- l.sent_bytes + bytes);
    on_loss =
      (fun i ->
        let t0 = now_ns () in
        c.on_loss i;
        l.loss_ns <- l.loss_ns + (now_ns () - t0);
        l.loss_calls <- l.loss_calls + 1;
        l.lost_packets <- l.lost_packets + List.length i.Cca.lost_packets;
        if i.Cca.kind = `Timeout then l.timeouts <- l.timeouts + 1);
    on_timer =
      (fun now ->
        let t0 = now_ns () in
        c.on_timer now;
        l.timer_ns <- l.timer_ns + (now_ns () - t0);
        l.timer_calls <- l.timer_calls + 1);
    next_timer = query c.next_timer;
    cwnd = query c.cwnd;
    pacing_rate = query c.pacing_rate;
  }

(* ---- Jitter.Trace ---------------------------------------------------- *)

let wrap_trace l f t =
  let t0 = now_ns () in
  let d = f t in
  l.jitter_ns <- l.jitter_ns + (now_ns () - t0);
  l.jitter_calls <- l.jitter_calls + 1;
  d

(* ---- Ccac.Model.fluid ------------------------------------------------ *)

let wrap_law l (law : Ccac.Model.fluid) : Ccac.Model.fluid =
  {
    law with
    f_init =
      (fun ~mss ->
        let t0 = now_ns () in
        mark l t0;
        close_packet_window l t0;
        let s = law.f_init ~mss in
        l.law_ns <- l.law_ns + (now_ns () - t0);
        l.law_inits <- l.law_inits + 1;
        s);
    f_update =
      (fun s ~mss ~delay ~min_delay ~acked ~lost ->
        let t0 = now_ns () in
        close_packet_window l t0;
        law.f_update s ~mss ~delay ~min_delay ~acked ~lost;
        l.law_ns <- l.law_ns + (now_ns () - t0);
        l.law_updates <- l.law_updates + 1);
  }

(* ---- Fluid.Hybrid packet_cca ----------------------------------------- *)

let wrap_packet_cca l make ~cwnd =
  let t0 = now_ns () in
  if not l.in_packet then begin
    l.in_packet <- true;
    l.packet_start <- t0
  end;
  l.packet_cca_builds <- l.packet_cca_builds + 1;
  wrap_cca l (make ~cwnd)

(* ---- Sim.Population factory ------------------------------------------ *)

(* The population recycles a slot by handing its previous instance back
   as [prev]; a factory that returns a different instance makes it
   release the old one (and its arena row).  So the wrapper keeps, per
   slot, the wrapped instance it gave out and the inner one behind it,
   hands the inner factory its own [prev], and returns the very same
   wrapped instance whenever the inner factory recycled. *)
let wrap_factory l inner =
  let slots = ref [||] in
  let remember slot pair =
    if slot >= Array.length !slots then begin
      let b = Array.make (max 64 (2 * (slot + 1))) None in
      Array.blit !slots 0 b 0 (Array.length !slots);
      slots := b
    end;
    !slots.(slot) <- Some pair
  in
  let fresh slot (i : Cca.instance) =
    let o = { i with Cca.cca = wrap_cca l i.Cca.cca } in
    remember slot (o, i);
    o
  in
  fun ~slot ~prev ->
    let t0 = now_ns () in
    mark l t0;
    let o =
      match prev with
      | None -> fresh slot (inner ~slot ~prev:None)
      | Some p -> (
          match !slots.(slot) with
          | Some (o, i) when o == p ->
              let i' = inner ~slot ~prev:(Some i) in
              if i' == i then begin
                l.recycles <- l.recycles + 1;
                o
              end
              else fresh slot i'
          | _ -> invalid_arg "Ledger.wrap_factory: unknown prev instance")
    in
    l.factory_ns <- l.factory_ns + (now_ns () - t0);
    l.factory_calls <- l.factory_calls + 1;
    o

(* ---- Runner.Job -------------------------------------------------------- *)

let wrap_job l ~exp j =
  Runner.Job.create ~key:(Runner.Job.key j) (fun () ->
      let t0 = now_ns () in
      let b = Runner.Job.force j in
      l.job_s <- (exp, since t0) :: l.job_s;
      Runner.Job.decode b)

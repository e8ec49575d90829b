(* The census engine as it stood before the census moved onto
   [Sim.Network]: its own link, one shared post-bottleneck delay line,
   an ACK line per slot, and a slot store whose [refs] count recycles a
   completed slot once every packet it put into the link has been
   acked.  The library's [Sim.Population.run] drives [Sim.Network.spawn]
   instead; the census oracle property in [test_sim.ml] compares the two
   on random small cells, bit for bit.  Configs are taken as given: the
   library checks them.  One call is gone: a respawn used to reset the
   slot's ACK-line watermark, which cannot exceed the time of its last
   ACK, so no later release fell below it ([Delay_line.reset_last_due]
   is deleted). *)

open Sim

type slot_state = Active | Retired | Free

type slot = {
  sid : int;
  flow : Flow.t;
  ack_line : Packet.t Delay_line.t;
  mutable inst : Cca.instance;
  mutable jitter : Jitter.t option;
  mutable refs : int; (* packets admitted by the link, not yet acked *)
  mutable state : slot_state;
  mutable flow_no : int; (* population index of the current incarnation *)
}

let run ~cca:make_cca (cfg : Population.config) : Population.result =
  let eq = Event_queue.create () in
  let link =
    Link.create ~eq ~rate:(Link.Constant cfg.rate) ?buffer:cfg.buffer
      ~record_queue:false ()
  in
  let master = Rng.create ~seed:cfg.seed in
  let arrivals_rng = Rng.stream master ~label:(cfg.key ^ "/arrivals") in
  let sizes_rng = Rng.stream master ~label:(cfg.key ^ "/sizes") in
  let jitter_rng = Rng.stream master ~label:(cfg.key ^ "/jitter") in
  let horizon = cfg.duration in
  let window = cfg.arrival_frac *. cfg.duration in
  let mean_gap = window /. float_of_int cfg.n in
  let table = Flow.Table.create ~capacity:64 () in
  (* Not zero-filled: every spawned flow writes its own entry exactly
     once, at completion or in the horizon sweep, and [written] proves
     it.  Skipping the fill spares set-up a pass over n floats on pages
     the allocator may just have handed back to the kernel. *)
  let goodputs = Array.create_float cfg.n in
  let written = ref 0 in
  let record_goodput s =
    goodputs.(s.flow_no) <- Flow.goodput s.flow ~horizon;
    incr written
  in

  (* Slot store and free stack — both flat and growable. *)
  let slots : slot option array ref = ref [||] in
  let nslots = ref 0 in
  let get_slot id =
    match (!slots).(id) with Some s -> s | None -> assert false
  in
  let add_slot s =
    if !nslots = Array.length !slots then begin
      let cap = max 64 (2 * Array.length !slots) in
      let b = Array.make cap None in
      Array.blit !slots 0 b 0 !nslots;
      slots := b
    end;
    (!slots).(!nslots) <- Some s;
    incr nslots
  in
  let free_stack = ref [||] in
  let nfree = ref 0 in
  let push_free sid =
    if !nfree = Array.length !free_stack then begin
      let cap = max 64 (2 * Array.length !free_stack) in
      let b = Array.make cap 0 in
      Array.blit !free_stack 0 b 0 !nfree;
      free_stack := b
    end;
    (!free_stack).(!nfree) <- sid;
    incr nfree
  in
  let pop_free () =
    if !nfree = 0 then None
    else begin
      decr nfree;
      Some (!free_stack).(!nfree)
    end
  in

  let spawned = ref 0 in
  let completed = ref 0 in
  let active = ref 0 in
  let peak_active = ref 0 in
  let peak_pending = ref 0 in

  let maybe_free s =
    if s.state = Retired && s.refs = 0 then begin
      s.state <- Free;
      push_free s.sid
    end
  in
  let complete_slot s =
    record_goodput s;
    incr completed;
    decr active;
    s.state <- Retired;
    maybe_free s
  in
  let transmit_slot s pkt =
    match Link.enqueue link pkt with
    | `Enqueued -> s.refs <- s.refs + 1
    | `Dropped -> ()
  in
  let ack_slot s pkt =
    (* Decrement before the flow sees the ACK: if this ACK completes the
       flow, [complete_slot]'s [maybe_free] must already see [refs] = 0. *)
    s.refs <- s.refs - 1;
    Flow.receive_ack_one s.flow pkt;
    maybe_free s
  in

  (* One shared post-bottleneck propagation line: the link is FIFO and
     the propagation delay constant, so dequeue + rm is globally
     monotone — a single line replaces one per flow. *)
  let data_line =
    Delay_line.create ~eq ~dummy:Packet.dummy (fun pkt ->
        let s = get_slot pkt.Packet.flow in
        let arrival = Event_queue.now eq in
        let release =
          match s.jitter with
          | Some j ->
              Jitter.release_at j ~flow:s.sid ~arrival ~sent:pkt.Packet.sent_at
          | None -> arrival
        in
        Delay_line.push s.ack_line ~due:release pkt)
  in
  Link.set_on_dequeue link (fun pkt ->
      Delay_line.push data_line ~due:(Event_queue.now eq +. cfg.rm) pkt);

  let fresh_jitter () =
    if cfg.jitter_d > 0. then
      Some
        (Jitter.create ~bound:cfg.jitter_d ~rng:(Rng.split jitter_rng)
           (Jitter.Uniform { lo = 0.; hi = cfg.jitter_d }))
    else None
  in

  let new_slot ~start_time ~size ~flow_no =
    let sid = !nslots in
    let inst = make_cca ~slot:sid ~prev:None in
    let flow =
      Flow.create ~eq ~id:sid ~cca:inst.Cca.cca ~mss:cfg.mss ~start_time
        ~record_series:false ~table ~size_bytes:size
        ~on_complete:(fun () -> complete_slot (get_slot sid))
        ~transmit:(fun pkt -> transmit_slot (get_slot sid) pkt)
        ()
    in
    let ack_line =
      Delay_line.create ~eq ~dummy:Packet.dummy (fun pkt ->
          ack_slot (get_slot sid) pkt)
    in
    add_slot
      {
        sid;
        flow;
        ack_line;
        inst;
        jitter = fresh_jitter ();
        refs = 0;
        state = Active;
        flow_no;
      }
  in
  let respawn_slot sid ~start_time ~size ~flow_no =
    let s = get_slot sid in
    let next = make_cca ~slot:sid ~prev:(Some s.inst) in
    if next != s.inst then s.inst.Cca.release ();
    s.inst <- next;
    s.jitter <- fresh_jitter ();
    Flow.respawn s.flow ~cca:next.Cca.cca ~start_time ~size_bytes:size ();
    s.flow_no <- flow_no;
    s.state <- Active
  in

  (* Lazy Poisson arrivals: one persistent handle; gaps and sizes come
     from order-independent labeled streams, in flow order, so the
     population is a pure function of (seed, key) regardless of how many
     slots exist or how they are recycled. *)
  let next_t = ref 0. in
  let arrival_h = Event_queue.handle ignore in
  let spawn_next () =
    let now = Event_queue.now eq in
    let k = !spawned in
    spawned := k + 1;
    let size =
      min cfg.size_cap
        (int_of_float (Rng.pareto sizes_rng ~alpha:cfg.alpha ~xm:cfg.xm))
    in
    (match pop_free () with
    | Some sid -> respawn_slot sid ~start_time:now ~size ~flow_no:k
    | None -> new_slot ~start_time:now ~size ~flow_no:k);
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

  Event_queue.run_until eq horizon;

  (* Survivors: flows still active at the horizon score their delivered
     bytes over their truncated lifetime, exactly as {!Network.goodputs}
     does for incomplete flows. *)
  for sid = 0 to !nslots - 1 do
    let s = get_slot sid in
    if s.state = Active then record_goodput s
  done;
  if !written <> cfg.n then
    failwith
      (Printf.sprintf "Population.run: %d of %d goodputs written" !written cfg.n);

  let fallbacks = ref (Delay_line.fallbacks data_line) in
  for sid = 0 to !nslots - 1 do
    fallbacks := !fallbacks + Delay_line.fallbacks (get_slot sid).ack_line
  done;

  {
    Population.goodputs;
    spawned = !spawned;
    completed = !completed;
    peak_active = !peak_active;
    peak_pending = !peak_pending;
    slots = !nslots;
    fallbacks = !fallbacks;
  }

type ack_policy =
  | Immediate
  | Delayed of { count : int; timeout : float }
  | Aggregate of { period : float }

type flow_spec = {
  cca : Cca.t;
  start_time : float;
  extra_rm : float;
  jitter : Jitter.policy;
  jitter_bound : float;
  ack_policy : ack_policy;
  loss_rate : float;
  mss : int;
  initial_pacing : float option;
  record_series : bool;
  size_bytes : int option;
}

(* Per-flow checks, shared by [flow] and [config] (a spec may also be
   built or edited with record syntax).  Every test is written so that
   NaN fails it. *)
let check_flow_spec fn f =
  let fail field what =
    invalid_arg (Printf.sprintf "%s: %s %s" fn field what)
  in
  if not (Float.is_finite f.start_time) then fail "start_time" "must be finite";
  if not (Float.is_finite f.extra_rm && f.extra_rm >= 0.) then
    fail "extra_rm" "must be finite and >= 0";
  if not (f.jitter_bound >= 0.) then fail "jitter_bound" "must be >= 0";
  (match f.ack_policy with
  | Immediate -> ()
  | Delayed { count; timeout } ->
      if count < 1 then fail "ack_policy" "Delayed count must be >= 1";
      if not (timeout > 0.) then
        fail "ack_policy" "Delayed timeout must be positive"
  | Aggregate { period } ->
      if not (period > 0.) then
        fail "ack_policy" "Aggregate period must be positive");
  if not (f.loss_rate >= 0. && f.loss_rate < 1.) then
    fail "loss_rate" "must be in [0, 1)";
  if f.mss <= 0 then fail "mss" "must be positive";
  (match f.initial_pacing with
  | Some r when not (Float.is_finite r && r > 0.) ->
      fail "initial_pacing" "must be finite and positive"
  | Some _ | None -> ());
  match f.size_bytes with
  | Some sz when sz <= 0 -> fail "size_bytes" "must be positive"
  | Some _ | None -> ()

let flow ?(start_time = 0.) ?(extra_rm = 0.) ?(jitter = Jitter.No_jitter)
    ?(jitter_bound = infinity) ?(ack_policy = Immediate) ?(loss_rate = 0.)
    ?(mss = Cca.default_mss) ?initial_pacing ?(record_series = true) ?size_bytes
    cca =
  let f =
    {
      cca;
      start_time;
      extra_rm;
      jitter;
      jitter_bound;
      ack_policy;
      loss_rate;
      mss;
      initial_pacing;
      record_series;
      size_bytes;
    }
  in
  check_flow_spec "Network.flow" f;
  f

type config = {
  rate : Link.rate;
  buffer : int option;
  ecn_threshold : int option;
  discipline : Link.discipline;
  rm : float;
  flows : flow_spec list;
  t0 : float;
  duration : float;
  seed : int;
  record_queue : bool;
  initial_queue_bytes : int;
  faults : Fault.plan;
  monitor_period : float option;
}

let config ~rate ?buffer ?ecn_threshold ?(discipline = Link.Fifo) ~rm
    ?(seed = 42) ?(record_queue = false) ?(initial_queue_bytes = 0) ?(t0 = 0.)
    ?(faults = Fault.none) ?monitor_period ~duration flows =
  let fail field what =
    invalid_arg (Printf.sprintf "Network.config: %s %s" field what)
  in
  if flows = [] then fail "flows" "must hold at least one flow";
  (match buffer with
  | Some b when b < 0 -> fail "buffer" "must be >= 0"
  | Some _ | None -> ());
  (match ecn_threshold with
  | Some th when th < 0 -> fail "ecn_threshold" "must be >= 0"
  | Some _ | None -> ());
  (match rate with
  | Link.Constant r when not (Float.is_finite r && r > 0.) ->
      fail "rate" "Constant rate must be finite and positive"
  | Link.Constant _ | Link.Piecewise _ -> ());
  if not (Float.is_finite duration && duration > 0.) then
    fail "duration" "must be finite and positive";
  if not (Float.is_finite rm && rm >= 0.) then
    fail "rm" "must be finite and >= 0";
  if not (Float.is_finite t0) then fail "t0" "must be finite";
  if initial_queue_bytes < 0 then fail "initial_queue_bytes" "must be >= 0";
  (match monitor_period with
  | Some p when not (p > 0.) -> fail "monitor_period" "must be positive"
  | Some _ | None -> ());
  List.iter (check_flow_spec "Network.config") flows;
  { rate; buffer; ecn_threshold; discipline; rm; flows; t0; duration; seed;
    record_queue; initial_queue_bytes; faults; monitor_period }

(* Per-flow delayed-ACK accumulator.  [count] mirrors the length of
   [held] so the per-delivery policy check is O(1) instead of two
   [List.length] walks per delivery; [timeout_h] is a preallocated,
   cancellable timer slot. *)
type delack_state = {
  mutable held : Packet.delivery list; (* newest first *)
  mutable count : int;
  timeout_h : Event_queue.handle;
}

(* Per-flow ACK return path: a delay line of single packets for
   immediate/aggregate ACKs (no delivery records or lists), or of
   oldest-first delivery batches, and their accumulator, for delayed
   ACKs. *)
type ack_path =
  | Fast of Packet.t Delay_line.t
  | Batched of Packet.delivery list Delay_line.t * delack_state

(* A spawned flow's slot is [Retired] from its completion until the last
   packet the link admitted for it has been acked, then [Free] until the
   next {!spawn} takes it.  Configured flows stay [Active]. *)
type slot_state = Active | Retired | Free

(* One flow slot: the flow and everything on its path that is its own.
   A spawned slot hosts a new flow incarnation each time it is recycled,
   so [inst], [jitter] and [on_complete] change with the incarnation;
   the counters are cumulative over the slot's incarnations. *)
type slot = {
  id : int; (* [Flow.id flow], [Packet.flow] of its packets *)
  flow : Flow.t;
  mutable inst : Cca.instance;
  mutable jitter : Jitter.t;
  loss_rng : Rng.t;
  loss_rate : float;
  ack_policy : ack_policy;
  prop : float; (* [rm + extra_rm] *)
  data_line : Packet.t Delay_line.t; (* shared by every slot with [prop] *)
  ack : ack_path;
  mutable unacked : int; (* packets the link admitted, not yet acked *)
  mutable in_prop : int; (* packets between link dequeue and receiver *)
  mutable random_losses : int;
  mutable received_bytes : int;
  mutable state : slot_state;
  mutable on_complete : Flow.t -> unit;
}

type t = {
  cfg : config;
  eq : Event_queue.t;
  link : Link.t;
  effective_rate : Link.rate;
  table : Flow.Table.t;
  faults : Fault.t option;
  spawn_rng : Rng.t; (* the loss stream of spawned flows, which lose nothing *)
  (* The growable slot table; entries at [nslots] and beyond are filler. *)
  mutable slots : slot array;
  mutable nslots : int;
  mutable free : int list; (* [Free] slot ids, the last freed first *)
  (* One post-bottleneck data line per distinct propagation delay,
     newest first. *)
  mutable lines : (float * Packet.t Delay_line.t) list;
  mutable invariant : Invariant.t option;
  mutable audit : unit -> unit;
}

let event_queue t = t.eq
let link t = t.link
let slots t = Array.sub t.slots 0 t.nslots
let flows t = Array.map (fun s -> s.flow) (slots t)
let jitters t = Array.map (fun s -> s.jitter) (slots t)
let random_losses t = Array.map (fun s -> s.random_losses) (slots t)
let received_bytes t = Array.map (fun s -> s.received_bytes) (slots t)

let propagating_bytes t =
  Array.map (fun s -> Flow.mss s.flow * s.in_prop) (slots t)

let invariant t = t.invariant

let delay_line_fallbacks t =
  let acc = ref 0 in
  List.iter (fun (_, l) -> acc := !acc + Delay_line.fallbacks l) t.lines;
  for i = 0 to t.nslots - 1 do
    match t.slots.(i).ack with
    | Fast l -> acc := !acc + Delay_line.fallbacks l
    | Batched (l, _) -> acc := !acc + Delay_line.fallbacks l
  done;
  !acc

let fault_data_drops t =
  match t.faults with
  | Some f -> Fault.data_drops f
  | None -> Array.make t.nslots 0

let fault_ack_drops t =
  match t.faults with
  | Some f -> Fault.ack_drops f
  | None -> Array.make t.nslots 0

let phantom_flow_id = -1

(* --- The data and ACK paths ---------------------------------------------- *)

(* Sender-side transmit hook: random loss, then bursty fault loss,
   then the bottleneck. *)
let transmit t s pkt =
  let p = s.loss_rate in
  if p > 0. && Rng.bool s.loss_rng ~p then
    s.random_losses <- s.random_losses + 1
  else if
    match t.faults with
    | Some f -> Fault.data_drop f ~flow:s.id ~now:(Event_queue.now t.eq)
    | None -> false
  then ()
  else
    match Link.enqueue t.link pkt with
    | `Enqueued -> s.unacked <- s.unacked + 1
    | `Dropped -> ()

let[@inline] ack_dropped t s ~arrival =
  match t.faults with
  | Some f -> Fault.ack_drop f ~flow:s.id ~now:arrival
  | None -> false

(* Single-packet release: the immediate/aggregate hot path.  No
   delivery record, batch list, closure or per-packet heap entry.
   Release times out of the jitter element are monotone per flow (it
   clamps to [last_release]), so each flow needs only one pending
   event: a delay line. *)
let[@inline] release_single t s line pkt ~arrival =
  if not (ack_dropped t s ~arrival) then
    Delay_line.push line
      ~due:
        (Jitter.release_at s.jitter ~flow:s.id ~arrival
           ~sent:pkt.Packet.sent_at)
      pkt

let release_batch t s line (batch : Packet.delivery list) ~arrival =
  match batch with
  | [] -> ()
  | _ when ack_dropped t s ~arrival ->
      (* ACK blackhole: the whole batch vanishes on the return path. *)
      ()
  | _ ->
      let newest_sent =
        List.fold_left (fun acc (d : Packet.delivery) ->
            Float.max acc d.packet.Packet.sent_at)
          neg_infinity batch
      in
      let release =
        Jitter.release_at s.jitter ~flow:s.id ~arrival ~sent:newest_sent
      in
      Delay_line.push line ~due:release (List.rev batch)

let flush_delack t s line st ~arrival =
  Event_queue.cancel t.eq st.timeout_h;
  let batch = st.held in
  st.held <- [];
  st.count <- 0;
  release_batch t s line batch ~arrival

(* Receiver: the ACK policy, then the jitter element. *)
let on_delivery t s pkt =
  let delivered_at = Event_queue.now t.eq in
  match (s.ack_policy, s.ack) with
  | Immediate, Fast line -> release_single t s line pkt ~arrival:delivered_at
  | Delayed { count; timeout }, Batched (line, st) ->
      st.held <- { Packet.packet = pkt; delivered_at } :: st.held;
      st.count <- st.count + 1;
      if st.count >= count then flush_delack t s line st ~arrival:delivered_at
      else if st.count = 1 then
        Event_queue.schedule_handle t.eq st.timeout_h
          ~at:(delivered_at +. timeout)
  | Aggregate { period }, Fast line ->
      let slot = Float.ceil (delivered_at /. period -. 1e-9) *. period in
      release_single t s line pkt ~arrival:(Float.max slot delivered_at)
  | (Immediate | Aggregate _), Batched _ | Delayed _, Fast _ -> assert false

(* A spawned slot goes back on the free stack once its flow has
   completed and every packet the link admitted for it has been acked,
   so no packet of the old incarnation can reach the new one. *)
let maybe_free t s =
  if s.state = Retired && s.unacked = 0 then begin
    s.state <- Free;
    t.free <- s.id :: t.free
  end

(* A packet leaves [unacked] before the flow sees its ACK: if this ACK
   completes the flow, the completion's [maybe_free] must already see
   the count at 0. *)
let deliver_ack t s pkt =
  s.unacked <- s.unacked - 1;
  Flow.receive_ack_one s.flow pkt;
  maybe_free t s

let deliver_batch t s oldest_first =
  s.unacked <- s.unacked - List.length oldest_first;
  Flow.receive_ack s.flow oldest_first;
  maybe_free t s

let retire t s =
  s.on_complete s.flow;
  s.state <- Retired;
  maybe_free t s

(* Data path after the bottleneck: propagation, then the receiver.  The
   bottleneck serves one packet at a time, so dequeue times are monotone
   and, for one propagation delay, [dequeue + prop] is a monotone
   delivery schedule: one delay line per distinct delay carries every
   flow's packets and dispatches on [Packet.flow]. *)
let data_line_for t prop =
  match List.find_opt (fun (p, _) -> Float.equal p prop) t.lines with
  | Some (_, line) -> line
  | None ->
      let line =
        Delay_line.create ~eq:t.eq ~dummy:Packet.dummy (fun pkt ->
            let s = t.slots.(pkt.Packet.flow) in
            s.in_prop <- s.in_prop - 1;
            s.received_bytes <- s.received_bytes + pkt.Packet.size;
            on_delivery t s pkt)
      in
      t.lines <- (prop, line) :: t.lines;
      line

(* --- Adding flows -------------------------------------------------------- *)

(* The one way a flow enters a network: a configured flow at build, a
   spawned one at its arrival.  [reuse] is a [Free] slot to reincarnate
   ({!Flow.respawn} keeps its flow, table row, rings, ACK line and
   handles); otherwise the flow gets a new slot.  [on_complete] is [None]
   for configured flows, whose slots are never recycled.  A free slot's
   ACK line has delivered its last ACK, at or before now, and every
   release of the new flow is at or after now, so the line stays
   monotone across incarnations. *)
let add_flow t ~reuse ~inst ~jitter ~loss_rng ~on_complete spec =
  match reuse with
  | Some s ->
      s.inst <- inst;
      s.jitter <- jitter;
      Flow.respawn s.flow ~cca:spec.cca ~start_time:spec.start_time
        ?size_bytes:spec.size_bytes ();
      s.on_complete <- Option.value on_complete ~default:ignore;
      s.state <- Active;
      s.flow
  | None ->
      let id = t.nslots in
      let slot () = t.slots.(id) in
      let ack =
        match spec.ack_policy with
        | Immediate | Aggregate _ ->
            Fast
              (Delay_line.create ~eq:t.eq ~dummy:Packet.dummy (fun pkt ->
                   deliver_ack t (slot ()) pkt))
        | Delayed _ ->
            let st =
              { held = []; count = 0; timeout_h = Event_queue.handle ignore }
            in
            let line =
              Delay_line.create ~eq:t.eq ~dummy:[] (fun oldest_first ->
                  deliver_batch t (slot ()) oldest_first)
            in
            Event_queue.set_action st.timeout_h (fun () ->
                if st.held <> [] then
                  flush_delack t (slot ()) line st
                    ~arrival:(Event_queue.now t.eq));
            Batched (line, st)
      in
      let prop = t.cfg.rm +. spec.extra_rm in
      let data_line = data_line_for t prop in
      let flow =
        Flow.create ~eq:t.eq ~id ~cca:spec.cca ~mss:spec.mss
          ~start_time:(Float.max spec.start_time t.cfg.t0)
          ?initial_pacing:spec.initial_pacing
          ~record_series:spec.record_series ~table:t.table
          ?size_bytes:spec.size_bytes
          ?on_complete:
            (Option.map (fun _ () -> retire t (slot ())) on_complete)
          ~transmit:(fun pkt -> transmit t (slot ()) pkt)
          ()
      in
      let s =
        {
          id;
          flow;
          inst;
          jitter;
          loss_rng;
          loss_rate = spec.loss_rate;
          ack_policy = spec.ack_policy;
          prop;
          data_line;
          ack;
          unacked = 0;
          in_prop = 0;
          random_losses = 0;
          received_bytes = 0;
          state = Active;
          on_complete = Option.value on_complete ~default:ignore;
        }
      in
      if id = Array.length t.slots then begin
        let b = Array.make (max 16 (2 * id)) s in
        Array.blit t.slots 0 b 0 id;
        t.slots <- b
      end;
      t.slots.(id) <- s;
      t.nslots <- id + 1;
      flow

let spawn t ~cca ~jitter ~mss ~size_bytes ~on_complete =
  if Option.is_some t.faults then
    invalid_arg "Network.spawn: the network has a fault plan";
  if Option.is_some t.invariant then
    invalid_arg "Network.spawn: the network has an invariant monitor";
  if mss <= 0 then invalid_arg "Network.spawn: mss must be positive";
  if size_bytes <= 0 then
    invalid_arg "Network.spawn: size_bytes must be positive";
  let reuse, inst =
    match t.free with
    | [] -> (None, cca ~slot:t.nslots ~prev:None)
    | id :: rest ->
        let s = t.slots.(id) in
        if Flow.mss s.flow <> mss then
          invalid_arg "Network.spawn: mss differs from the recycled slot's";
        t.free <- rest;
        let next = cca ~slot:id ~prev:(Some s.inst) in
        if next != s.inst then s.inst.Cca.release ();
        (Some s, next)
  in
  add_flow t ~reuse ~inst ~jitter ~loss_rng:t.spawn_rng
    ~on_complete:(Some on_complete)
    (flow ~start_time:(Event_queue.now t.eq) ~mss ~record_series:false
       ~size_bytes inst.Cca.cca)

(* --- Building ------------------------------------------------------------ *)

(* Runtime invariant monitor: a periodic audit of the simulator's own
   conservation laws.  Opt-in ([monitor_period]) because the theorem
   machinery intentionally drives the jitter element into clamping.
   [queue_mark] is shared with the buffer-resize events (see [build]). *)
let monitor t ~queue_mark =
  let eq = t.eq and link = t.link in
  let inv = Invariant.create () in
  let prev_now = ref t.cfg.t0 in
  let prev_jitter = Array.make t.nslots 0 in
  let audit () =
    let now = Event_queue.now eq in
    let slots = slots t in
    Invariant.check inv ~time:now ~name:"clock-monotonic"
      ~detail:(fun () ->
        Printf.sprintf "clock moved backwards: %.9f -> %.9f" !prev_now now)
      (now >= !prev_now);
    prev_now := now;
    let offered = Link.offered_bytes link
    and delivered = Link.delivered_bytes link
    and dropped = Link.dropped_bytes link
    and queued = Link.queued_bytes link in
    (* [offered] already includes the phantom initial-queue bytes:
       they enter through [Link.enqueue] like any other packet.
       (The seed release added [initial_queue_bytes] on the left —
       a double count that fuzzing flagged on any warm-start
       scenario with the monitor enabled.) *)
    Invariant.check inv ~time:now ~name:"link-conservation"
      ~detail:(fun () ->
        Printf.sprintf
          "offered %d <> delivered %d + dropped %d + queued %d"
          offered delivered dropped queued)
      (offered = delivered + dropped + queued);
    (* Occupancy may exceed the cap only transiently after a buffer
       shrink, and then only while draining: admission control never
       admits above the cap, so the queue can stand above the cap by
       no more than it did at the last audit or, if the cap changed
       since, at the resize. *)
    (match Link.buffer link with
    | None -> ()
    | Some cap ->
        Invariant.check inv ~time:now ~name:"queue-bound"
          ~detail:(fun () ->
            Printf.sprintf "queued %d > buffer %d (%d at the last audit or resize)"
              queued cap !queue_mark)
          (queued <= max cap !queue_mark));
    queue_mark := queued;
    let jitter_delta = ref 0 in
    Array.iteri
      (fun i s ->
        jitter_delta :=
          !jitter_delta + Jitter.violations s.jitter - prev_jitter.(i))
      slots;
    Invariant.check inv ~time:now ~name:"jitter-bound"
      ~detail:(fun () ->
        let parts = ref [] in
        Array.iteri
          (fun i s ->
            let d = Jitter.violations s.jitter - prev_jitter.(i) in
            if d > 0 then
              parts := Printf.sprintf "flow %d x%d" i d :: !parts)
          slots;
        Printf.sprintf "jitter element clamped %d new request(s): %s"
          !jitter_delta
          (String.concat ", " (List.rev !parts)))
      (!jitter_delta = 0);
    Array.iteri (fun i s -> prev_jitter.(i) <- Jitter.violations s.jitter) slots;
    Array.iteri
      (fun i s ->
        let f = s.flow in
        let inflight = Flow.inflight f in
        Invariant.check inv ~time:now ~name:"inflight-nonneg"
          ~detail:(fun () ->
            Printf.sprintf "flow %d inflight %d < 0" i inflight)
          (inflight >= 0);
        let outstanding = Flow.outstanding_bytes f in
        Invariant.check inv ~time:now ~name:"inflight-consistent"
          ~detail:(fun () ->
            Printf.sprintf "flow %d inflight %d <> outstanding %d" i
              inflight outstanding)
          (inflight = outstanding);
        let cca = Flow.cca f in
        let cwnd = cca.Cca.cwnd () in
        Invariant.check inv ~time:now ~name:"cca-sane"
          ~detail:(fun () ->
            Printf.sprintf "flow %d (%s) cwnd = %h" i cca.Cca.name cwnd)
          ((not (Float.is_nan cwnd)) && cwnd >= 0.);
        match cca.Cca.pacing_rate () with
        | None -> ()
        | Some r ->
            Invariant.check inv ~time:now ~name:"cca-sane"
              ~detail:(fun () ->
                Printf.sprintf "flow %d (%s) pacing rate = %h" i
                  cca.Cca.name r)
              ((not (Float.is_nan r)) && r >= 0.))
      slots;
    (* Per-flow byte conservation along the data path.  Every
       counter below is updated synchronously inside an event, and
       the audit is its own event, so these are exact identities —
       any slack is an accounting bug, not timing. *)
    let fault_drops =
      match t.faults with
      | Some f -> Fault.data_drops f
      | None -> [||]
    in
    let sum_offered = ref (Link.offered_bytes_for link ~flow:phantom_flow_id)
    and sum_delivered =
      ref (Link.delivered_bytes_for link ~flow:phantom_flow_id)
    and sum_dropped = ref (Link.dropped_bytes_for link ~flow:phantom_flow_id)
    in
    Array.iteri
      (fun i s ->
        let mss = Flow.mss s.flow in
        let sent = Flow.sent_bytes s.flow in
        let prelink =
          mss
          * (s.random_losses
            + if i < Array.length fault_drops then fault_drops.(i) else 0)
        in
        let offered_i = Link.offered_bytes_for link ~flow:i
        and delivered_i = Link.delivered_bytes_for link ~flow:i
        and dropped_i = Link.dropped_bytes_for link ~flow:i in
        sum_offered := !sum_offered + offered_i;
        sum_delivered := !sum_delivered + delivered_i;
        sum_dropped := !sum_dropped + dropped_i;
        (* Sender to link: every sent byte is dropped pre-link
           (random loss / fault burst, whole packets) or offered. *)
        Invariant.check inv ~time:now ~name:"flow-conservation"
          ~detail:(fun () ->
            Printf.sprintf
              "flow %d sent %d <> pre-link drops %d + offered %d" i sent
              prelink offered_i)
          (sent = prelink + offered_i);
        (* Sender to receiver: bytes still inside the link are
           [offered - delivered - dropped] for this flow; bytes in
           post-bottleneck propagation are its mss-sized packets on
           the shared data line. *)
        let in_link = offered_i - delivered_i - dropped_i in
        let in_prop = mss * s.in_prop in
        Invariant.check inv ~time:now ~name:"path-conservation"
          ~detail:(fun () ->
            Printf.sprintf
              "flow %d sent %d <> pre-link %d + link drops %d + \
               in-link %d + propagating %d + received %d"
              i sent prelink dropped_i in_link in_prop s.received_bytes)
          (sent = prelink + dropped_i + in_link + in_prop + s.received_bytes))
      slots;
    (* The per-flow slices must tile the aggregate counters. *)
    Invariant.check inv ~time:now ~name:"link-flow-conservation"
      ~detail:(fun () ->
        Printf.sprintf
          "per-flow sums offered %d / delivered %d / dropped %d <> \
           aggregates %d / %d / %d"
          !sum_offered !sum_delivered !sum_dropped offered delivered
          dropped)
      (!sum_offered = offered
      && !sum_delivered = delivered
      && !sum_dropped = dropped)
  in
  (inv, audit)

let build cfg =
  let eq = Event_queue.create ~start:cfg.t0 () in
  let master_rng = Rng.create ~seed:cfg.seed in
  let effective_rate = Fault.compile_rate cfg.faults cfg.rate in
  let link = Link.create ~eq ~rate:effective_rate ?buffer:cfg.buffer
      ?ecn_threshold:cfg.ecn_threshold ~discipline:cfg.discipline
      ~record_queue:cfg.record_queue () in
  let specs = Array.of_list cfg.flows in
  let n = Array.length specs in
  let jitters =
    Array.map
      (fun spec -> Jitter.create ~bound:spec.jitter_bound ~rng:(Rng.split master_rng) spec.jitter)
      specs
  in
  let loss_rngs = Array.map (fun _ -> Rng.split master_rng) specs in
  (* Fault streams split last so fault-free runs stay bit-identical to
     builds that predate the fault layer. *)
  let faults =
    if Fault.is_empty cfg.faults then None
    else Some (Fault.instantiate cfg.faults ~nflows:n ~rng:(Rng.split master_rng))
  in
  let t =
    {
      cfg;
      eq;
      link;
      effective_rate;
      table = Flow.Table.create ~capacity:n ();
      faults;
      spawn_rng = master_rng;
      slots = [||];
      nslots = 0;
      free = [];
      lines = [];
      invariant = None;
      audit = ignore;
    }
  in
  Link.set_on_dequeue link (fun pkt ->
      if pkt.Packet.flow <> phantom_flow_id then begin
        let s = t.slots.(pkt.Packet.flow) in
        s.in_prop <- s.in_prop + 1;
        Delay_line.push s.data_line ~due:(Event_queue.now eq +. s.prop) pkt
      end);
  Array.iteri
    (fun i spec ->
      ignore
        (add_flow t ~reuse:None ~inst:(Cca.instance_of spec.cca)
           ~jitter:jitters.(i) ~loss_rng:loss_rngs.(i) ~on_complete:None spec))
    specs;

  (* Phantom initial queue: sets d*(0) without generating ACKs. *)
  if cfg.initial_queue_bytes > 0 then begin
    let mss = Cca.default_mss in
    let remaining = ref cfg.initial_queue_bytes in
    while !remaining > 0 do
      let size = min mss !remaining in
      remaining := !remaining - size;
      ignore
        (Link.enqueue link
           {
             Packet.flow = phantom_flow_id;
             seq = 0;
             size;
             sent_at = 0.;
             delivered_at_send = 0;
             app_limited = false;
             ce = false;
           })
    done
  end;

  (* Mid-run buffer renegotiations from the fault plan.  [queue_mark] is
     the occupancy at the last audit or resize, whichever came later: the
     most the audit's queue-bound check may allow above the cap.  A
     resize must set it, because the queue may have grown without bound
     since the last audit. *)
  let queue_mark = ref (Link.queued_bytes link) in
  List.iter
    (fun (at, buf) ->
      Event_queue.schedule eq ~at:(Float.max at cfg.t0) (fun () ->
          queue_mark := Link.queued_bytes link;
          Link.set_buffer link buf))
    (Fault.buffer_events cfg.faults);

  (* The monitor rides the scheduler's step hook rather than a recurring
     heap event: the event heap is tiny (~6-14 pending) and extremely hot,
     so one extra resident slot deepens every sift path and costs ~10%
     wall clock, while a hook branch is free when unused.  The audit runs
     at the first event at or after each period boundary; several missed
     boundaries collapse into one audit (the checks are state identities,
     not per-interval deltas, so skipping an idle boundary loses nothing). *)
  (match cfg.monitor_period with
  | None -> ()
  | Some period ->
      let inv, audit = monitor t ~queue_mark in
      t.invariant <- Some inv;
      t.audit <- audit;
      let due = ref cfg.t0 in
      Event_queue.set_step_hook eq
        (Some
           (fun now ->
             if now >= !due then begin
               audit ();
               let k = Float.of_int (int_of_float ((now -. cfg.t0) /. period)) +. 1. in
               due := cfg.t0 +. (k *. period)
             end)));
  t

let now t = Event_queue.now t.eq
let horizon t = t.cfg.t0 +. t.cfg.duration
let config_of t = t.cfg

(* --- State hash ----------------------------------------------------------- *)

let state_hash t =
  Digest.to_hex (Digest.string (Marshal.to_string t [ Marshal.Closures ]))

(* --- Running ------------------------------------------------------------- *)

let run_to t time =
  if Float.is_nan time then invalid_arg "Network.run_to: time is NaN";
  Event_queue.run_until t.eq (Float.min time (horizon t))

let run t =
  Event_queue.run_until t.eq (horizon t);
  t.audit ();
  t

let run_config cfg = run (build cfg)

let throughput t ~flow ~t0 ~t1 =
  if flow < 0 || flow >= t.nslots then
    invalid_arg "Network.throughput: no such flow";
  Flow.throughput t.slots.(flow).flow ~t0 ~t1

let throughputs t ?(warmup_frac = 0.25) () =
  let t1 = t.cfg.t0 +. t.cfg.duration in
  let t0 = t.cfg.t0 +. (warmup_frac *. t.cfg.duration) in
  Array.map (fun f -> Flow.throughput f ~t0 ~t1) (flows t)

let goodputs t =
  let horizon = t.cfg.t0 +. t.cfg.duration in
  Array.map (fun f -> Flow.goodput f ~horizon) (flows t)

let utilization t ?(warmup_frac = 0.25) () =
  let xs = throughputs t ~warmup_frac () in
  let total = Array.fold_left ( +. ) 0. xs in
  let t1 = t.cfg.t0 +. t.cfg.duration
  and t0 = t.cfg.t0 +. (warmup_frac *. t.cfg.duration) in
  (* Rate with fault blackouts / renegotiations folded in: the exact
     time-average of the (piecewise-constant) rate over the window. *)
  let mean_rate = Link.mean_rate t.effective_rate ~t0 ~t1 in
  if mean_rate <= 0. then 0. else total /. mean_rate

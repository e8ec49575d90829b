type ack_policy =
  | Immediate
  | Delayed of { count : int; timeout : float }
  | Aggregate of { period : float }

type flow_spec = {
  cca : Cca.t;
  start_time : float;
  stop_time : float option;
  extra_rm : float;
  jitter : Jitter.policy;
  jitter_bound : float;
  ack_policy : ack_policy;
  loss_rate : float;
  mss : int;
  initial_pacing : float option;
  inspect_period : float option;
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
  (match f.stop_time with
  | Some st when not (st > f.start_time) ->
      fail "stop_time" "must be after start_time"
  | Some _ | None -> ());
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
  (match f.inspect_period with
  | Some p when not (Float.is_finite p && p > 0.) ->
      fail "inspect_period" "must be finite and positive"
  | Some _ | None -> ());
  match f.size_bytes with
  | Some sz when sz <= 0 -> fail "size_bytes" "must be positive"
  | Some _ | None -> ()

let flow ?(start_time = 0.) ?stop_time ?(extra_rm = 0.) ?(jitter = Jitter.No_jitter)
    ?(jitter_bound = infinity) ?(ack_policy = Immediate) ?(loss_rate = 0.)
    ?(mss = Cca.default_mss) ?initial_pacing ?inspect_period
    ?(record_series = true) ?size_bytes cca =
  let f =
    {
      cca;
      start_time;
      stop_time;
      extra_rm;
      jitter;
      jitter_bound;
      ack_policy;
      loss_rate;
      mss;
      initial_pacing;
      inspect_period;
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
  aqm : Aqm.t option;
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

let config ~rate ?buffer ?ecn_threshold ?aqm ?(discipline = Link.Fifo) ~rm
    ?(seed = 42) ?(record_queue = false) ?(initial_queue_bytes = 0) ?(t0 = 0.)
    ?(faults = Fault.none) ?monitor_period ~duration flows =
  let fail field what =
    invalid_arg (Printf.sprintf "Network.config: %s %s" field what)
  in
  if flows = [] then fail "flows" "must hold at least one flow";
  (match rate with
  | Link.Constant r when not (Float.is_finite r && r > 0.) ->
      fail "rate" "Constant rate must be finite and positive"
  | Link.Constant _ | Link.Piecewise _ | Link.Opportunities _ -> ());
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
  { rate; buffer; ecn_threshold; aqm; discipline; rm; flows; t0; duration; seed;
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
   oldest-first delivery batches for delayed ACKs. *)
type ack_path =
  | Fast of Packet.t Delay_line.t
  | Batched of Packet.delivery list Delay_line.t

type t = {
  cfg : config;
  eq : Event_queue.t;
  link : Link.t;
  effective_rate : Link.rate;
  flows : Flow.t array;
  jitters : Jitter.t array;
  loss_rngs : Rng.t array;
  data_lines : Packet.t Delay_line.t array;
  ack_paths : ack_path array;
  delacks : delack_state array;
  random_losses : int array;
  received_bytes : int array;
  faults : Fault.t option;
  invariant : Invariant.t option;
  audit : unit -> unit;
  mutable ran : bool;
}

let event_queue t = t.eq
let link t = t.link
let flows t = t.flows
let jitters t = t.jitters
let random_losses t = t.random_losses
let received_bytes t = Array.copy t.received_bytes

let propagating_bytes t =
  Array.mapi
    (fun i line -> Flow.mss t.flows.(i) * Delay_line.length line)
    t.data_lines
let invariant t = t.invariant

let delay_line_fallbacks t =
  let acc = ref 0 in
  Array.iter (fun l -> acc := !acc + Delay_line.fallbacks l) t.data_lines;
  Array.iter
    (function
      | Fast l -> acc := !acc + Delay_line.fallbacks l
      | Batched l -> acc := !acc + Delay_line.fallbacks l)
    t.ack_paths;
  !acc

let fault_data_drops t =
  match t.faults with
  | Some f -> Fault.data_drops f
  | None -> Array.make (Array.length t.flows) 0

let fault_ack_drops t =
  match t.faults with
  | Some f -> Fault.ack_drops f
  | None -> Array.make (Array.length t.flows) 0

let phantom_flow_id = -1

let build cfg =
  let eq = Event_queue.create ~start:cfg.t0 () in
  let master_rng = Rng.create ~seed:cfg.seed in
  let effective_rate = Fault.compile_rate cfg.faults cfg.rate in
  let link = Link.create ~eq ~rate:effective_rate ?buffer:cfg.buffer
      ?ecn_threshold:cfg.ecn_threshold ?aqm:cfg.aqm ~discipline:cfg.discipline
      ~record_queue:cfg.record_queue () in
  let n = List.length cfg.flows in
  let specs = Array.of_list cfg.flows in
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
  let random_losses = Array.make n 0 in
  let received_bytes = Array.make n 0 in
  let flows = Array.make n None in
  let delacks =
    Array.map
      (fun _ -> { held = []; count = 0; timeout_h = Event_queue.handle ignore })
      specs
  in
  let get_flow i = match flows.(i) with Some f -> f | None -> assert false in

  (* ACK path: policy then jitter then sender.  Release times out of the
     jitter element are monotone per flow (it clamps to [last_release]),
     so each flow needs only one pending event: a delay line. *)
  let ack_paths =
    Array.init n (fun i ->
        match specs.(i).ack_policy with
        | Immediate | Aggregate _ ->
            Fast
              (Delay_line.create ~eq ~dummy:Packet.dummy (fun pkt ->
                   Flow.receive_ack_one (get_flow i) pkt))
        | Delayed _ ->
            Batched
              (Delay_line.create ~eq ~dummy:[] (fun oldest_first ->
                   Flow.receive_ack (get_flow i) oldest_first)))
  in
  let ack_dropped i ~arrival =
    match faults with
    | Some f -> Fault.ack_drop f ~flow:i ~now:arrival
    | None -> false
  in
  (* Single-packet release: the immediate/aggregate hot path.  No
     delivery record, batch list, closure or per-packet heap entry. *)
  let release_single i pkt ~arrival =
    if not (ack_dropped i ~arrival) then begin
      let release =
        Jitter.release_at jitters.(i) ~flow:i ~arrival
          ~sent:pkt.Packet.sent_at
      in
      match ack_paths.(i) with
      | Fast line -> Delay_line.push line ~due:release pkt
      | Batched _ -> assert false
    end
  in
  let release_batch i (batch : Packet.delivery list) ~arrival =
    match batch with
    | [] -> ()
    | _ when ack_dropped i ~arrival ->
        (* ACK blackhole: the whole batch vanishes on the return path. *)
        ()
    | _ ->
        let newest_sent =
          List.fold_left (fun acc (d : Packet.delivery) ->
              Float.max acc d.packet.Packet.sent_at)
            neg_infinity batch
        in
        let release =
          Jitter.release_at jitters.(i) ~flow:i ~arrival ~sent:newest_sent
        in
        let oldest_first = List.rev batch in
        (match ack_paths.(i) with
        | Batched line -> Delay_line.push line ~due:release oldest_first
        | Fast _ -> assert false)
  in
  let flush_delack i ~arrival =
    let st = delacks.(i) in
    Event_queue.cancel eq st.timeout_h;
    let batch = st.held in
    st.held <- [];
    st.count <- 0;
    release_batch i batch ~arrival
  in
  Array.iteri
    (fun i st ->
      Event_queue.set_action st.timeout_h (fun () ->
          if st.held <> [] then flush_delack i ~arrival:(Event_queue.now eq)))
    delacks;
  let on_delivery i pkt ~delivered_at =
    match specs.(i).ack_policy with
    | Immediate -> release_single i pkt ~arrival:delivered_at
    | Delayed { count; timeout } ->
        let st = delacks.(i) in
        st.held <- { Packet.packet = pkt; delivered_at } :: st.held;
        st.count <- st.count + 1;
        if st.count >= count then flush_delack i ~arrival:delivered_at
        else if st.count = 1 then
          Event_queue.schedule_handle eq st.timeout_h
            ~at:(delivered_at +. timeout)
    | Aggregate { period } ->
        let slot = Float.ceil (delivered_at /. period -. 1e-9) *. period in
        release_single i pkt ~arrival:(Float.max slot delivered_at)
  in

  (* Data path after the bottleneck: per-flow propagation, then receiver.
     The bottleneck is FIFO, so per-flow dequeue times are monotone and
     [dequeue + prop] is a monotone delivery schedule — one delay line
     per flow replaces the per-packet propagation events. *)
  let data_lines =
    Array.init n (fun i ->
        Delay_line.create ~eq ~dummy:Packet.dummy (fun pkt ->
            received_bytes.(i) <- received_bytes.(i) + pkt.Packet.size;
            on_delivery i pkt ~delivered_at:(Event_queue.now eq)))
  in
  let props = Array.map (fun spec -> cfg.rm +. spec.extra_rm) specs in
  Link.set_on_dequeue link (fun pkt ->
      let i = pkt.Packet.flow in
      if i <> phantom_flow_id then
        Delay_line.push data_lines.(i)
          ~due:(Event_queue.now eq +. props.(i))
          pkt);

  (* Sender-side transmit hook: random loss, then bursty fault loss,
     then the bottleneck. *)
  let transmit i pkt =
    let p = specs.(i).loss_rate in
    if p > 0. && Rng.bool loss_rngs.(i) ~p then
      random_losses.(i) <- random_losses.(i) + 1
    else if
      match faults with
      | Some f -> Fault.data_drop f ~flow:i ~now:(Event_queue.now eq)
      | None -> false
    then ()
    else ignore (Link.enqueue link pkt)
  in
  let table = Flow.Table.create ~capacity:n () in
  Array.iteri
    (fun i spec ->
      flows.(i) <-
        Some
          (Flow.create ~eq ~id:i ~cca:spec.cca ~mss:spec.mss
             ~start_time:(Float.max spec.start_time cfg.t0)
             ?stop_time:spec.stop_time ?initial_pacing:spec.initial_pacing
             ?inspect_period:spec.inspect_period
             ~record_series:spec.record_series ~table
             ?size_bytes:spec.size_bytes ~transmit:(transmit i) ()))
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

  let flows = Array.map (function Some f -> f | None -> assert false) flows in

  (* Runtime invariant monitor: a periodic audit of the simulator's own
     conservation laws.  Opt-in ([monitor_period]) because the theorem
     machinery intentionally drives the jitter element into clamping. *)
  let invariant, audit =
    match cfg.monitor_period with
    | None -> (None, fun () -> ())
    | Some _ ->
        let inv = Invariant.create () in
        let prev_now = ref cfg.t0 in
        let prev_jitter = Array.make (Array.length jitters) 0 in
        let audit () =
          let now = Event_queue.now eq in
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
            (fun i j -> jitter_delta := !jitter_delta + Jitter.violations j - prev_jitter.(i))
            jitters;
          Invariant.check inv ~time:now ~name:"jitter-bound"
            ~detail:(fun () ->
              let parts = ref [] in
              Array.iteri
                (fun i j ->
                  let d = Jitter.violations j - prev_jitter.(i) in
                  if d > 0 then
                    parts := Printf.sprintf "flow %d x%d" i d :: !parts)
                jitters;
              Printf.sprintf "jitter element clamped %d new request(s): %s"
                !jitter_delta
                (String.concat ", " (List.rev !parts)))
            (!jitter_delta = 0);
          Array.iteri (fun i j -> prev_jitter.(i) <- Jitter.violations j) jitters;
          Array.iteri
            (fun i f ->
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
            flows;
          (* Per-flow byte conservation along the data path.  Every
             counter below is updated synchronously inside an event, and
             the audit is its own event, so these are exact identities —
             any slack is an accounting bug, not timing. *)
          let fault_drops =
            match faults with
            | Some f -> Fault.data_drops f
            | None -> [||]
          in
          let sum_offered = ref (Link.offered_bytes_for link ~flow:phantom_flow_id)
          and sum_delivered =
            ref (Link.delivered_bytes_for link ~flow:phantom_flow_id)
          and sum_dropped = ref (Link.dropped_bytes_for link ~flow:phantom_flow_id)
          in
          Array.iteri
            (fun i f ->
              let mss = Flow.mss f in
              let sent = Flow.sent_bytes f in
              let prelink =
                mss
                * (random_losses.(i)
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
                 post-bottleneck propagation are mss-sized packets on the
                 data delay line. *)
              let in_link = offered_i - delivered_i - dropped_i in
              let in_prop = mss * Delay_line.length data_lines.(i) in
              Invariant.check inv ~time:now ~name:"path-conservation"
                ~detail:(fun () ->
                  Printf.sprintf
                    "flow %d sent %d <> pre-link %d + link drops %d + \
                     in-link %d + propagating %d + received %d"
                    i sent prelink dropped_i in_link in_prop
                    received_bytes.(i))
                (sent
                = prelink + dropped_i + in_link + in_prop + received_bytes.(i)))
            flows;
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
        (Some inv, audit)
  in
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
      let due = ref cfg.t0 in
      Event_queue.set_step_hook eq
        (Some
           (fun now ->
             if now >= !due then begin
               audit ();
               let k = Float.of_int (int_of_float ((now -. cfg.t0) /. period)) +. 1. in
               due := cfg.t0 +. (k *. period)
             end)));

  {
    cfg;
    eq;
    link;
    effective_rate;
    flows;
    jitters;
    loss_rngs;
    data_lines;
    ack_paths;
    delacks;
    random_losses;
    received_bytes;
    faults;
    invariant;
    audit;
    ran = false;
  }

let now t = Event_queue.now t.eq
let start_time t = t.cfg.t0
let horizon t = t.cfg.t0 +. t.cfg.duration
let config_of t = t.cfg

(* --- Checkpoint serialization ------------------------------------------- *)

(* One Marshal call over the whole network record.  [Closures] captures
   every CCA, event action and audit closure together with the heap graph
   they share, so mutable-state aliasing (e.g. the delack arrays both in
   the record and in the ACK-path closures) is preserved exactly.  The
   payload is only readable by the producing binary; {!Snapshot} guards
   restores with the executable's digest. *)
let serialize t = Marshal.to_string t [ Marshal.Closures ]
let deserialize s : t = Marshal.from_string s 0

let fold_delivery buf (d : Packet.delivery) =
  Packet.fold_state buf d.Packet.packet;
  Statebuf.f buf d.Packet.delivered_at

let fold_batch buf batch =
  Statebuf.i buf (List.length batch);
  List.iter (fold_delivery buf) batch

(* Named components of the content hash: {!Snapshot.first_divergence}
   reports the first one whose digest differs between two runs. *)
let fingerprint t =
  let base =
    [
      ("event-queue", Statebuf.digest Event_queue.fold_state t.eq);
      ("link", Statebuf.digest Link.fold_state t.link);
    ]
  in
  let per_flow =
    Array.to_list
      (Array.mapi
         (fun i f ->
           (Printf.sprintf "flow%d" i, Statebuf.digest Flow.fold_state f))
         t.flows)
  in
  let rest =
    [
      ( "jitters",
        Statebuf.digest
          (fun buf a -> Array.iter (Jitter.fold_state buf) a)
          t.jitters );
      ( "loss-rngs",
        Statebuf.digest
          (fun buf a -> Array.iter (Rng.fold_state buf) a)
          t.loss_rngs );
      ( "data-lines",
        Statebuf.digest
          (fun buf a ->
            Array.iter (Delay_line.fold_state Packet.fold_state buf) a)
          t.data_lines );
      ( "ack-paths",
        Statebuf.digest
          (fun buf a ->
            Array.iter
              (function
                | Fast l -> Delay_line.fold_state Packet.fold_state buf l
                | Batched l -> Delay_line.fold_state fold_batch buf l)
              a)
          t.ack_paths );
      ( "delacks",
        Statebuf.digest
          (fun buf a ->
            Array.iter
              (fun st ->
                Statebuf.i buf st.count;
                fold_batch buf st.held)
              a)
          t.delacks );
      ( "random-losses",
        Statebuf.digest
          (fun buf a -> Array.iter (Statebuf.i buf) a)
          t.random_losses );
      ( "received",
        Statebuf.digest
          (fun buf a -> Array.iter (Statebuf.i buf) a)
          t.received_bytes );
      ("faults", Statebuf.digest (Statebuf.opt Fault.fold_state) t.faults);
      ( "invariant",
        Statebuf.digest (Statebuf.opt Invariant.fold_state) t.invariant );
    ]
  in
  base @ per_flow @ rest

let fold_state buf t =
  List.iter
    (fun (name, digest) ->
      Statebuf.s buf name;
      Statebuf.s buf digest)
    (fingerprint t);
  Statebuf.b buf t.ran

let state_hash t = Statebuf.digest fold_state t

(* --- Running ------------------------------------------------------------- *)

let run_to t time =
  if Float.is_nan time then invalid_arg "Network.run_to: time is NaN";
  Event_queue.run_until t.eq (Float.min time (horizon t))
let force_audit t = t.audit ()

let finish t =
  Event_queue.run_until t.eq (horizon t);
  t.audit ();
  t.ran <- true;
  t

(* Split-run mode: every [run] executes to mid-horizon, checkpoints,
   finishes the restored copy AND the original, and fails hard unless
   their full state hashes agree.  Flipping this one switch turns any
   experiment into an end-to-end proof that checkpoint/restore is exact
   for its scenarios.  The *original* is what the caller gets back:
   experiments may legitimately hold aliases into config-embedded
   objects — Theorem 1 re-uses CCA instances warmed on one network
   inside another — and those aliases must see the fully evolved state,
   not a copy's.  A module-level ref — deliberately not part of the
   marshaled state — so `repro --split-run` reaches every network the
   experiment registry builds without threading a flag through each
   experiment. *)
let split_run = ref false
let set_split_run v = split_run := v

let run t =
  if (not !split_run) || t.ran then finish t
  else begin
    run_to t (t.cfg.t0 +. (t.cfg.duration /. 2.));
    let snap = serialize t in
    let copy = finish (deserialize snap) in
    let t = finish t in
    if state_hash copy <> state_hash t then
      failwith
        (Printf.sprintf
           "Network.run (split-run): restored copy diverged from the \
            straight run after the t=%.6f checkpoint"
           (t.cfg.t0 +. (t.cfg.duration /. 2.)));
    t
  end

let run_config cfg = run (build cfg)

let throughput t ~flow ~t0 ~t1 = Flow.throughput t.flows.(flow) ~t0 ~t1

let throughputs t ?(warmup_frac = 0.25) () =
  let t1 = t.cfg.t0 +. t.cfg.duration in
  let t0 = t.cfg.t0 +. (warmup_frac *. t.cfg.duration) in
  Array.map (fun f -> Flow.throughput f ~t0 ~t1) t.flows

let goodputs t =
  let horizon = t.cfg.t0 +. t.cfg.duration in
  Array.map (fun f -> Flow.goodput f ~horizon) t.flows

let utilization t ?(warmup_frac = 0.25) () =
  let xs = throughputs t ~warmup_frac () in
  let total = Array.fold_left ( +. ) 0. xs in
  let t1 = t.cfg.t0 +. t.cfg.duration
  and t0 = t.cfg.t0 +. (warmup_frac *. t.cfg.duration) in
  (* Rate with fault blackouts / renegotiations folded in: the exact
     time-average of the (piecewise-constant) rate over the window. *)
  let mean_rate = Link.mean_rate t.effective_rate ~t0 ~t1 in
  if mean_rate <= 0. then 0. else total /. mean_rate

(* Per-flow hot mutable floats live in structure-of-arrays tables shared
   by every flow of a simulation: OCaml float arrays are flat, so
   assigning an element is an unboxed store (the same discipline the
   packet rings use), and a population of flows keeps its hot state in a
   handful of contiguous arrays instead of one boxed record per flow —
   which is what lets a census run 10^5 concurrent flows without the
   per-flow header/padding overhead dominating memory. *)

module Table = struct
  type t = {
    mutable cap : int;
    mutable n : int;
    mutable next_send_time : float array;
    mutable last_progress : float array; (* last ACK arrival or send start *)
    mutable srtt : float array;
    mutable rttvar : float array;
    mutable done_time : float array; (* completion time; nan = not done *)
    (* Scratch event records passed to the CCA: one allocation per table
       instead of one per flow (let alone per ACK / send).  Safe to share
       across flows because event processing is synchronous — a flow's
       ACK/send handler never reenters another flow's, and the Cca
       contract forbids retaining the record beyond the callback. *)
    ack_scratch : Cca.ack_info;
    send_scratch : Cca.send_info;
  }

  let create ?(capacity = 16) () =
    let capacity = max 1 capacity in
    {
      cap = capacity;
      n = 0;
      next_send_time = Array.make capacity 0.;
      last_progress = Array.make capacity 0.;
      srtt = Array.make capacity 0.;
      rttvar = Array.make capacity 0.;
      done_time = Array.make capacity nan;
      ack_scratch =
        {
          Cca.now = 0.;
          rtt = 0.;
          acked_bytes = 0;
          sent_time = 0.;
          delivered = 0;
          delivered_now = 0;
          inflight = 0;
          app_limited = false;
          ecn_ce = false;
        };
      send_scratch = { Cca.now = 0.; sent_bytes = 0; inflight = 0 };
    }

  let grow t =
    let cap = 2 * t.cap in
    let extend a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 t.n;
      b
    in
    t.next_send_time <- extend t.next_send_time 0.;
    t.last_progress <- extend t.last_progress 0.;
    t.srtt <- extend t.srtt 0.;
    t.rttvar <- extend t.rttvar 0.;
    t.done_time <- extend t.done_time nan;
    t.cap <- cap

  (* Rows past [n] still hold the fill values of [create] and [grow]. *)
  let alloc t ~start_time =
    if t.n = t.cap then grow t;
    let ix = t.n in
    t.n <- ix + 1;
    t.last_progress.(ix) <- start_time;
    ix
end

(* Per-ACK history the analysis layer reads, recorded iff
   [record_series].  Optional as a group: a census flow carries [None]
   and pays one word for the whole block — at 10^5+ concurrent flows
   the series headers per flow were a measurable slice of the
   bytes-per-flow budget. *)
type traces = {
  rtt_series : Series.t;
  cwnd_series : Series.t;
  delivered_series : Series.t;
}

type t = {
  id : int;
  mss : int;
  mutable cca : Cca.t;
  eq : Event_queue.t;
  transmit : Packet.t -> unit;
  mutable start_time : float;
  initial_pacing : float option;
  tbl : Table.t;
  ix : int; (* this flow's row in [tbl] *)
  mutable size_bytes : int option; (* application bytes to send; None = unbounded *)
  mutable seg_limit : int; (* first seq not to send; max_int when unbounded *)
  on_complete : (unit -> unit) option;
  mutable got_first_ack : bool;
  (* Outstanding-segment table: a ring of unboxed arrays indexed by
     [seq land (cap - 1)].  Live seqs are confined to the window
     [min_out, next_seq); as long as the window fits in the (power of
     two) capacity the index mapping is injective, so membership is two
     array reads and insert/remove allocate nothing.  [out_size.(i) = 0]
     means the slot is free.  Rings start tiny (16 slots) and double on
     demand: an idle or low-rate flow never pays for a large window. *)
  mutable out_sent : float array; (* send time *)
  mutable out_size : int array; (* segment bytes; 0 = absent *)
  mutable out_dats : int array; (* delivered counter at send *)
  mutable next_seq : int;
  mutable min_out : int; (* no outstanding seq is below this *)
  mutable inflight : int;
  mutable delivered : int;
  mutable lost : int;
  mutable highest_acked : int; (* largest acked seq; -1 initially *)
  start_h : Event_queue.handle; (* flow start (re-armed by respawn) *)
  send_h : Event_queue.handle; (* paced-send wakeup *)
  timer_h : Event_queue.handle; (* CCA timer *)
  rto_h : Event_queue.handle; (* retransmission-timeout check *)
  mutable running : bool;
  mutable degraded : int; (* insane CCA outputs clamped *)
  mutable stall_probes : int; (* forced probe segments after a stall *)
  traces : traces option;
}

let dupack_threshold = 3
let min_rto = 0.2
let initial_ring = 16

let id t = t.id
let cca t = t.cca
let mss t = t.mss

(* Every segment this sender emits is exactly [mss] bytes (see
   [send_packet]), so the cumulative byte count is derivable from the
   next sequence number — no separate counter to keep consistent. *)
let sent_bytes t = t.next_seq * t.mss

let delivered_bytes t = t.delivered
let lost_bytes t = t.lost
let inflight t = t.inflight

(* Trace accessors degrade gracefully for traceless (census) flows: a
   fresh empty series, not an exception — callers treat "no trace" and
   "no samples" identically. *)
let rtt_series t =
  match t.traces with
  | Some tr -> tr.rtt_series
  | None -> Series.create ~name:(Printf.sprintf "flow%d.rtt" t.id) ()

let degraded_count t = t.degraded
let stall_probes t = t.stall_probes
let completed t = not (Float.is_nan t.tbl.Table.done_time.(t.ix))

let completion_time t =
  let d = t.tbl.Table.done_time.(t.ix) in
  if Float.is_nan d then None else Some d

let outstanding_bytes t =
  let mask = Array.length t.out_size - 1 in
  let acc = ref 0 in
  for seq = t.min_out to t.next_seq - 1 do
    acc := !acc + t.out_size.(seq land mask)
  done;
  !acc

let cwnd_series t =
  match t.traces with
  | Some tr -> tr.cwnd_series
  | None -> Series.create ~name:(Printf.sprintf "flow%d.cwnd" t.id) ()

let delivered_series t =
  match t.traces with
  | Some tr -> tr.delivered_series
  | None -> Series.create ~name:(Printf.sprintf "flow%d.delivered" t.id) ()

let now t = Event_queue.now t.eq

let rto t =
  Float.max min_rto
    (t.tbl.Table.srtt.(t.ix) +. (4. *. t.tbl.Table.rttvar.(t.ix)))

(* --- Outstanding-segment ring ------------------------------------------- *)

(* Double the ring so the live window fits, moving every live slot to its
   index under the new mask.  Called {e before} the new head slot is
   written (see [send_packet]), so the copy loop only ever reads live
   seqs — no slot in [min_out, next_seq) aliases another. *)
let grow_outstanding t =
  let old_mask = Array.length t.out_size - 1 in
  (* Rings start empty ([||]) so an armed-but-never-sending flow costs
     nothing; the first send lands here and allocates the initial 16. *)
  let cap = max initial_ring (2 * Array.length t.out_size) in
  let sent = Array.make cap 0. in
  let size = Array.make cap 0 in
  let dats = Array.make cap 0 in
  for seq = t.min_out to t.next_seq - 1 do
    let i = seq land old_mask in
    if t.out_size.(i) > 0 then begin
      let j = seq land (cap - 1) in
      sent.(j) <- t.out_sent.(i);
      size.(j) <- t.out_size.(i);
      dats.(j) <- t.out_dats.(i)
    end
  done;
  t.out_sent <- sent;
  t.out_size <- size;
  t.out_dats <- dats

(* --- CCA output sanitization -------------------------------------------- *)

(* A buggy or degenerate CCA can emit a NaN or negative window / pacing
   rate.  Rather than corrupting the run (NaN comparisons silently fail
   and wedge the send loop), clamp to a sane value and count it; the
   invariant monitor reports the tally as a [cca-sane] violation. *)

let effective_cwnd t =
  let c = t.cca.Cca.cwnd () in
  if Float.is_nan c || c < 0. then begin
    t.degraded <- t.degraded + 1;
    float_of_int t.mss
  end
  else c

let effective_pacing t =
  match t.cca.Cca.pacing_rate () with
  | Some r when Float.is_finite r && r > 0. -> Some r
  | Some r when Float.is_nan r || r < 0. ->
      t.degraded <- t.degraded + 1;
      if t.got_first_ack then None else t.initial_pacing
  | Some _ | None -> if t.got_first_ack then None else t.initial_pacing

(* --- CCA timer plumbing ------------------------------------------------- *)

(* All three flow timers are preallocated cancellable handles: re-arming
   one writes three array slots and allocates nothing, and a superseded
   deadline moves the existing entry instead of abandoning a dead
   closure in the queue. *)

let rec sync_timer t =
  match t.cca.Cca.next_timer () with
  | None -> ()
  | Some want ->
      let want = Float.max want (now t) in
      if not (Event_queue.scheduled_time t.eq t.timer_h <= want) then
        Event_queue.schedule_handle t.eq t.timer_h ~at:want

and fire_timer t =
  let rec drain guard =
    if guard = 0 then failwith (t.cca.Cca.name ^ ": timer does not advance");
    match t.cca.Cca.next_timer () with
    | Some want when want <= now t ->
        t.cca.Cca.on_timer (now t);
        drain (guard - 1)
    | _ -> ()
  in
  drain 1000;
  maybe_send t;
  sync_timer t

(* --- Completion (sized flows) ------------------------------------------- *)

(* A flow created with [size_bytes] completes once every segment up to
   [seg_limit] has left the outstanding table — acked or declared lost
   (this sender does not retransmit; losses are terminal, as everywhere
   else in the model).  Completion quiesces the flow: all three timers
   are cancelled, so a departed flow costs the scheduler nothing. *)
and maybe_complete t =
  if
    t.seg_limit <> max_int
    && t.next_seq >= t.seg_limit
    && t.inflight = 0
    && Float.is_nan t.tbl.Table.done_time.(t.ix)
  then begin
    t.tbl.Table.done_time.(t.ix) <- now t;
    t.running <- false;
    Event_queue.cancel t.eq t.send_h;
    Event_queue.cancel t.eq t.timer_h;
    Event_queue.cancel t.eq t.rto_h;
    match t.on_complete with None -> () | Some f -> f ()
  end

(* --- Sending ------------------------------------------------------------ *)

and send_packet t =
  let time = now t in
  let seq = t.next_seq in
  let pkt =
    {
      Packet.flow = t.id;
      seq;
      size = t.mss;
      sent_at = time;
      delivered_at_send = t.delivered;
      app_limited = false;
      ce = false;
    }
  in
  (* Grow before writing the head slot: once [seq] joins, the live
     window [min_out, seq] holds [seq + 1 - min_out] seqs, and the ring
     index map is injective only while that fits the capacity. *)
  if seq + 1 - t.min_out > Array.length t.out_size then grow_outstanding t;
  let i = seq land (Array.length t.out_size - 1) in
  t.out_sent.(i) <- time;
  t.out_size.(i) <- t.mss;
  t.out_dats.(i) <- t.delivered;
  t.next_seq <- seq + 1;
  t.inflight <- t.inflight + t.mss;
  t.tbl.Table.last_progress.(t.ix) <- time;
  let sc = t.tbl.Table.send_scratch in
  sc.Cca.now <- time;
  sc.Cca.sent_bytes <- t.mss;
  sc.Cca.inflight <- t.inflight;
  t.cca.Cca.on_send sc;
  t.transmit pkt;
  schedule_rto t

and maybe_send t =
  if t.running && t.next_seq < t.seg_limit then begin
    let cwnd = effective_cwnd t in
    if float_of_int t.inflight +. float_of_int t.mss <= cwnd +. 1e-6 then begin
      let time = now t in
      let nst = t.tbl.Table.next_send_time.(t.ix) in
      if nst <= time +. 1e-12 then begin
        send_packet t;
        let pacing = effective_pacing t in
        (match pacing with
        | Some r when r > 0. ->
            t.tbl.Table.next_send_time.(t.ix) <-
              Float.max time t.tbl.Table.next_send_time.(t.ix)
              +. (float_of_int t.mss /. r)
        | Some _ | None -> t.tbl.Table.next_send_time.(t.ix) <- time);
        maybe_send t
      end
      else if not (Event_queue.scheduled_time t.eq t.send_h <= nst) then
        Event_queue.schedule_handle t.eq t.send_h ~at:nst
    end
  end

(* --- Retransmission timeout -------------------------------------------- *)

and schedule_rto t =
  if not (Event_queue.is_scheduled t.rto_h) then begin
    let deadline =
      Float.max (t.tbl.Table.last_progress.(t.ix) +. rto t) (now t +. 1e-6)
    in
    Event_queue.schedule_handle t.eq t.rto_h ~at:deadline
  end

and check_rto t =
  (* [active]: the flow both wants to make progress and has data left;
     a sized flow that exhausted its segments must neither stall-probe
     nor keep the RTO chain alive for sending's sake. *)
  let active = t.running && t.next_seq < t.seg_limit in
  if t.inflight > 0 || active then begin
    if now t -. t.tbl.Table.last_progress.(t.ix) >= rto t -. 1e-9 then begin
      if t.inflight > 0 then begin
        (* Timeout: declare everything outstanding lost. *)
        let lost_bytes = t.inflight in
        let mask = Array.length t.out_size - 1 in
        let lost_packets = ref [] in
        for seq = t.min_out to t.next_seq - 1 do
          let i = seq land mask in
          if t.out_size.(i) > 0 then begin
            lost_packets := (t.out_sent.(i), t.out_size.(i)) :: !lost_packets;
            t.out_size.(i) <- 0
          end
        done;
        t.min_out <- t.next_seq;
        t.inflight <- 0;
        t.lost <- t.lost + lost_bytes;
        t.tbl.Table.last_progress.(t.ix) <- now t;
        t.cca.Cca.on_loss
          {
            Cca.now = now t;
            lost_bytes;
            lost_packets = !lost_packets;
            inflight = 0;
            kind = `Timeout;
          };
        sync_timer t
      end;
      maybe_send t;
      if t.inflight = 0 && active then begin
        (* Stall probe: a full RTO elapsed with nothing outstanding and
           the CCA's window or pacing gate still refuses to send — e.g.
           the window collapsed below one segment after ACKs vanished in
           a blackout.  Force one segment out so ACK feedback (or the
           next timeout) can restart the control loop instead of
           deadlocking the flow. *)
        t.stall_probes <- t.stall_probes + 1;
        t.tbl.Table.next_send_time.(t.ix) <- now t;
        send_packet t
      end
    end;
    if t.inflight > 0 then schedule_rto t
  end;
  maybe_complete t

let seg_limit_of ~mss size_bytes =
  match size_bytes with
  | None -> max_int
  | Some b ->
      if b <= 0 then invalid_arg "Flow.create: size_bytes must be positive";
      max 1 ((b + mss - 1) / mss)

let create ~eq ~id ~cca ?(mss = Cca.default_mss) ?(start_time = 0.)
    ?initial_pacing ?(record_series = true) ?table ?size_bytes ?on_complete
    ~transmit () =
  let tbl = match table with Some tb -> tb | None -> Table.create ~capacity:1 () in
  let ix = Table.alloc tbl ~start_time in
  let seg_limit = seg_limit_of ~mss size_bytes in
  let traces =
    if record_series then
      Some
        {
          rtt_series = Series.create ~name:(Printf.sprintf "flow%d.rtt" id) ();
          cwnd_series = Series.create ~name:(Printf.sprintf "flow%d.cwnd" id) ();
          delivered_series =
            Series.create ~name:(Printf.sprintf "flow%d.delivered" id) ();
        }
    else None
  in
  let t =
    {
      id;
      mss;
      cca;
      eq;
      transmit;
      start_time;
      initial_pacing;
      tbl;
      ix;
      size_bytes;
      seg_limit;
      on_complete;
      got_first_ack = false;
      out_sent = [||];
      out_size = [||];
      out_dats = [||];
      next_seq = 0;
      min_out = 0;
      inflight = 0;
      delivered = 0;
      lost = 0;
      highest_acked = -1;
      start_h = Event_queue.handle ignore;
      send_h = Event_queue.handle ignore;
      timer_h = Event_queue.handle ignore;
      rto_h = Event_queue.handle ignore;
      running = false;
      degraded = 0;
      stall_probes = 0;
      traces;
    }
  in
  Event_queue.set_action t.send_h (fun () -> maybe_send t);
  Event_queue.set_action t.timer_h (fun () -> fire_timer t);
  Event_queue.set_action t.rto_h (fun () -> check_rto t);
  Event_queue.set_action t.start_h (fun () ->
      t.running <- true;
      t.tbl.Table.next_send_time.(t.ix) <- t.start_time;
      maybe_send t;
      (* Watchdog: if the CCA refused the very first send, the stall
         probe in [check_rto] gets the flow moving after one RTO. *)
      if t.inflight = 0 then schedule_rto t;
      sync_timer t);
  Event_queue.schedule_handle eq t.start_h ~at:start_time;
  t

(* Reincarnate a completed sized flow as a brand-new one, in place: same
   id (and therefore the same [Packet.flow] tag), same table row, same
   rings and handles — zero allocation beyond what the new CCA needed.
   This is the churn discipline of the million-flow census: a slot hosts
   thousands of flows over a run, and the event-operation sequence it
   produces is identical to destroying the flow and [create]ing a fresh
   one (one insert for the start event; the rings are provably all-zero
   at completion, so no clearing is needed — every slot is zeroed when
   its segment is acked or declared lost, and completion requires
   [inflight = 0]). *)
let respawn t ~cca ~start_time ?size_bytes () =
  if not (completed t) then invalid_arg "Flow.respawn: flow has not completed";
  (match t.traces with
  | Some _ ->
      (* Traces would silently concatenate incarnations; a census flow
         never records them, so reject rather than mislead. *)
      invalid_arg "Flow.respawn: flow records traces"
  | None -> ());
  Event_queue.cancel t.eq t.start_h;
  Event_queue.cancel t.eq t.send_h;
  Event_queue.cancel t.eq t.timer_h;
  Event_queue.cancel t.eq t.rto_h;
  t.cca <- cca;
  t.start_time <- start_time;
  t.size_bytes <- size_bytes;
  t.seg_limit <- seg_limit_of ~mss:t.mss size_bytes;
  t.got_first_ack <- false;
  t.next_seq <- 0;
  t.min_out <- 0;
  t.inflight <- 0;
  t.delivered <- 0;
  t.lost <- 0;
  t.highest_acked <- -1;
  t.running <- false;
  t.degraded <- 0;
  t.stall_probes <- 0;
  t.tbl.Table.next_send_time.(t.ix) <- 0.;
  t.tbl.Table.last_progress.(t.ix) <- start_time;
  t.tbl.Table.srtt.(t.ix) <- 0.;
  t.tbl.Table.rttvar.(t.ix) <- 0.;
  t.tbl.Table.done_time.(t.ix) <- nan;
  Event_queue.schedule_handle t.eq t.start_h ~at:start_time

(* Advance the lower bound on outstanding sequence numbers past every
   acked / lost hole.  Each seq is crossed at most once over the flow's
   lifetime, so the amortized cost is O(1) per packet. *)
let advance_min_out t =
  let mask = Array.length t.out_size - 1 in
  while t.min_out < t.next_seq && t.out_size.(t.min_out land mask) = 0 do
    t.min_out <- t.min_out + 1
  done

let detect_losses t =
  (* Packet-threshold loss detection: anything sent more than
     [dupack_threshold] packets before the highest acked packet and still
     outstanding is treated as lost.  [min_out] makes the common no-loss
     case O(1): when every outstanding seq is at or above the threshold
     there is nothing to scan. *)
  let threshold = t.highest_acked - dupack_threshold in
  if t.min_out < threshold then begin
    let mask = Array.length t.out_size - 1 in
    let hi = min threshold t.next_seq in
    let bytes = ref 0 and lost_packets = ref [] in
    for seq = t.min_out to hi - 1 do
      let i = seq land mask in
      if t.out_size.(i) > 0 then begin
        bytes := !bytes + t.out_size.(i);
        lost_packets := (t.out_sent.(i), t.out_size.(i)) :: !lost_packets;
        t.out_size.(i) <- 0
      end
    done;
    if !bytes > 0 then begin
      advance_min_out t;
      t.inflight <- t.inflight - !bytes;
      t.lost <- t.lost + !bytes;
      t.cca.Cca.on_loss
        {
          Cca.now = now t;
          lost_bytes = !bytes;
          lost_packets = !lost_packets;
          inflight = t.inflight;
          kind = `Dupack;
        }
    end
    else t.min_out <- hi (* everything below the threshold was a hole *)
  end

(* Shared tail of ACK processing, after the outstanding-table accounting:
   [newest] is the acked packet with the latest send time. *)
let finish_ack t ~(newest : Packet.t) ~acked_bytes ~any_ce =
  let time = now t in
  t.got_first_ack <- true;
  t.delivered <- t.delivered + acked_bytes;
  t.tbl.Table.last_progress.(t.ix) <- time;
  let rtt = time -. newest.Packet.sent_at in
  (* RFC 6298 smoothing, inlined so the samples stay unboxed. *)
  let tb = t.tbl in
  let ix = t.ix in
  if tb.Table.srtt.(ix) = 0. then begin
    tb.Table.srtt.(ix) <- rtt;
    tb.Table.rttvar.(ix) <- rtt /. 2.
  end
  else begin
    tb.Table.rttvar.(ix) <-
      (0.75 *. tb.Table.rttvar.(ix))
      +. (0.25 *. Float.abs (tb.Table.srtt.(ix) -. rtt));
    tb.Table.srtt.(ix) <- (0.875 *. tb.Table.srtt.(ix)) +. (0.125 *. rtt)
  end;
  let a = tb.Table.ack_scratch in
  a.Cca.now <- time;
  a.Cca.rtt <- rtt;
  a.Cca.acked_bytes <- acked_bytes;
  a.Cca.sent_time <- newest.Packet.sent_at;
  a.Cca.delivered <- newest.Packet.delivered_at_send;
  a.Cca.delivered_now <- t.delivered;
  a.Cca.inflight <- t.inflight;
  a.Cca.app_limited <- newest.Packet.app_limited;
  a.Cca.ecn_ce <- any_ce;
  t.cca.Cca.on_ack a;
  (match t.traces with
  | Some tr ->
      Series.add tr.rtt_series ~time rtt;
      Series.add tr.cwnd_series ~time (t.cca.Cca.cwnd ());
      Series.add tr.delivered_series ~time (float_of_int t.delivered)
  | None -> ());
  detect_losses t;
  sync_timer t;
  maybe_send t;
  maybe_complete t;
  (* If this ACK emptied the pipe and the CCA still refuses to send
     (window below one segment), keep the RTO chain alive so the stall
     probe can recover the flow. *)
  if t.inflight = 0 && t.running then schedule_rto t

(* Look up and clear seq's outstanding entry; return its size, or 0 if
   the seq was already declared lost (a late ACK to ignore). *)
let take_outstanding t seq =
  if seq < t.min_out || seq >= t.next_seq then 0
  else begin
    let i = seq land (Array.length t.out_size - 1) in
    let size = t.out_size.(i) in
    if size > 0 then t.out_size.(i) <- 0;
    size
  end

let receive_ack t (deliveries : Packet.delivery list) =
  match deliveries with
  | [] -> ()
  | _ ->
      let newest =
        List.fold_left
          (fun acc (d : Packet.delivery) ->
            if d.packet.Packet.sent_at >= acc.Packet.sent_at then d.packet else acc)
          (List.hd deliveries).packet deliveries
      in
      let acked_bytes = ref 0 in
      let any_ce = ref false in
      List.iter
        (fun (d : Packet.delivery) ->
          let p = d.Packet.packet in
          let size = take_outstanding t p.Packet.seq in
          if size > 0 then begin
            t.inflight <- t.inflight - size;
            acked_bytes := !acked_bytes + size;
            if p.Packet.ce then any_ce := true;
            if p.Packet.seq > t.highest_acked then t.highest_acked <- p.Packet.seq
          end)
        deliveries;
      if !acked_bytes > 0 then begin
        advance_min_out t;
        finish_ack t ~newest ~acked_bytes:!acked_bytes ~any_ce:!any_ce
      end

(* Single-packet ACK: the immediate-ACK hot path.  Equivalent to
   [receive_ack t [ { packet; delivered_at = _ } ]] but with no delivery
   record, list, or fold. *)
let receive_ack_one t (p : Packet.t) =
  let size = take_outstanding t p.Packet.seq in
  if size > 0 then begin
    t.inflight <- t.inflight - size;
    if p.Packet.seq > t.highest_acked then t.highest_acked <- p.Packet.seq;
    advance_min_out t;
    finish_ack t ~newest:p ~acked_bytes:size ~any_ce:p.Packet.ce
  end

let fold_state buf t =
  Statebuf.i buf t.id;
  Statebuf.i buf t.mss;
  Statebuf.b buf t.got_first_ack;
  Statebuf.i buf t.next_seq;
  Statebuf.i buf t.min_out;
  Statebuf.i buf t.inflight;
  Statebuf.i buf t.delivered;
  Statebuf.i buf t.lost;
  Statebuf.i buf t.highest_acked;
  Statebuf.f buf t.tbl.Table.next_send_time.(t.ix);
  Statebuf.f buf t.tbl.Table.last_progress.(t.ix);
  Statebuf.f buf t.tbl.Table.srtt.(t.ix);
  Statebuf.f buf t.tbl.Table.rttvar.(t.ix);
  Statebuf.b buf t.running;
  Statebuf.i buf t.degraded;
  Statebuf.i buf t.stall_probes;
  (* Sized flows fold their limit and completion instant; unbounded
     flows keep the historical encoding byte for byte. *)
  if t.seg_limit <> max_int then begin
    Statebuf.i buf t.seg_limit;
    Statebuf.f buf t.tbl.Table.done_time.(t.ix)
  end;
  (* Live outstanding window: fold only occupied slots, keyed by seq, so
     the encoding is independent of ring capacity. *)
  let mask = Array.length t.out_size - 1 in
  for seq = t.min_out to t.next_seq - 1 do
    let i = seq land mask in
    if t.out_size.(i) > 0 then begin
      Statebuf.i buf seq;
      Statebuf.f buf t.out_sent.(i);
      Statebuf.i buf t.out_size.(i);
      Statebuf.i buf t.out_dats.(i)
    end
  done;
  match t.traces with
  | None -> ()
  | Some tr ->
      Series.fold_state buf tr.rtt_series;
      Series.fold_state buf tr.cwnd_series;
      Series.fold_state buf tr.delivered_series

let throughput t ~t0 ~t1 =
  if t1 <= t0 then 0.
  else begin
    let ds = delivered_series t in
    let at q =
      match Series.value_at ds q with Some v -> v | None -> 0.
    in
    (at t1 -. at t0) /. (t1 -. t0)
  end

(* Goodput over the flow's own active lifetime — delivered bytes per
   second between its start and its completion (or [horizon] while
   incomplete).  Unlike {!throughput} this needs no recorded series, so
   a census population can run with [record_series = false]. *)
let goodput t ~horizon =
  let stop =
    match completion_time t with Some d -> d | None -> horizon
  in
  let span = stop -. t.start_time in
  if span <= 0. then 0. else float_of_int t.delivered /. span

let rate_series t ~window =
  let out = Series.create ~name:(Printf.sprintf "flow%d.rate" t.id) () in
  let ds = delivered_series t in
  let times = Series.times ds in
  let values = Series.values ds in
  let n = Array.length times in
  let j = ref 0 in
  for i = 0 to n - 1 do
    let t1 = times.(i) in
    let t0 = t1 -. window in
    while !j < n && times.(!j) < t0 do incr j done;
    if !j < i then begin
      let dt = t1 -. times.(!j) in
      if dt > 0. then Series.add out ~time:t1 ((values.(i) -. values.(!j)) /. dt)
    end
  done;
  out

type rate =
  | Constant of float
  | Piecewise of (float * float) array

type discipline = Fifo | Drr of { quantum : int }

let rate_at spec time =
  match spec with
  | Constant r -> r
  | Piecewise segs ->
      if Array.length segs = 0 then invalid_arg "Link.rate_at: empty piecewise rate";
      let rec search lo hi =
        (* Largest i with segs.(i) start <= time, or 0. *)
        if lo >= hi then lo
        else
          let mid = (lo + hi + 1) / 2 in
          if fst segs.(mid) <= time then search mid hi else search lo (mid - 1)
      in
      let i = if time < fst segs.(0) then 0 else search 0 (Array.length segs - 1) in
      snd segs.(i)

let transmit_end spec ~start ~bytes =
  let bytes = float_of_int bytes in
  match spec with
  | Constant r -> if r <= 0. then infinity else start +. (bytes /. r)
  | Piecewise segs ->
      let n = Array.length segs in
      if n = 0 then invalid_arg "Link.transmit_end: empty piecewise rate";
      let rec go i t remaining =
        if remaining <= 0. then t
        else if i >= n then
          (* Last segment extends forever. *)
          let r = snd segs.(n - 1) in
          if r <= 0. then infinity else t +. (remaining /. r)
        else begin
          let seg_start = fst segs.(i) and r = if i = 0 then snd segs.(0) else snd segs.(i - 1) in
          if t >= seg_start then go (i + 1) t remaining
          else if r <= 0. then go (i + 1) seg_start remaining
          else begin
            let capacity = r *. (seg_start -. t) in
            if capacity >= remaining then t +. (remaining /. r)
            else go (i + 1) seg_start (remaining -. capacity)
          end
        end
      in
      (* Find the first breakpoint after [start]. *)
      let rec first_after i = if i < n && fst segs.(i) <= start then first_after (i + 1) else i in
      go (first_after 0) start bytes

let mean_rate spec ~t0 ~t1 =
  if t1 <= t0 then rate_at spec t0
  else
    match spec with
    | Constant r -> r
    | Piecewise segs ->
        (* Exact integral of the step function over [t0, t1], divided by
           the window — no sampling error. *)
        let n = Array.length segs in
        if n = 0 then invalid_arg "Link.mean_rate: empty piecewise rate";
        let rec first_after i =
          if i < n && fst segs.(i) <= t0 then first_after (i + 1) else i
        in
        let acc = ref 0. and cursor = ref t0 and v = ref (rate_at spec t0) in
        let i = ref (first_after 0) in
        while !i < n && fst segs.(!i) < t1 do
          acc := !acc +. (!v *. (fst segs.(!i) -. !cursor));
          cursor := fst segs.(!i);
          v := snd segs.(!i);
          incr i
        done;
        (!acc +. (!v *. (t1 -. !cursor))) /. (t1 -. t0)

(* Scheduler internals: one shared FIFO (a growable ring of packets with a
   parallel unboxed array of enqueue times — no per-packet tuple or queue
   cell), or per-flow queues served deficit-round-robin. *)
type fifo = {
  mutable pkts : Packet.t array;
  mutable enq : float array;
  mutable head : int;
  mutable len : int;
}

type sched =
  | Sfifo of fifo
  | Sdrr of {
      queues : (int, (Packet.t * float) Queue.t) Hashtbl.t;
      round : int Queue.t; (* flows with backlog, in round order *)
      in_round : (int, unit) Hashtbl.t;
      deficits : (int, int) Hashtbl.t;
      quantum : int;
    }

let fifo_grow f =
  let cap = Array.length f.pkts in
  if cap = 0 then begin
    f.pkts <- Array.make 64 Packet.dummy;
    f.enq <- Array.make 64 0.
  end
  else begin
    let pkts = Array.make (2 * cap) Packet.dummy and enq = Array.make (2 * cap) 0. in
    let tail_run = min f.len (cap - f.head) in
    Array.blit f.pkts f.head pkts 0 tail_run;
    Array.blit f.enq f.head enq 0 tail_run;
    Array.blit f.pkts 0 pkts tail_run (f.len - tail_run);
    Array.blit f.enq 0 enq tail_run (f.len - tail_run);
    f.pkts <- pkts;
    f.enq <- enq;
    f.head <- 0
  end

let fifo_push f pkt time =
  if f.len = Array.length f.pkts then fifo_grow f;
  let cap = Array.length f.pkts in
  let tail = f.head + f.len in
  let tail = if tail >= cap then tail - cap else tail in
  f.pkts.(tail) <- pkt;
  f.enq.(tail) <- time;
  f.len <- f.len + 1

let sched_of_discipline = function
  | Fifo -> Sfifo { pkts = [||]; enq = [||]; head = 0; len = 0 }
  | Drr { quantum } ->
      if quantum <= 0 then invalid_arg "Link: DRR quantum must be positive";
      (* Not randomized: [Network.state_hash] hashes the tables' bytes,
         whose seed and bucket order [OCAMLRUNPARAM=R] would vary. *)
      Sdrr
        {
          queues = Hashtbl.create ~random:false 8;
          round = Queue.create ();
          in_round = Hashtbl.create ~random:false 8;
          deficits = Hashtbl.create ~random:false 8;
          quantum;
        }

let sched_push sched pkt enq_time =
  match sched with
  | Sfifo f -> fifo_push f pkt enq_time
  | Sdrr d ->
      let f = pkt.Packet.flow in
      let q =
        match Hashtbl.find_opt d.queues f with
        | Some q -> q
        | None ->
            let q = Queue.create () in
            Hashtbl.replace d.queues f q;
            q
      in
      Queue.push (pkt, enq_time) q;
      if not (Hashtbl.mem d.in_round f) then begin
        Hashtbl.replace d.in_round f ();
        Queue.push f d.round
      end

(* DRR pop keeps the tuple representation: per-flow isolation is not the
   hot path.  The FIFO pop below is tuple-free. *)
let rec sched_pop_drr sched =
  match sched with
  | Sfifo _ -> assert false
  | Sdrr d -> begin
      match Queue.peek_opt d.round with
      | None -> None
      | Some f -> begin
          let q = Hashtbl.find d.queues f in
          if Queue.is_empty q then begin
            ignore (Queue.pop d.round);
            Hashtbl.remove d.in_round f;
            Hashtbl.replace d.deficits f 0;
            sched_pop_drr sched
          end
          else begin
            let pkt, _ = Queue.peek q in
            let deficit =
              match Hashtbl.find_opt d.deficits f with Some v -> v | None -> 0
            in
            if deficit >= pkt.Packet.size then begin
              Hashtbl.replace d.deficits f (deficit - pkt.Packet.size);
              Some (Queue.pop q)
            end
            else begin
              (* End of this flow's turn: top up and rotate. *)
              Hashtbl.replace d.deficits f (deficit + d.quantum);
              ignore (Queue.pop d.round);
              Queue.push f d.round;
              sched_pop_drr sched
            end
          end
        end
    end

(* All-float box: assigning the field is an unboxed store, unlike a
   mutable float field in the mixed record below (2 words per write). *)
type fbox = { mutable v : float }

(* Test-only accounting fault: bytes added to the link's delivered-bytes
   counter per serviced packet, i.e. a deliberate off-by-[skew] in the
   byte bookkeeping that the conservation oracles must catch.  A global
   rather than per-link state so a shrinker re-running candidate configs
   sees the same fault.  Defaults to 0 = accounting is exact. *)
let accounting_skew = ref 0
let set_accounting_skew n = accounting_skew := n

(* Per-flow byte accounting, indexed by [flow + 1] so the phantom
   initial-queue flow (id -1) gets slot 0.  Grown on demand: links are
   built before the flow population is known. *)
type per_flow = {
  mutable offered : int array;
  mutable delivered : int array;
  mutable dropped : int array;
}

let pf_ensure pf idx =
  let cap = Array.length pf.offered in
  if idx >= cap then begin
    let ncap = max (idx + 1) (max 8 (2 * cap)) in
    let grow a =
      let b = Array.make ncap 0 in
      Array.blit a 0 b 0 cap;
      b
    in
    pf.offered <- grow pf.offered;
    pf.delivered <- grow pf.delivered;
    pf.dropped <- grow pf.dropped
  end

let pf_get a idx = if idx < Array.length a then a.(idx) else 0

type t = {
  eq : Event_queue.t;
  rate : rate;
  mutable buffer : int option;
  ecn_threshold : int option;
  sched : sched;
  mutable on_dequeue : Packet.t -> unit;
  mutable queued_bytes : int;
  mutable busy : bool;
  mutable in_service : Packet.t; (* valid iff busy; Packet.dummy otherwise *)
  in_service_enq : fbox;
  complete : Event_queue.handle; (* one persistent completion event slot *)
  mutable drops : int;
  mutable ce_marks : int;
  mutable offered_bytes : int;
  mutable dropped_bytes : int;
  mutable delivered_bytes : int;
  per_flow : per_flow;
  record_queue : bool;
  queue_series : Series.t;
}

let set_on_dequeue t f = t.on_dequeue <- f

let record t =
  if t.record_queue then
    Series.add t.queue_series ~time:(Event_queue.now t.eq) (float_of_int t.queued_bytes)

let mark t pkt =
  if not pkt.Packet.ce then begin
    pkt.Packet.ce <- true;
    t.ce_marks <- t.ce_marks + 1
  end

(* Pop the next packet to serve into the [in_service] registers.  Returns
   false when the scheduler is empty.  The FIFO path reads the ring
   directly — no tuple or option allocation per packet. *)
let sched_pop_into t =
  match t.sched with
  | Sfifo f ->
      if f.len = 0 then false
      else begin
        t.in_service <- f.pkts.(f.head);
        t.in_service_enq.v <- f.enq.(f.head);
        f.pkts.(f.head) <- Packet.dummy;
        f.head <- (if f.head + 1 = Array.length f.pkts then 0 else f.head + 1);
        f.len <- f.len - 1;
        true
      end
  | Sdrr _ -> begin
      match sched_pop_drr t.sched with
      | None -> false
      | Some (pkt, enq) ->
          t.in_service <- pkt;
          t.in_service_enq.v <- enq;
          true
    end

(* Service loop.  One persistent completion callback per link ([complete]
   handle, armed once per serviced packet): the packet in service and its
   enqueue time live in mutable registers instead of a fresh closure. *)
let rec start_service t =
  if not t.busy then
    if sched_pop_into t then begin
      let now = Event_queue.now t.eq in
      let finish = transmit_end t.rate ~start:now ~bytes:t.in_service.Packet.size in
      if Float.is_finite finish then begin
        t.busy <- true;
        Event_queue.schedule_handle t.eq t.complete ~at:finish
      end
      else begin
        (* Rate trace carries no more bytes: the link is dead; put the
           packet back on the scheduler. *)
        sched_push t.sched t.in_service t.in_service_enq.v;
        t.in_service <- Packet.dummy
      end
    end

and on_complete t =
  let served = t.in_service in
  t.in_service <- Packet.dummy;
  t.queued_bytes <- t.queued_bytes - served.Packet.size;
  t.delivered_bytes <- t.delivered_bytes + served.Packet.size + !accounting_skew;
  let fi = served.Packet.flow + 1 in
  pf_ensure t.per_flow fi;
  t.per_flow.delivered.(fi) <- t.per_flow.delivered.(fi) + served.Packet.size;
  t.busy <- false;
  record t;
  t.on_dequeue served;
  start_service t

let create ~eq ~rate ?buffer ?ecn_threshold ?(discipline = Fifo) ~record_queue () =
  (match buffer with
  | Some b when b < 0 -> invalid_arg "Link.create: buffer must be >= 0"
  | Some _ | None -> ());
  (match ecn_threshold with
  | Some th when th < 0 -> invalid_arg "Link.create: ecn_threshold must be >= 0"
  | Some _ | None -> ());
  let t =
    {
      eq;
      rate;
      buffer;
      ecn_threshold;
      sched = sched_of_discipline discipline;
      on_dequeue = (fun _ -> invalid_arg "Link: on_dequeue not set");
      queued_bytes = 0;
      busy = false;
      in_service = Packet.dummy;
      in_service_enq = { v = 0. };
      complete = Event_queue.handle ignore;
      drops = 0;
      ce_marks = 0;
      offered_bytes = 0;
      dropped_bytes = 0;
      delivered_bytes = 0;
      per_flow = { offered = [||]; delivered = [||]; dropped = [||] };
      record_queue;
      queue_series = Series.create ~name:"queue_bytes" ();
    }
  in
  Event_queue.set_action t.complete (fun () -> on_complete t);
  t

let enqueue t pkt =
  t.offered_bytes <- t.offered_bytes + pkt.Packet.size;
  let fi = pkt.Packet.flow + 1 in
  pf_ensure t.per_flow fi;
  t.per_flow.offered.(fi) <- t.per_flow.offered.(fi) + pkt.Packet.size;
  let fits =
    match t.buffer with
    | None -> true
    | Some cap -> t.queued_bytes + pkt.Packet.size <= cap
  in
  if not fits then begin
    t.drops <- t.drops + 1;
    t.dropped_bytes <- t.dropped_bytes + pkt.Packet.size;
    t.per_flow.dropped.(fi) <- t.per_flow.dropped.(fi) + pkt.Packet.size;
    `Dropped
  end
  else begin
    let now = Event_queue.now t.eq in
    (* The paper's threshold AQM (sec. 6.4): mark an arrival that finds
       more than [ecn_threshold] bytes queued. *)
    (match t.ecn_threshold with
    | Some th when t.queued_bytes > th -> mark t pkt
    | Some _ | None -> ());
    sched_push t.sched pkt now;
    t.queued_bytes <- t.queued_bytes + pkt.Packet.size;
    record t;
    start_service t;
    `Enqueued
  end

let queued_bytes t = t.queued_bytes

let queue_delay t =
  let r = rate_at t.rate (Event_queue.now t.eq) in
  if r <= 0. then infinity else float_of_int t.queued_bytes /. r

let drops t = t.drops
let ce_marks t = t.ce_marks
let offered_bytes t = t.offered_bytes
let dropped_bytes t = t.dropped_bytes
let delivered_bytes t = t.delivered_bytes
let offered_bytes_for t ~flow = pf_get t.per_flow.offered (flow + 1)
let delivered_bytes_for t ~flow = pf_get t.per_flow.delivered (flow + 1)
let dropped_bytes_for t ~flow = pf_get t.per_flow.dropped (flow + 1)
let queue_series t = t.queue_series
let buffer t = t.buffer

let set_buffer t buffer =
  (match buffer with
  | Some b when b < 0 -> invalid_arg "Link.set_buffer: negative buffer"
  | _ -> ());
  t.buffer <- buffer

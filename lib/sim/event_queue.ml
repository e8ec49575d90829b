(* Hybrid scheduler: a hierarchical timing wheel for near-future events
   plus two structure-of-arrays binary heaps — a tiny "due" heap holding
   wheel entries whose tick the cursor has reached (re-sorted exactly by
   their original (time, seq)), and an "overflow" heap for events beyond
   the wheel's horizon.  Small queues (below [wheel_threshold] pending
   events) route everything through the overflow heap and never allocate
   the wheel.

   Pop order does not depend on placement: a single global FIFO sequence
   counter is consumed per insertion, the wheel stores the exact
   (time, seq) it was given, and container-vs-container decisions
   are made in integer tick space (never by multiplying ticks back into
   float time, which could misorder by an ulp) with exact (time, seq)
   comparison between heap roots.  Heap invariant: every due-heap entry
   has tick <= wheel cursor < tick of every wheel entry, so the due heap
   root is always earlier than anything in the wheel and only the
   overflow heap needs comparing against.

   Containers hold integer ids, never handles.  A per-queue registry maps
   each id to its handle ([reg]) and to where its entry lives ([loc]).  A
   handle takes an id when it goes from idle to queued and gives it back,
   with its registry slot cleared, when it is cancelled or its popped
   entry is settled.  Heap sifts, wheel cascades and swap-with-last
   removals therefore move only floats and ints — no [caml_modify] — and
   no container or vacated slot keeps a fired or cancelled closure alive.

   Most events re-arm the handle that just fired (a link completion, a
   delay-line head, an RTO check).  So a popped entry is "held": it stays
   at the root of its heap, keeping its id, while its action runs, and
   the handle reads idle and uncounted exactly as after a removal.  If
   the action re-arms that handle and the placement rule files the new
   time into the same heap, the root takes the new (time, seq) and sifts
   down once: one heap operation and no registry write per event, where
   a pop and a push cost two sifts and give back and take again the id,
   two [caml_modify]s among its writes.  Otherwise the root is removed
   at the re-arm (the id is filed afresh) or, without a re-arm, when the
   action returns or raises.  Nothing queued meanwhile displaces the
   held root: it is the heap's minimum, and every new entry has time >=
   now and a later seq. *)

type handle = {
  mutable id : int; (* registry index while queued, [idle] otherwise *)
  mutable action : unit -> unit;
}

let idle = -1

let handle f = { id = idle; action = f }

let set_action h f =
  if h.id <> idle then invalid_arg "Event_queue.set_action: handle is queued";
  h.action <- f

(* Fills free registry slots, so a released id pins nothing. *)
let dummy_handle = handle ignore

(* A location code ([loc.(id)]) names the container in its low two bits;
   above them sits the heap index, or the wheel slot (8 bits, below
   [Timer_wheel.levels * slots_per_level] = 224) and vec index. *)
let in_due = 0
let in_overflow = 1
let in_wheel = 2
let heap_loc tag i = (i lsl 2) lor tag
let wheel_loc ~slot ~idx = (((idx lsl 8) lor slot) lsl 2) lor in_wheel
let loc_tag l = l land 3
let loc_index l = l lsr 2
let loc_slot l = (l lsr 2) land 0xff
let loc_idx l = l lsr 10
let () = assert (Timer_wheel.levels * Timer_wheel.slots_per_level <= 0x100)

type heap = {
  tag : int; (* location tag of entries stored here *)
  mutable htimes : float array; (* unboxed *)
  mutable hseqs : int array;
  mutable hids : int array;
  mutable hsize : int;
}

let mkheap tag = { tag; htimes = [||]; hseqs = [||]; hids = [||]; hsize = 0 }

let ensure_room hp =
  let cap = Array.length hp.htimes in
  if hp.hsize = cap then begin
    let ncap = if cap = 0 then 16 else 2 * cap in
    let times = Array.make ncap 0.
    and seqs = Array.make ncap 0
    and ids = Array.make ncap 0 in
    Array.blit hp.htimes 0 times 0 hp.hsize;
    Array.blit hp.hseqs 0 seqs 0 hp.hsize;
    Array.blit hp.hids 0 ids 0 hp.hsize;
    hp.htimes <- times;
    hp.hseqs <- seqs;
    hp.hids <- ids
  end

(* Hole sifts: the sifted entry is read into locals once, each entry it
   passes moves one step into the hole, and the entry is written where
   the hole stops.  The decisions are those of a swap sift under the
   strict (time, seq) order — times are validated finite, so plain float
   comparison is exact — so the heap layout is the same.  Every moved id
   gets its new index in [loc].  [sift_up] returns the final index. *)
let sift_up loc hp i =
  let times = hp.htimes and seqs = hp.hseqs and ids = hp.hids in
  let t0 = times.(i) and s0 = seqs.(i) and id0 = ids.(i) in
  let hole = ref i and moving = ref true in
  while !moving && !hole > 0 do
    let h = !hole in
    let p = (h - 1) lsr 1 in
    let tp = times.(p) in
    if t0 < tp || (t0 = tp && s0 < seqs.(p)) then begin
      times.(h) <- tp;
      seqs.(h) <- seqs.(p);
      let idp = ids.(p) in
      ids.(h) <- idp;
      loc.(idp) <- heap_loc hp.tag h;
      hole := p
    end
    else moving := false
  done;
  let h = !hole in
  if h <> i then begin
    times.(h) <- t0;
    seqs.(h) <- s0;
    ids.(h) <- id0
  end;
  loc.(id0) <- heap_loc hp.tag h;
  h

let sift_down loc hp i =
  let times = hp.htimes and seqs = hp.hseqs and ids = hp.hids in
  let n = hp.hsize in
  let t0 = times.(i) and s0 = seqs.(i) and id0 = ids.(i) in
  let hole = ref i and moving = ref true in
  while !moving do
    let h = !hole in
    let l = (2 * h) + 1 in
    if l >= n then moving := false
    else begin
      let r = l + 1 in
      let c =
        if r < n then begin
          let tl = times.(l) and tr = times.(r) in
          if tr < tl || (tr = tl && seqs.(r) < seqs.(l)) then r else l
        end
        else l
      in
      let tc = times.(c) in
      if tc < t0 || (tc = t0 && seqs.(c) < s0) then begin
        times.(h) <- tc;
        seqs.(h) <- seqs.(c);
        let idc = ids.(c) in
        ids.(h) <- idc;
        loc.(idc) <- heap_loc hp.tag h;
        hole := c
      end
      else moving := false
    end
  done;
  let h = !hole in
  if h <> i then begin
    times.(h) <- t0;
    seqs.(h) <- s0;
    ids.(h) <- id0
  end;
  loc.(id0) <- heap_loc hp.tag h

(* [time] arrives boxed from the caller; it is unboxed into the array
   and the sift reads it from there, never as a float argument. *)
let hpush loc hp id ~time ~seq =
  ensure_room hp;
  let i = hp.hsize in
  hp.htimes.(i) <- time;
  hp.hseqs.(i) <- seq;
  hp.hids.(i) <- id;
  hp.hsize <- i + 1;
  ignore (sift_up loc hp i)

(* In-place move of the entry at index [i], which stays in [hp]: one
   sift path instead of remove + push. *)
let hmove loc hp i ~time ~seq =
  hp.htimes.(i) <- time;
  hp.hseqs.(i) <- seq;
  if sift_up loc hp i = i then sift_down loc hp i

let hremove loc hp i =
  let last = hp.hsize - 1 in
  hp.hsize <- last;
  if i < last then begin
    hp.htimes.(i) <- hp.htimes.(last);
    hp.hseqs.(i) <- hp.hseqs.(last);
    hp.hids.(i) <- hp.hids.(last);
    if sift_up loc hp i = i then sift_down loc hp i
  end

type t = {
  due : heap;
  overflow : heap;
  (* Created lazily, on the first insert into a queue that has outgrown
     [wheel_threshold].  Laziness matters for churny small runs: a wheel
     is ~a thousand words of slot vecs that a 2-flow simulation would pay
     for and never use. *)
  mutable wheel : Timer_wheel.t option;
  wheel_threshold : int;
  mutable now : float;
  mutable next_seq : int;
  (* Total events queued across the three containers, maintained by
     insert / cancel / pop.  Makes [pending] O(1) and — more
     importantly — turns the per-insertion small-queue bypass check into
     a single int compare instead of an option match plus three loads,
     which is what keeps tiny populations off the wheel for free. *)
  mutable count : int;
  mutable step_hook : (float -> unit) option;
  (* The registry, indexed by id.  A free id's [reg] slot holds
     [dummy_handle] and its [loc] slot the next free id, so released ids
     are reused last-in first-out and the registry grows only when every
     id is queued: it is as large as the peak number of pending events,
     rounded up to a power of two. *)
  mutable reg : handle array;
  mutable loc : int array;
  mutable free_id : int; (* head of the free-id list; [idle] when empty *)
  (* Id of the popped entry held at its heap's root while its action
     runs; [idle] otherwise.  Its [reg] slot still names the handle. *)
  mutable held : int;
}

(* Below this many pending events a binary heap (depth <= 8) beats the
   wheel's cascade constants, so small queues route through the overflow
   heap and a 2-flow run never touches the wheel.  Placement is a pure
   optimization: [source] orders containers by exact (time, seq), so any
   event is correct in any container. *)
let default_wheel_threshold = 256

let create ?(wheel_threshold = default_wheel_threshold) ?(start = 0.) () =
  if not (Float.is_finite start) then
    invalid_arg "Event_queue.create: start must be finite";
  if wheel_threshold < 0 then
    invalid_arg "Event_queue.create: wheel_threshold must be >= 0";
  {
    due = mkheap in_due;
    overflow = mkheap in_overflow;
    wheel = None;
    wheel_threshold;
    now = start;
    next_seq = 0;
    count = 0;
    step_hook = None;
    reg = [||];
    loc = [||];
    free_id = idle;
    held = idle;
  }

(* Called with every id queued: double the registry and put the new ids
   on the free list, lowest first. *)
let grow_registry t =
  let old = Array.length t.reg in
  let cap = max 16 (2 * old) in
  let reg = Array.make cap dummy_handle and loc = Array.make cap 0 in
  Array.blit t.reg 0 reg 0 old;
  Array.blit t.loc 0 loc 0 old;
  for id = cap - 1 downto old do
    loc.(id) <- t.free_id;
    t.free_id <- id
  done;
  t.reg <- reg;
  t.loc <- loc

let acquire t h =
  if t.free_id = idle then grow_registry t;
  let id = t.free_id in
  t.free_id <- t.loc.(id);
  t.reg.(id) <- h;
  h.id <- id;
  id

(* Take an id back once its entry has left every container.  The
   handle's own [id] is the caller's business: a held entry's handle
   may already be queued elsewhere. *)
let release t id =
  t.reg.(id) <- dummy_handle;
  t.loc.(id) <- t.free_id;
  t.free_id <- id

(* An id means something only in the registry that issued it: a queued
   handle belongs to this queue iff this registry maps its id back to
   it.  The held id maps back to its handle too, but that handle is idle
   here, so a queued handle carrying the same number got it from another
   queue. *)
let owns t h =
  let id = h.id in
  id <> t.held && id < Array.length t.reg && t.reg.(id) == h

let foreign fn =
  invalid_arg ("Event_queue." ^ fn ^ ": handle is queued in another queue")

let wheel_of t =
  match t.wheel with
  | Some w -> w
  | None ->
      let w =
        Timer_wheel.create ~granularity:256e-6 ~start:t.now
          ~move:(fun id ~slot ~idx -> t.loc.(id) <- wheel_loc ~slot ~idx)
          ~due:(fun id ~time ~seq -> hpush t.loc t.due id ~time ~seq)
          ()
      in
      t.wheel <- Some w;
      w

let set_step_hook t f = t.step_hook <- f
let now t = t.now

let pending t = t.count
let wheel_allocated t = t.wheel <> None

let validate t at =
  if not (Float.is_finite at) then
    invalid_arg "Event_queue.schedule: non-finite time";
  if at < t.now then
    invalid_arg
      (Printf.sprintf "Event_queue.schedule: time %.9f is before now %.9f" at t.now)

(* The placement rule: the container a time being queued belongs in,
   [count] already including it.  Below [wheel_threshold] that is the
   overflow heap; above it, the wheel, or the due heap for a tick the
   cursor has reached, or the overflow heap beyond the wheel's horizon. *)
let target t ~at =
  if t.count <= t.wheel_threshold then in_overflow
  else
    match Timer_wheel.placement (wheel_of t) ~time:at with
    | Timer_wheel.Placed -> in_wheel
    | Timer_wheel.Due -> in_due
    | Timer_wheel.Far -> in_overflow

(* File a queued id in container [c] (its [target]) under a fresh
   sequence number. *)
let file_in t id ~at c =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  if c = in_overflow then hpush t.loc t.overflow id ~time:at ~seq
  else if c = in_due then hpush t.loc t.due id ~time:at ~seq
  else
    (* the wheel's move callback files it *)
    ignore (Timer_wheel.add (wheel_of t) ~time:at ~seq id : Timer_wheel.placement)

let file t id ~at = file_in t id ~at (target t ~at)

(* Take a queued id's entry out of its container; the id stays issued. *)
let detach t id =
  let l = t.loc.(id) in
  let tag = loc_tag l in
  if tag = in_due then hremove t.loc t.due (loc_index l)
  else if tag = in_overflow then hremove t.loc t.overflow (loc_index l)
  else
    match t.wheel with
    | Some w -> Timer_wheel.remove w ~slot:(loc_slot l) ~idx:(loc_idx l)
    | None -> assert false

let insert t h ~at =
  t.count <- t.count + 1;
  file t (acquire t h) ~at

let heap_of t l = if loc_tag l = in_due then t.due else t.overflow

(* The held entry's action re-arms its own handle, which takes the id
   back.  The root is reused when the new time belongs in the same heap,
   removed and re-filed otherwise. *)
let rearm_held t h ~at =
  let id = t.held in
  t.held <- idle;
  h.id <- id;
  t.count <- t.count + 1;
  let l = t.loc.(id) in
  let hp = heap_of t l in
  let c = target t ~at in
  if c = hp.tag then begin
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    hmove t.loc hp (loc_index l) ~time:at ~seq
  end
  else begin
    hremove t.loc hp (loc_index l);
    file_in t id ~at c
  end

(* Remove the held entry, if its action left it, and free its id. *)
let settle t =
  let id = t.held in
  if id <> idle then begin
    t.held <- idle;
    let l = t.loc.(id) in
    hremove t.loc (heap_of t l) (loc_index l);
    release t id
  end

let schedule t ~at action =
  validate t at;
  insert t (handle action) ~at

let cancel t h =
  if h.id <> idle then begin
    if not (owns t h) then foreign "cancel";
    detach t h.id;
    release t h.id;
    h.id <- idle;
    t.count <- t.count - 1
  end

let schedule_handle t h ~at =
  validate t at;
  let id = h.id in
  if id = idle then
    if t.held <> idle && t.reg.(t.held) == h then rearm_held t h ~at
    else insert t h ~at
  else begin
    if not (owns t h) then foreign "schedule_handle";
    let l = t.loc.(id) in
    if loc_tag l = in_overflow then begin
      (* Overflow-resident (small queue or far future): move in place.  A
         fresh sequence number keeps the FIFO tie-break identical to
         cancel + re-arm, and leaving a near event in the overflow heap is
         fine — see [default_wheel_threshold]. *)
      let seq = t.next_seq in
      t.next_seq <- seq + 1;
      hmove t.loc t.overflow (loc_index l) ~time:at ~seq
    end
    else begin
      (* Due- or wheel-resident: the new time may belong to a different
         container (wheel level, due heap, overflow); detach + file
         re-files it under the same id, and both halves are O(1) when
         wheel-resident. *)
      detach t id;
      file t id ~at
    end
  end

let is_scheduled h = h.id <> idle

let scheduled_time t h =
  let id = h.id in
  if id = idle then infinity
  else begin
    if not (owns t h) then foreign "scheduled_time";
    let l = t.loc.(id) in
    let tag = loc_tag l in
    if tag = in_due then t.due.htimes.(loc_index l)
    else if tag = in_overflow then t.overflow.htimes.(loc_index l)
    else
      match t.wheel with
      | Some w -> Timer_wheel.time_at w ~slot:(loc_slot l) ~idx:(loc_idx l)
      | None -> assert false
  end

(* Pick the heap holding the globally next event.  If the wheel might
   own it (due heap empty), advance the cursor to the wheel's next
   pending tick — migrating that tick's entries into the due heap —
   unless the overflow root is strictly earlier in tick space.  Returns
   a heap whose root is the global minimum; an empty heap means the
   whole queue is empty. *)
let source t =
  (match t.wheel with
  | Some w when t.due.hsize = 0 && Timer_wheel.size w > 0 ->
      let tk = Timer_wheel.next_tick w in
      if
        t.overflow.hsize = 0
        || Timer_wheel.tick_of w t.overflow.htimes.(0) >= tk
      then Timer_wheel.advance w tk
  | _ -> ());
  if t.due.hsize = 0 then t.overflow
  else if t.overflow.hsize = 0 then t.due
  else begin
    let td = t.due.htimes.(0) and tv = t.overflow.htimes.(0) in
    if td < tv || (td = tv && t.due.hseqs.(0) < t.overflow.hseqs.(0)) then t.due
    else t.overflow
  end

(* The one pop path of [step] and [run_until]: run the next event if it
   is due by [horizon], holding its entry while the action runs, and say
   whether one ran. *)
let fire_next t horizon =
  (* Only an action that itself steps the queue finds an entry held. *)
  settle t;
  let hp = source t in
  if hp.hsize = 0 || hp.htimes.(0) > horizon then false
  else begin
    (* Skip the write (and the float box it allocates) when consecutive
       events share a timestamp. *)
    if hp.htimes.(0) <> t.now then t.now <- hp.htimes.(0);
    (* Observer hook, pre-pop: it sees the clock already advanced and the
       due event still pending.  A [None] branch here is vastly cheaper
       than a recurring heap event — one extra resident slot deepens
       every sift path; a predicted branch costs nothing. *)
    (match t.step_hook with None -> () | Some f -> f t.now);
    let id = hp.hids.(0) in
    let h = t.reg.(id) in
    h.id <- idle;
    t.count <- t.count - 1;
    t.held <- id;
    match h.action () with
    | () ->
        settle t;
        true
    | exception e ->
        settle t;
        raise e
  end

let step t = fire_next t infinity

let run_until t horizon =
  if Float.is_nan horizon then invalid_arg "Event_queue.run_until: horizon is NaN";
  while fire_next t horizon do () done;
  t.now <- Float.max t.now horizon

let run t = while step t do () done

(* Container layouts are deterministic functions of the operation
   sequence, so identical runs produce identical folds, and a marshalled
   copy reproduces the layout exactly.  Actions are closures and cannot
   be content-hashed; the armed times and FIFO sequence numbers pin the
   schedule, which is what divergence diagnosis needs.  Ids are not
   folded: they name registry slots, not events, and a held entry is
   not pending, so it is skipped.  While the wheel is unallocated the due
   heap is empty, so the fold is the overflow heap's alone. *)
let fold_heap buf t hp =
  for i = 0 to hp.hsize - 1 do
    if hp.hids.(i) <> t.held then begin
      Statebuf.f buf hp.htimes.(i);
      Statebuf.i buf hp.hseqs.(i)
    end
  done

let fold_state buf t =
  Statebuf.f buf t.now;
  Statebuf.i buf (pending t);
  Statebuf.i buf t.next_seq;
  fold_heap buf t t.due;
  fold_heap buf t t.overflow;
  match t.wheel with None -> () | Some w -> Timer_wheel.fold_state buf w

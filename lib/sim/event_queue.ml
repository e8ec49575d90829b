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
   overflow heap needs comparing against. *)

type handle = {
  mutable where : int; (* container: [idle], [in_due], [in_overflow], [in_wheel] *)
  mutable pos : int; (* heap slot or wheel vec index; [idle] when idle *)
  mutable wslot : int; (* wheel slot id when [where = in_wheel] *)
  mutable action : unit -> unit;
}

let idle = -1
let in_due = 0
let in_overflow = 1
let in_wheel = 2

let make_handle f = { where = idle; pos = idle; wslot = idle; action = f }
let handle f = make_handle f
let set_action h f = h.action <- f

let dummy_handle = make_handle ignore

type heap = {
  tag : int; (* written into [handle.where] for entries stored here *)
  mutable htimes : float array; (* unboxed *)
  mutable hseqs : int array;
  mutable hslots : handle array;
  mutable hsize : int;
}

let mkheap tag = { tag; htimes = [||]; hseqs = [||]; hslots = [||]; hsize = 0 }

(* (time, seq) lexicographic order; times are validated finite so plain
   float comparison is exact. *)
let hless hp i j =
  let ti = hp.htimes.(i) and tj = hp.htimes.(j) in
  ti < tj || (ti = tj && hp.hseqs.(i) < hp.hseqs.(j))

let ensure_room hp =
  let cap = Array.length hp.htimes in
  if cap = 0 then begin
    hp.htimes <- Array.make 16 0.;
    hp.hseqs <- Array.make 16 0;
    hp.hslots <- Array.make 16 dummy_handle
  end
  else if hp.hsize = cap then begin
    let times = Array.make (2 * cap) 0.
    and seqs = Array.make (2 * cap) 0
    and slots = Array.make (2 * cap) dummy_handle in
    Array.blit hp.htimes 0 times 0 hp.hsize;
    Array.blit hp.hseqs 0 seqs 0 hp.hsize;
    Array.blit hp.hslots 0 slots 0 hp.hsize;
    hp.htimes <- times;
    hp.hseqs <- seqs;
    hp.hslots <- slots
  end

let hswap hp i j =
  let ti = hp.htimes.(i) and si = hp.hseqs.(i) and hi = hp.hslots.(i) in
  hp.htimes.(i) <- hp.htimes.(j);
  hp.hseqs.(i) <- hp.hseqs.(j);
  hp.hslots.(i) <- hp.hslots.(j);
  hp.htimes.(j) <- ti;
  hp.hseqs.(j) <- si;
  hp.hslots.(j) <- hi;
  hp.hslots.(i).pos <- i;
  hp.hslots.(j).pos <- j

let rec sift_up hp i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if hless hp i parent then begin
      hswap hp i parent;
      sift_up hp parent
    end
  end

let rec sift_down hp i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < hp.hsize && hless hp l !smallest then smallest := l;
  if r < hp.hsize && hless hp r !smallest then smallest := r;
  if !smallest <> i then begin
    hswap hp i !smallest;
    sift_down hp !smallest
  end

let hpush hp h ~time ~seq =
  ensure_room hp;
  let i = hp.hsize in
  hp.htimes.(i) <- time;
  hp.hseqs.(i) <- seq;
  hp.hslots.(i) <- h;
  h.where <- hp.tag;
  h.pos <- i;
  hp.hsize <- hp.hsize + 1;
  sift_up hp i

(* In-place move of an overflow-resident entry, which stays in the
   overflow heap whatever its new time: one sift path instead of
   remove + push. *)
let hmove hp h ~time ~seq =
  let i = h.pos in
  hp.htimes.(i) <- time;
  hp.hseqs.(i) <- seq;
  sift_up hp i;
  sift_down hp h.pos

let hremove hp h =
  let i = h.pos in
  h.where <- idle;
  h.pos <- idle;
  hp.hsize <- hp.hsize - 1;
  if i < hp.hsize then begin
    let last = hp.hsize in
    hp.htimes.(i) <- hp.htimes.(last);
    hp.hseqs.(i) <- hp.hseqs.(last);
    let moved = hp.hslots.(last) in
    hp.hslots.(i) <- moved;
    moved.pos <- i;
    hp.hslots.(last) <- dummy_handle;
    sift_up hp i;
    sift_down hp moved.pos
  end
  else hp.hslots.(i) <- dummy_handle

let hpop hp =
  let h = hp.hslots.(0) in
  h.where <- idle;
  h.pos <- idle;
  hp.hsize <- hp.hsize - 1;
  if hp.hsize > 0 then begin
    let last = hp.hsize in
    hp.htimes.(0) <- hp.htimes.(last);
    hp.hseqs.(0) <- hp.hseqs.(last);
    let moved = hp.hslots.(last) in
    hp.hslots.(0) <- moved;
    moved.pos <- 0;
    hp.hslots.(last) <- dummy_handle;
    sift_down hp 0
  end
  else hp.hslots.(0) <- dummy_handle;
  h

type t = {
  due : heap;
  overflow : heap;
  (* Created lazily, on the first insert into a queue that has outgrown
     [wheel_threshold].  Laziness matters for churny small runs: a wheel
     is ~a thousand words of slot vecs that a 2-flow simulation would pay
     for and never use. *)
  mutable wheel : handle Timer_wheel.t option;
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
  }

let wheel_of t =
  match t.wheel with
  | Some w -> w
  | None ->
      let w =
        Timer_wheel.create ~granularity:256e-6 ~start:t.now ~dummy:dummy_handle
          ~move:(fun h ~slot ~idx ->
            h.where <- in_wheel;
            h.wslot <- slot;
            h.pos <- idx)
          ~due:(fun h ~time ~seq -> hpush t.due h ~time ~seq)
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

let insert t h ~at =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.count <- t.count + 1;
  if t.count <= t.wheel_threshold then hpush t.overflow h ~time:at ~seq
  else
    match Timer_wheel.add (wheel_of t) ~time:at ~seq h with
    | Timer_wheel.Placed -> () (* the wheel's move callback filed it *)
    | Timer_wheel.Due -> hpush t.due h ~time:at ~seq
    | Timer_wheel.Far -> hpush t.overflow h ~time:at ~seq

let schedule t ~at action =
  validate t at;
  insert t (make_handle action) ~at

let schedule_after t ~delay action =
  schedule t ~at:(t.now +. Float.max 0. delay) action

let cancel t h =
  if h.where = in_due then begin
    hremove t.due h;
    t.count <- t.count - 1
  end
  else if h.where = in_overflow then begin
    hremove t.overflow h;
    t.count <- t.count - 1
  end
  else if h.where = in_wheel then begin
    (match t.wheel with
    | Some w -> Timer_wheel.remove w ~slot:h.wslot ~idx:h.pos
    | None -> assert false);
    h.where <- idle;
    h.pos <- idle;
    t.count <- t.count - 1
  end

let schedule_handle t h ~at =
  validate t at;
  if h.where = idle then insert t h ~at
  else if h.where = in_overflow then begin
    (* Overflow-resident (small queue or far future): move in place.  A
       fresh sequence number keeps the FIFO tie-break identical to
       cancel + re-arm, and leaving a near event in the overflow heap is
       fine — see [default_wheel_threshold]. *)
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    hmove t.overflow h ~time:at ~seq
  end
  else begin
    (* Due- or wheel-resident: the new time may belong to a different
       container (wheel level, due heap, overflow); cancel + insert
       re-files it, and both halves are O(1) when wheel-resident. *)
    cancel t h;
    insert t h ~at
  end

let is_scheduled h = h.where <> idle

let scheduled_time t h =
  if h.where = in_due then t.due.htimes.(h.pos)
  else if h.where = in_overflow then t.overflow.htimes.(h.pos)
  else if h.where = in_wheel then
    match t.wheel with
    | Some w -> Timer_wheel.time_at w ~slot:h.wslot ~idx:h.pos
    | None -> assert false
  else infinity

let scheduled_at t h =
  let at = scheduled_time t h in
  if Float.is_finite at then Some at else None

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

let step t =
  let hp = source t in
  if hp.hsize = 0 then false
  else begin
    (* Skip the write (and the float box it allocates) when consecutive
       events share a timestamp. *)
    if hp.htimes.(0) <> t.now then t.now <- hp.htimes.(0);
    (* Observer hook, pre-pop: it sees the clock already advanced and the
       due event still pending.  A [None] branch here is vastly cheaper
       than a recurring heap event — one extra resident slot deepens
       every sift path; a predicted branch costs nothing. *)
    (match t.step_hook with None -> () | Some f -> f t.now);
    let h = hpop hp in
    t.count <- t.count - 1;
    h.action ();
    true
  end

let run_until t horizon =
  let rec loop () =
    let hp = source t in
    if hp.hsize > 0 && hp.htimes.(0) <= horizon then begin
      if hp.htimes.(0) <> t.now then t.now <- hp.htimes.(0);
      (match t.step_hook with None -> () | Some f -> f t.now);
      let h = hpop hp in
      t.count <- t.count - 1;
      h.action ();
      loop ()
    end
    else t.now <- Float.max t.now horizon
  in
  loop ()

let run t = while step t do () done

(* Container layouts are deterministic functions of the operation
   sequence, so identical runs produce identical folds, and a marshalled
   copy reproduces the layout exactly.  Actions are closures and cannot
   be content-hashed; the armed times and FIFO sequence numbers pin the
   schedule, which is what divergence diagnosis needs.  While the wheel
   is unallocated the due heap is empty, so the fold is the overflow
   heap's alone. *)
let fold_heap buf hp =
  for i = 0 to hp.hsize - 1 do
    Statebuf.f buf hp.htimes.(i);
    Statebuf.i buf hp.hseqs.(i)
  done

let fold_state buf t =
  Statebuf.f buf t.now;
  Statebuf.i buf (pending t);
  Statebuf.i buf t.next_seq;
  fold_heap buf t.due;
  fold_heap buf t.overflow;
  match t.wheel with None -> () | Some w -> Timer_wheel.fold_state buf w

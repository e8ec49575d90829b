(* One structure-of-arrays binary heap keyed by (time, seq): an unboxed
   float array of times, an int array of FIFO sequence numbers and an
   int array of ids.  One sequence number is consumed per insertion or
   move, so the key is unique and fixes the pop order.

   The heap holds integer ids, never handles.  A per-queue registry maps
   each id to its handle ([reg]) and to its entry's heap index ([loc]).
   A handle takes an id when it goes from idle to queued and gives it
   back, with its registry slot cleared, when it is cancelled or its
   popped entry is settled.  Sifts and swap-with-last removals therefore
   move only floats and ints — no [caml_modify] — and no vacated slot
   keeps a fired or cancelled closure alive.

   Most events re-arm the handle that just fired (a link completion, a
   delay-line head, an RTO check).  So a popped entry is "held": it stays
   at the root, keeping its id, while its action runs, and the handle
   reads idle and uncounted exactly as after a removal.  If the action
   re-arms that handle, the root takes the new (time, seq) and sifts down
   once: one heap operation and no registry write per event, where a pop
   and a push cost two sifts and give back and take again the id, two
   [caml_modify]s among its writes.  Without a re-arm the root is removed
   when the action returns or raises.  Nothing queued meanwhile displaces
   the held root: it is the heap's minimum, and every new entry has time
   >= now and a later seq. *)

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

type t = {
  mutable times : float array; (* unboxed *)
  mutable seqs : int array;
  mutable ids : int array;
  mutable size : int; (* heap entries, the held one included *)
  mutable now : float;
  mutable next_seq : int;
  mutable step_hook : (float -> unit) option;
  (* The registry, indexed by id.  A free id's [reg] slot holds
     [dummy_handle] and its [loc] slot the next free id, so released ids
     are reused last-in first-out and the registry grows only when every
     id is queued: it is as large as the peak number of pending events,
     rounded up to a power of two.  A queued id's [loc] slot is its heap
     index. *)
  mutable reg : handle array;
  mutable loc : int array;
  mutable free_id : int; (* head of the free-id list; [idle] when empty *)
  (* Id of the popped entry held at the root while its action runs;
     [idle] otherwise.  Its [reg] slot still names the handle. *)
  mutable held : int;
}

let create ?(start = 0.) () =
  if not (Float.is_finite start) then
    invalid_arg "Event_queue.create: start must be finite";
  {
    times = [||];
    seqs = [||];
    ids = [||];
    size = 0;
    now = start;
    next_seq = 0;
    step_hook = None;
    reg = [||];
    loc = [||];
    free_id = idle;
    held = idle;
  }

let ensure_room t =
  let cap = Array.length t.times in
  if t.size = cap then begin
    let ncap = if cap = 0 then 16 else 2 * cap in
    let times = Array.make ncap 0.
    and seqs = Array.make ncap 0
    and ids = Array.make ncap 0 in
    Array.blit t.times 0 times 0 t.size;
    Array.blit t.seqs 0 seqs 0 t.size;
    Array.blit t.ids 0 ids 0 t.size;
    t.times <- times;
    t.seqs <- seqs;
    t.ids <- ids
  end

(* Hole sifts: the sifted entry is read into locals once, each entry it
   passes moves one step into the hole, and the entry is written where
   the hole stops.  The decisions are those of a swap sift under the
   strict (time, seq) order — times are validated finite, so plain float
   comparison is exact — so the heap layout is the same.  Every moved id
   gets its new index in [loc].  [sift_up] returns the final index. *)
let sift_up t i =
  let times = t.times and seqs = t.seqs and ids = t.ids and loc = t.loc in
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
      loc.(idp) <- h;
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
  loc.(id0) <- h;
  h

let sift_down t i =
  let times = t.times and seqs = t.seqs and ids = t.ids and loc = t.loc in
  let n = t.size in
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
        loc.(idc) <- h;
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
  loc.(id0) <- h

let take_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

(* [time] arrives boxed from the caller; it is unboxed into the array
   and the sift reads it from there, never as a float argument. *)
let push t id ~time =
  ensure_room t;
  let i = t.size in
  t.times.(i) <- time;
  t.seqs.(i) <- take_seq t;
  t.ids.(i) <- id;
  t.size <- i + 1;
  ignore (sift_up t i)

(* In-place move of the entry at index [i] under a fresh sequence
   number: one sift path instead of remove + push. *)
let move t i ~time =
  t.times.(i) <- time;
  t.seqs.(i) <- take_seq t;
  if sift_up t i = i then sift_down t i

let remove t i =
  let last = t.size - 1 in
  t.size <- last;
  if i < last then begin
    t.times.(i) <- t.times.(last);
    t.seqs.(i) <- t.seqs.(last);
    t.ids.(i) <- t.ids.(last);
    if sift_up t i = i then sift_down t i
  end

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

(* Take an id back once its entry has left the heap.  The handle's own
   [id] is the caller's business: a held entry's handle may already be
   queued elsewhere. *)
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

let set_step_hook t f = t.step_hook <- f
let now t = t.now

let pending t = if t.held = idle then t.size else t.size - 1

(* There is no timer wheel; this stays only for perfbench's
   e14-starvation workload, which reads it. *)
let wheel_allocated (_ : t) = false

let validate t at =
  if not (Float.is_finite at) then
    invalid_arg "Event_queue.schedule: non-finite time";
  if at < t.now then
    invalid_arg
      (Printf.sprintf "Event_queue.schedule: time %.9f is before now %.9f" at t.now)

(* Remove the held entry, if its action left it, and free its id. *)
let settle t =
  let id = t.held in
  if id <> idle then begin
    t.held <- idle;
    remove t t.loc.(id);
    release t id
  end

let schedule t ~at action =
  validate t at;
  push t (acquire t (handle action)) ~time:at

let cancel t h =
  if h.id <> idle then begin
    if not (owns t h) then foreign "cancel";
    remove t t.loc.(h.id);
    release t h.id;
    h.id <- idle
  end

let schedule_handle t h ~at =
  validate t at;
  let id = h.id in
  if id = idle then begin
    let held = t.held in
    if held <> idle && t.reg.(held) == h then begin
      (* The held entry's action re-arms its own handle, which takes the
         id back; the root is reused. *)
      t.held <- idle;
      h.id <- held;
      move t t.loc.(held) ~time:at
    end
    else push t (acquire t h) ~time:at
  end
  else begin
    if not (owns t h) then foreign "schedule_handle";
    move t t.loc.(id) ~time:at
  end

let is_scheduled h = h.id <> idle

let scheduled_time t h =
  let id = h.id in
  if id = idle then infinity
  else begin
    if not (owns t h) then foreign "scheduled_time";
    t.times.(t.loc.(id))
  end

(* The one pop path of [step] and [run_until]: run the next event if it
   is due by [horizon], holding its entry while the action runs, and say
   whether one ran. *)
let fire_next t horizon =
  (* Only an action that itself steps the queue finds an entry held. *)
  settle t;
  if t.size = 0 || t.times.(0) > horizon then false
  else begin
    (* Skip the write (and the float box it allocates) when consecutive
       events share a timestamp. *)
    if t.times.(0) <> t.now then t.now <- t.times.(0);
    (* Observer hook, pre-pop: it sees the clock already advanced and the
       due event still pending.  A [None] branch here is vastly cheaper
       than a recurring heap event — one extra resident slot deepens
       every sift path; a predicted branch costs nothing. *)
    (match t.step_hook with None -> () | Some f -> f t.now);
    let id = t.ids.(0) in
    let h = t.reg.(id) in
    h.id <- idle;
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

(* The heap layout is a deterministic function of the operation
   sequence, so identical runs produce identical folds, and a marshalled
   copy reproduces the layout exactly.  Actions are closures and cannot
   be content-hashed; the armed times and FIFO sequence numbers pin the
   schedule, which is what divergence diagnosis needs.  Ids are not
   folded: they name registry slots, not events, and a held entry is
   not pending, so it is skipped. *)
let fold_state buf t =
  Statebuf.f buf t.now;
  Statebuf.i buf (pending t);
  Statebuf.i buf t.next_seq;
  for i = 0 to t.size - 1 do
    if t.ids.(i) <> t.held then begin
      Statebuf.f buf t.times.(i);
      Statebuf.i buf t.seqs.(i)
    end
  done

(* All-float box: assigning the field is an unboxed store, unlike a
   mutable float field in the mixed record below (2 words per write). *)
type fbox = { mutable v : float }

type 'a t = {
  eq : Event_queue.t;
  dummy : 'a;
  deliver : 'a -> unit;
  handle : Event_queue.handle;
  mutable items : 'a array; (* ring buffer *)
  mutable dues : float array; (* parallel ring, unboxed *)
  mutable head : int;
  mutable len : int;
  last_due : fbox; (* largest due ever accepted by the ring *)
  mutable pushes : int;
  mutable fallbacks : int;
}

let length t = t.len
let pushes t = t.pushes
let fallbacks t = t.fallbacks

let fire t =
  let cap = Array.length t.items in
  let x = t.items.(t.head) in
  t.items.(t.head) <- t.dummy;
  t.head <- (if t.head + 1 = cap then 0 else t.head + 1);
  t.len <- t.len - 1;
  t.deliver x;
  (* Re-arm for the new head (if [deliver] pushed while the line was
     empty the handle is already armed; schedule_handle just moves it). *)
  if t.len > 0 then Event_queue.schedule_handle t.eq t.handle ~at:t.dues.(t.head)

let create ~eq ~dummy deliver =
  let t =
    {
      eq;
      dummy;
      deliver;
      handle = Event_queue.handle ignore;
      items = [||];
      dues = [||];
      head = 0;
      len = 0;
      last_due = { v = neg_infinity };
      pushes = 0;
      fallbacks = 0;
    }
  in
  Event_queue.set_action t.handle (fun () -> fire t);
  t

let ensure_room t =
  let cap = Array.length t.items in
  if cap = 0 then begin
    t.items <- Array.make 16 t.dummy;
    t.dues <- Array.make 16 0.
  end
  else if t.len = cap then begin
    let items = Array.make (2 * cap) t.dummy and dues = Array.make (2 * cap) 0. in
    (* Unwrap the ring so head lands at 0. *)
    let tail_run = min t.len (cap - t.head) in
    Array.blit t.items t.head items 0 tail_run;
    Array.blit t.dues t.head dues 0 tail_run;
    Array.blit t.items 0 items tail_run (t.len - tail_run);
    Array.blit t.dues 0 dues tail_run (t.len - tail_run);
    t.items <- items;
    t.dues <- dues;
    t.head <- 0
  end

let push t ~due x =
  if not (Float.is_finite due) then invalid_arg "Delay_line.push: non-finite time";
  t.pushes <- t.pushes + 1;
  if due < t.last_due.v then begin
    (* Non-monotone release schedule: this payload would overtake queued
       ones, so hand it straight to the event queue — exactly the naive
       per-packet scheduling the line replaces — and count the escape. *)
    t.fallbacks <- t.fallbacks + 1;
    Event_queue.schedule t.eq ~at:due (fun () -> t.deliver x)
  end
  else begin
    t.last_due.v <- due;
    ensure_room t;
    let cap = Array.length t.items in
    let tail = t.head + t.len in
    let tail = if tail >= cap then tail - cap else tail in
    t.items.(tail) <- x;
    t.dues.(tail) <- due;
    t.len <- t.len + 1;
    if t.len = 1 then Event_queue.schedule_handle t.eq t.handle ~at:due
  end

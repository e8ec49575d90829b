(** FIFO delay queue with one outstanding event-queue entry.

    The paper's §3 model makes the bottleneck FIFO and the jitter element
    non-reordering, so each flow's ACK-release times, and the delivery
    times of every flow with one propagation delay, are monotone
    non-decreasing.  That means a heap event per packet is
    unnecessary: queue the pending deliveries in a ring buffer and keep a
    single {!Event_queue.handle} armed for the head's due time.  The event
    queue's size becomes O(flows + link) instead of O(bytes in flight),
    and a push costs two array stores instead of a closure plus a heap
    record.

    Payloads are delivered strictly in push order at their due times.  If
    a due time ever regresses below the largest due accepted so far (a
    non-monotone policy), that payload falls back to naive per-packet
    {!Event_queue.schedule} — time-ordered delivery, exactly the semantics
    the line replaces — and the escape is counted in {!fallbacks}. *)

type 'a t

val create : eq:Event_queue.t -> dummy:'a -> ('a -> unit) -> 'a t
(** [create ~eq ~dummy deliver]: [deliver] is invoked once per payload, at
    its due time, inside its own event-queue event.  [dummy] fills vacated
    ring slots so the line never pins delivered payloads. *)

val push : 'a t -> due:float -> 'a -> unit
(** Append a payload due at absolute time [due].  Allocation-free on the
    monotone path.  [due] must be at or after the current head's due time
    minus nothing — i.e. callers must not push a due time earlier than the
    event-queue clock will be when the payload reaches the head (true for
    any [due >= now], which monotone sources guarantee).
    @raise Invalid_argument on a non-finite [due]. *)

val length : 'a t -> int
(** Payloads queued and not yet delivered (excludes fallback payloads). *)

val pushes : 'a t -> int
(** Total payloads ever pushed. *)

val fallbacks : 'a t -> int
(** Payloads that took the non-monotone per-packet escape hatch.  Stays 0
    for every jitter policy shipped today (the element clamps releases to
    monotone). *)

val fold_state : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a t -> unit
(** [fold_state item buf t] appends the queued payloads (via [item], in
    delivery order, with their due times) and the line's counters to a
    {!Statebuf} encoding.  Payloads that took the fallback path live in
    the event queue, not here; they are covered by the event-queue fold. *)

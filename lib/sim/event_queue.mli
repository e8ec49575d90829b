(** Deterministic discrete-event scheduler.

    Events are ordered by (time, insertion sequence).  The sequence
    tiebreak makes simultaneous events run in scheduling order, which keeps
    every simulation fully deterministic — a requirement for the paper's
    Theorem 1 construction, where a flow's trajectory must replay exactly.

    Two scheduling interfaces share one queue:

    - {!schedule} takes a fresh thunk per event — convenient, but each call
      allocates, which adds up to several heap words per simulated packet.
    - {!schedule_handle} re-arms a preallocated {!handle} whose callback was
      installed once.  The heap stores times in an unboxed float array, so
      re-arming a handle allocates nothing; handles are also cancellable and
      reschedulable, so superseded timers no longer pile dead closures into
      the queue.  This is the hot path used by {!Link}, {!Flow} and
      {!Delay_line}.

    The pending events live in one structure-of-arrays binary heap
    keyed by (time, sequence): O(log n) arm, move, cancel and pop.  One
    global FIFO sequence number is consumed per insertion or move, so
    the key is unique and fixes the pop order.

    The heap holds integer ids, not handles.  Each queue keeps a
    registry from id to handle and to the entry's heap index: a handle
    takes an id when it goes from idle to queued, and gives it back —
    its registry slot cleared — when it is cancelled, or when its
    action returns without re-arming it.  Ids are reused, so the
    registry is as large as the peak number of pending events.  Sifts
    and removals therefore move only floats and ints and write no
    pointer, and the queue never keeps a fired or cancelled closure
    alive.  An id means something only in the registry that issued it,
    so a queued handle belongs to exactly one queue, and every
    operation that takes a queue and a queued handle checks that the
    handle is queued there.

    A popped entry stays at the root of the heap while its action runs,
    the handle reading idle as after a removal.  If the action re-arms
    the handle, the entry is rewritten in place and sifted down once: a
    self-re-arming event (a link completion, a delay-line head, a flow
    timer) costs one heap operation and no registry write. *)

type t

val create : ?start:float -> unit -> t
(** [start] (default 0) sets the initial clock — used by constructions that
    continue a flow on a new network sharing the old timeline.
    @raise Invalid_argument if [start] is not finite. *)

val now : t -> float
(** Current simulation time. *)

val schedule : t -> at:float -> (unit -> unit) -> unit
(** Schedule a thunk at absolute time [at].
    @raise Invalid_argument if [at] is in the past or not finite. *)

val pending : t -> int
(** Number of events not yet executed.  O(1). *)

val wheel_allocated : t -> bool
(** Always [false]: the queue has no timer wheel.  Kept only because
    perfbench's e14-starvation workload ([perfbench/w_e14.ml]) reads
    it; it goes with that workload's [event_queue.wheel_allocated]
    metric. *)

val step : t -> bool
(** Run the next event.  Returns [false] when the queue is empty. *)

val set_step_hook : t -> (float -> unit) option -> unit
(** Install an observer called once per {!step} with the current clock,
    after it has advanced to the due event's time and before the event's
    action runs.  The
    hook must not mutate the queue (it is for periodic observers such as
    the invariant monitor, which audits whenever [now] crosses its next
    boundary).  Hook-based observation deliberately avoids a recurring
    heap event: at this simulator's typical handful of pending events,
    one extra resident slot measurably deepens every sift path, while an
    un-taken branch in [step] is free.  [None] (the default) removes the
    hook. *)

val run_until : t -> float -> unit
(** Run all events with time <= the horizon, then advance [now] to the
    horizon.  Events scheduled during execution are honored if they fall
    within the horizon.
    @raise Invalid_argument if the horizon is NaN (the clock would
    become NaN). *)

val run : t -> unit
(** Run until the queue is empty.  Diverges if events keep rescheduling. *)

(** {2 Allocation-free handles} *)

type handle
(** A reusable event slot: one callback, at most one queued occurrence.
    While queued, a handle belongs to the queue that holds it (the one
    whose registry issued its id); once popped or cancelled it is idle
    and may be armed in any queue. *)

val handle : (unit -> unit) -> handle
(** Fresh idle handle with the given callback. *)

val set_action : handle -> (unit -> unit) -> unit
(** Replace the callback — used to tie knots where the callback must
    capture a record that itself stores the handle.
    @raise Invalid_argument if the handle is queued. *)

val schedule_handle : t -> handle -> at:float -> unit
(** Arm the handle at absolute time [at].  If it is already queued it is
    {e moved} to [at] in place with a fresh sequence number (exactly as
    if it had been cancelled and re-armed) and keeps its id; otherwise it
    takes an id and is inserted.  Allocates nothing.
    @raise Invalid_argument if [at] is in the past or not finite, or if
    the handle is queued in another queue. *)

val cancel : t -> handle -> unit
(** Remove the handle's queued occurrence, if any, and free its id.  The
    entry is physically deleted from the heap (not tombstoned), so
    {!pending} stays honest.  A no-op on an idle handle.
    @raise Invalid_argument if the handle is queued in another queue. *)

val is_scheduled : handle -> bool
(** Whether the handle is queued (in any queue).  [false] inside the
    handle's own action until it re-arms itself. *)

val scheduled_time : t -> handle -> float
(** Time the handle is armed for; [infinity] when idle — inside its own
    action too, until it re-arms itself — so no option is built (the
    returned float is still boxed).
    @raise Invalid_argument if the handle is queued in another queue. *)

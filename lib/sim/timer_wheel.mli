(** Hierarchical timing wheel: O(1) schedule/cancel for near-future
    events, backing {!Event_queue}'s hybrid scheduler.

    Time is discretised into ticks of [granularity] seconds (default
    1e-6 s).  The wheel has {!levels} levels of {!slots_per_level}
    slots; level [l] spans [32^(l+1)] ticks, so the default horizon is
    [32^7] ticks ~ 9.5 hours of simulated time at 1 us resolution.

    Level assignment is by the highest differing 5-bit group between an
    event's tick and the cursor's tick (the scheme used by hashed
    hierarchical wheels): an entry lives at the level of its highest
    tick-bit that differs from the cursor.  This makes cascades strictly
    downward — when the cursor enters a level-[l] block, every entry in
    that block's slot re-files at a level [< l] or becomes due — and
    makes slot reconstruction wrap-free, so the next pending tick can be
    recovered exactly from occupancy bitmaps.

    Events whose tick differs from the cursor above the top level do not
    fit ([add] returns [Far]); the caller keeps those in a separate
    overflow structure (Event_queue uses its binary heap).  Entries
    store the exact [(time, seq)] pair they were scheduled with, so the
    caller can reproduce a binary heap's FIFO tie-break order exactly.

    The wheel is monomorphic: an entry's payload is the caller's [int]
    id (Event_queue's registry index), so storing, relocating or
    surrendering an entry writes no pointer and a vacated slot retains
    nothing.  The wheel never runs callbacks itself: [move] reports
    storage relocation (so the caller can keep an id -> location map)
    and [due] surrenders entries whose tick the cursor has reached.
    Both must not reentrantly mutate the wheel. *)

type t

val slots_per_level : int
val levels : int

type placement =
  | Placed  (** stored in the wheel; [move] was called with its location *)
  | Due  (** tick <= cursor: caller must treat it as immediately runnable *)
  | Far  (** beyond the horizon: caller must keep it elsewhere *)

val create :
  ?granularity:float ->
  start:float ->
  move:(int -> slot:int -> idx:int -> unit) ->
  due:(int -> time:float -> seq:int -> unit) ->
  unit ->
  t
(** [granularity] is the tick width in seconds (default [1e-6]).
    [start] positions the initial cursor.  [move id ~slot ~idx] is
    called whenever [id] is stored or relocated; [remove] takes the same
    coordinates back.  [slot] is below [levels * slots_per_level] (224).
    [due id ~time ~seq] is called from {!advance} for
    every entry whose tick the cursor reached, in unspecified order —
    the caller re-sorts by [(time, seq)] (Event_queue pushes into its
    due heap). *)

val size : t -> int
(** Entries currently stored in the wheel (excludes [Due]/[Far]). *)

val tick_of : t -> float -> int
(** The discretisation used for every placement decision:
    [floor (time / granularity)].  Exposed so the caller can compare
    overflow-heap times against wheel ticks in tick space (float
    products of tick * granularity could misorder by an ulp). *)

val placement : t -> time:float -> placement
(** Where {!add} would file [time] now, without filing it. *)

val add : t -> time:float -> seq:int -> int -> placement
(** O(1).  On [Placed], [move] has been called with the entry's
    location.  On [Due]/[Far] the wheel stores nothing. *)

val remove : t -> slot:int -> idx:int -> unit
(** O(1) cancel by location (as last reported via [move]).  The entry
    occupying the slot's tail is swapped in and gets a [move]
    callback. *)

val time_at : t -> slot:int -> idx:int -> float

val next_tick : t -> int
(** Smallest tick among stored entries; O(1) amortised via an exact
    memo, O(levels * 32 + occupied-slot scan) on recompute.
    Precondition: [size t > 0]. *)

val advance : t -> int -> unit
(** [advance t target] moves the cursor to [target] (which must be
    above the current cursor tick and [<= next_tick t] when entries
    exist — the caller advances to exactly the next pending tick),
    cascading higher-level slots downward and emitting every entry with
    [tick = target] via [due]. *)

val fold_state : Buffer.t -> t -> unit
(** Deterministic digest of cursor + stored [(time, seq)] pairs in
    storage order, for {!Network.state_hash}. *)

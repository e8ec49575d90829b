(** Append-only time series with non-decreasing timestamps.

    Monitors record (time, value) samples; the analysis code in [lib/core]
    then queries windows, looks values up and integrates.
    Values between samples are interpreted as a step function (the value
    holds until the next sample) — the natural reading for cwnd, queue
    length and delay trajectories.

    Storage: a time column and a value column, each in fixed-size,
    zero-filled chunks of 2048 rows, so a sample costs two floats
    (16 B), an append never copies earlier samples, and a column holds
    at most one chunk of slack.  A {!group} shares one time column among
    three series, so a row costs four floats (32 B).  [=] and [Marshal]
    see only the samples: two series built from the same samples are
    equal and marshal to the same bytes, whatever was queried since. *)

type t

val create : ?name:string -> unit -> t
val length : t -> int

val add : t -> time:float -> float -> unit
(** @raise Invalid_argument if [time] decreases, or if [t] is a member
    of a {!group}. *)

type group
(** Three series recorded at the same instants, sharing one time
    column. *)

val group : string -> string -> string -> group
(** Three empty members with the given names. *)

val members : group -> t * t * t
(** The members, in the order {!group} named them.  They answer every
    query, {!fold_state} included, exactly as three standalone series
    fed the same samples would; {!add} on one raises. *)

val add_row : group -> time:float -> float -> float -> float -> unit
(** Append one sample to each member at [time], in member order.
    Allocates nothing but a new chunk per column every 2048 rows.
    @raise Invalid_argument if [time] decreases. *)

val times : t -> float array
val values : t -> float array
(** [times] and [values] each return a fresh O(n) copy of the whole
    series, so a caller that indexes samples in a loop must read the array
    once before the loop, never once per sample. *)

val last : t -> (float * float) option
val first : t -> (float * float) option

val fold_state : Buffer.t -> t -> unit
(** Append name, length and every (time, value) bit pattern to a
    {!Statebuf} encoding — part of {!Network.state_hash}. *)

val value_at : t -> float -> float option
(** Step interpolation: the value of the latest sample at or before the
    query time; [None] before the first sample. *)

val window : t -> t0:float -> t1:float -> (float * float) list
(** Samples with [t0 <= time <= t1], in order.

    All four window queries locate both window ends by binary search, so
    they cost O(log n + k) for a window of k samples — repeated queries
    over a long run don't rescan the whole series.

    Degenerate windows are well-defined, not caller-discipline: a window
    containing no samples — whether it falls between two samples, lies
    entirely outside the recorded range, or is inverted ([t1 < t0]) —
    yields the empty result ([[]], [[||]], [None], [None] respectively).
    A point window [t0 = t1] that hits a sample time exactly yields just
    the samples at that time.  A NaN bound raises [Invalid_argument]
    from all four queries (it would otherwise select an arbitrary
    range). *)

val window_values : t -> t0:float -> t1:float -> float array
(** Values of the samples in the window, in time order (one blit per
    chunk the window spans — no intermediate list).  Empty array on a
    window containing no samples; see {!window} for the
    degenerate-window contract. *)

val min_max_in : t -> t0:float -> t1:float -> (float * float) option
(** Extrema of samples within the window; [None] if no sample falls in
    it (including inverted windows — see {!window}).  Folds in place
    over the value chunks, copying nothing. *)

val mean_in : t -> t0:float -> t1:float -> float option
(** Mean of samples within the window; [None] if no sample falls in it
    (including inverted windows — see {!window}).  Numerically identical
    to [Stats.mean (window_values t ~t0 ~t1)] (same left-to-right
    summation order). *)

val integral : t -> t0:float -> t1:float -> float
(** Integral of the step function over [t0, t1].  Uses the last sample at or
    before [t0] as the initial value (0 if none). *)

val map : (float -> float) -> t -> t
(** Pointwise transformation of the values; timestamps preserved. *)

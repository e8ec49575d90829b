(** Flat column arena for per-flow CCA state.

    The columnar layout contract for {!Cca} implementations: all float
    state of one CCA kind lives in one [float array], one row of
    [nfields] consecutive cells per instance, row [r]'s field [f] at
    index [r * nfields + f].  Rows are allocated with {!alloc} and
    recycled through a free list with {!free}.

    Constructors like [Reno.make_in] take an arena and return a
    {!Cca.instance} whose closures hold only the arena and a row's base
    offset; releasing the instance returns the row to the free list, so
    a churning million-flow population's CCA state footprint is bounded
    by peak concurrency, not population size.

    Each callback reads the backing array with {!data} once and indexes
    it at its row's base offset.  [data] returns a pointer, and a load or
    store through a [float array] is unboxed, so the callback allocates
    nothing for its state.  The rule: {!alloc} may replace the backing
    array (growth), so read {!data} again after any [alloc] — in
    practice, at the start of every callback — and never keep the array
    across events. *)

type t

val create : ?capacity:int -> nfields:int -> unit -> t
(** Arena with rows of [nfields] float cells; [capacity] (default 16,
    at least 1) pre-sizes the backing array in rows.
    @raise Invalid_argument if [nfields <= 0]. *)

val nfields : t -> int

val data : t -> float array
(** The current backing array: row [r]'s field [f] is at
    [r * nfields t + f].  Valid until the next {!alloc}, which may
    replace it; cells of rows that are not live are unspecified. *)

val alloc : t -> int
(** Pop the most recently freed row (or extend the arena, doubling the
    backing array when full) and zero-fill it.  Returns the row index. *)

val free : t -> int -> unit
(** Return a live row to the free list.  The caller must not touch the
    row afterwards; {!alloc} will hand it out again zeroed.
    @raise Invalid_argument naming the row if it was never allocated or
    is already free, so a double release cannot hand one row to two
    instances. *)

val rows : t -> int
(** Rows ever allocated — the high-water mark, free or live. *)

val live : t -> int
(** Rows currently allocated and not freed. *)

val capacity : t -> int
(** Rows the backing array can hold before the next growth. *)

(** TCP NewReno congestion avoidance (loss-based AIMD).

    Slow start to [ssthresh], then one segment of window growth per RTT
    (byte-counted).  A dup-ACK loss halves the window; a timeout resets it
    to one segment.  Losses within one RTT of a reduction are treated as
    part of the same congestion event (standard fast-recovery behavior),
    which is what bounds AIMD unfairness under bursty loss (§5.4). *)

type params = {
  init_cwnd_packets : float;
  initial_ssthresh : float;  (** bytes; [infinity] = slow start until loss *)
  mss : int;
}

val default_params : params
val make : ?params:params -> unit -> Cca.t
(** A one-row {!make_in}: the instance gets an arena of its own.
    @raise Invalid_argument naming the field unless [init_cwnd_packets]
    is finite and positive, [initial_ssthresh] is positive ([infinity]
    is legal) and [mss] is positive.  NaN fails every check; {!make_in}
    applies the same checks. *)

val nfields : int
(** Float cells per instance in the columnar layout. *)

val make_in : ?params:params -> Columns.t -> Cca.instance
(** The one implementation: all state in one row of the given arena
    (which must have {!nfields} fields), so [on_ack] allocates nothing.
    The returned instance is resettable and its [release] frees the row.
    qcheck properties check it bit for bit against a boxed reference
    implementation kept in the test suite. *)

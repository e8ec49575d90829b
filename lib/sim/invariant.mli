(** Runtime invariant monitor for the simulator.

    A passive recorder of named conservation-law checks that {!Network}
    (or any harness) evaluates while a simulation runs: packet/byte
    conservation at the bottleneck, event-clock monotonicity, queue
    occupancy against the buffer, jitter-bound compliance, and CCA output
    sanity.  A failed check never aborts the run — it is tallied and (up
    to a cap) recorded with a human-readable detail, so chaos harnesses
    can assert "zero violations" and debugging sessions can read what
    went wrong and when. *)

type violation = {
  time : float;  (** simulation time at which the check failed *)
  check : string;  (** check name, e.g. ["link-conservation"] *)
  detail : string;
}

type t

val create : ?max_recorded : int -> unit -> t
(** A fresh monitor.  At most [max_recorded] (default 100) violations keep
    their full detail; the total count and per-check tally are exact
    regardless. *)

val check : t -> time:float -> name:string -> detail:(unit -> string) -> bool -> unit
(** [check t ~time ~name ~detail cond] records a violation of [name] when
    [cond] is false.  [detail] is only forced on failure. *)

val count : t -> int
(** Total violations recorded so far. *)

val checks_run : t -> int
(** Total conditions evaluated (passes + failures). *)

val ok : t -> bool
(** [count t = 0]. *)

val violations : t -> violation list
(** Recorded violations, oldest first (capped at [max_recorded]). *)

val by_check : t -> (string * int) list
(** Exact per-check failure tally, sorted by check name. *)

val summary : t -> string
(** One-line human-readable summary, e.g.
    ["0 violations in 1200 checks"] or
    ["3 violations in 1200 checks: link-conservation x2, queue-bound x1"]. *)

val report : t -> string
(** The {!summary} line followed by up to 20 recorded violations, one
    per line as ["[t=<sim time>] <check>: <detail>"], plus a truncation
    marker when more were tallied than shown. *)

val fold_state : Buffer.t -> t -> unit
(** Append the counts and the per-check tally (sorted by check name) to a
    {!Statebuf} encoding — part of {!Network.state_hash}. *)

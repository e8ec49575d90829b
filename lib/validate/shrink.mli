(** Automatic minimization of invariant-tripping scenarios.

    When a run under the {!Sim.Invariant} monitor reports violations,
    [shrink] delta-debugs the configuration — halving the horizon,
    dropping fault events one at a time, dropping flows (with fault flow
    indices remapped) — keeping each reduction only if a fresh run still
    trips the {e same} check, and iterating to a fixpoint.  The output is a minimal
    runnable reproducer: typically one or two flows and at most one fault
    event, which turns "the chaos matrix failed" into a scenario small
    enough to read.

    Every trial runs a deep copy of the candidate config
    ({!copy_config}): configs embed instantiated CCA closures whose
    mutable state would otherwise leak between trials. *)

type result = {
  config : Sim.Network.config;  (** minimized scenario, monitor included *)
  check : string;  (** invariant check name it trips *)
  violations : int;  (** tally of [check] in the last confirming run *)
  runs : int;  (** trial runs spent *)
}

val copy_config : Sim.Network.config -> Sim.Network.config
(** Deep copy via a closure-carrying Marshal round trip, so running the
    copy cannot dirty CCA state reachable from the original. *)

val trips : ?monitor_period:float -> Sim.Network.config -> (string * int) list
(** Run a deep copy of the config to its horizon and return the
    invariant checks that failed with their tallies (empty when the run
    is clean).  If the config has no [monitor_period], one is supplied
    ([monitor_period], default 0.05 s). *)

val shrink : ?monitor_period:float -> Sim.Network.config -> result option
(** Minimize.  [None] if the initial run does not trip any invariant.
    At most 200 trial simulations are spent;
    whatever has been confirmed when the budget runs out is returned. *)

val describe : result -> string
(** One-line human summary: check name, flow / fault-event counts,
    duration, violation tally, trials spent. *)

exception Incompatible of string
(** Raised by {!load_repro} on an unreadable file, a foreign binary, bad
    magic, truncation or digest mismatch. *)

val write_repro : string -> result -> unit
(** Persist crash-atomically.  The file embeds the producing binary's
    digest {e outside} the closure-carrying payload, so {!load_repro}
    refuses foreign files before [Marshal] ever parses them. *)

val load_repro : string -> result
(** @raise Incompatible on an unreadable file, a foreign binary, bad
    magic, truncation or digest mismatch. *)

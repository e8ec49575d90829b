(** Seeded scenario fuzzing: random configurations over CCA mix × jitter
    × faults × buffer/horizon, each cross-examined by every applicable
    oracle, with violations shrunk into minimal reproducers and
    persisted as a replayable corpus.

    Reproducibility contract: scenario [i] of seed [S] is generated from
    [Rng.stream (Rng.create ~seed:S) ~label:"scenario-i"] — a pure
    function of (S, i).  [repro --fuzz N --fuzz-seed S] therefore
    revisits exactly the same scenarios on any machine, and a nightly
    seed rotation only has to vary [S]. *)

type violation = {
  id : int;  (** scenario index within the fuzz run *)
  summary : string;  (** generated-scenario parameter digest line *)
  failing : Oracle.verdict list;
  shrunk : string option;
      (** [Shrink.describe] of the minimized reproducer, when the
          violation trips the invariant monitor and shrinking succeeded *)
  repro_path : string option;  (** on-disk reproducer, when persisted *)
}

type report = {
  seed : int;
  samples : int;
  verdicts_checked : int;
  violations : violation list;
}

val check_sample :
  seed:int -> id:int -> unit -> Oracle.verdict list * string
(** Run scenario [id] of [seed] through every oracle: a monitored run
    (invariant checks including the conservation chain), end-state
    conservation verdicts, a determinism rerun (state hashes must
    match), and the exact rescale-×2 metamorphic property.  Returns all
    verdicts plus the scenario summary. *)

val run :
  ?dir:string -> ?log:(string -> unit) -> seed:int -> n:int -> unit -> report
(** Fuzz [n] scenarios.  For each violation: shrink (when the invariant
    monitor trips) and, when [dir] is given, persist
    [<dir>/fuzz-<seed>/scenario-<id>.json] (verdicts + summary) and
    [.../scenario-<id>.repro.bin] (a {!Shrink} reproducer loadable
    by [repro --replay]).  [log] receives one progress line per
    violation.
    @raise Invalid_argument if [n < 0]. *)

val report_to_json : report -> string

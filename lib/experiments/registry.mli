(** All experiments, keyed by the names [repro] and the benchmark harness
    use.

    An experiment is its [plan]: the experiment's independent simulations
    as {!Runner.Job.t} values plus a merge that rebuilds the report rows
    from the job payloads.  Plans from several experiments can be
    flattened into one {!Runner.Supervise.run} call, which is how
    [run_selection] parallelizes and caches whole-suite runs while
    keeping the printed output byte-identical to the serial run.  Running
    one plan in-process is [merge (List.map Runner.Job.force jobs)]. *)

type plan = {
  jobs : Runner.Job.t list;
  merge : bytes list -> Report.row list;
      (** Takes the job payloads in submission order.  May print
          experiment-specific tables (they appear after the jobs' own
          replayed stdout, before the report table). *)
}

type experiment = {
  key : string;  (** CLI name, e.g. "copa" *)
  title : string;
  plan : quick:bool -> backend:Fluid.Backend.t -> plan;
      (** [backend] selects the simulation substrate.  Experiments with a
          fluid/hybrid port embed it in their job keys (a cached packet
          result must never satisfy a fluid request); packet-only
          experiments ignore it and keep backend-free keys, so they cache
          across backend selections. *)
}

val all : experiment list

val find : string -> experiment option
(** Looks up [all] plus the hidden [selftest-fail] experiment, whose only
    job raises deliberately — the fixture behind the exit-code tests for
    quarantined jobs. *)

val keys : unit -> string list
(** The public experiment keys, in registry order. *)

val select : string list -> (experiment list, string) result
(** Resolve CLI experiment names ([[]] means all).  The error for an
    unknown key names both the offending keys and every available one. *)

val run_selection :
  ?quick:bool ->
  ?sim_backend:Fluid.Backend.t ->
  ?workers:int ->
  ?cache:Runner.Cache.t ->
  ?policy:Runner.Supervise.policy ->
  ?allow_failures:bool ->
  experiment list ->
  Report.row list * Runner.Pool.stats
(** Run the given experiments as one supervised job matrix
    ({!Runner.Supervise.run}; [workers] defaults to 1 = serial
    in-process), printing each experiment's output and table in registry
    order; returns the concatenated rows and the pool counters.  Output
    is byte-identical for any worker count and for cached re-runs.
    [sim_backend] (default [Packet]) is the simulation substrate handed
    to each experiment's plan — the [repro --backend] flag.

    Every call is supervised, with [policy] (default
    {!Runner.Supervise.default_policy}) setting per-attempt deadlines
    and retries with backoff; failure records land in [cache].  The
    merge layer needs every payload, so a quarantined job raises — but
    only after the rest of the matrix completed and cached its results,
    so a subsequent run on the same cache re-executes only the
    stragglers, a quarantined job included.  With
    [allow_failures] a quarantine instead skips the whole owning
    experiment (notice on stderr, no rows) and the run completes; the
    quarantine still shows in the returned stats.
    @raise Runner.Pool.Job_failed if a job is quarantined (unless
    [allow_failures]). *)

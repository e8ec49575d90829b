(** Fork-based worker pool with deterministic merge.

    [run jobs] executes every job and returns, in job order, the pair of
    the stdout the job printed and its marshalled result.  Jobs are
    dispatched to [workers] forked child processes over pipes carrying
    length-prefixed [Marshal] frames; a worker that crashes is respawned
    and its in-flight job retried; a worker stuck past [timeout] is
    killed the same way.  Because each job's stdout is captured at the
    job and replayed by the caller in job order, and results are
    collected into a slot per job, the observable output is byte-for-byte
    identical to the serial run regardless of how jobs were scheduled
    across workers.

    With [workers <= 1] jobs run serially in-process (no fork), through
    the same capture machinery, so serial and parallel runs share one
    output path.  With a [cache], jobs whose key is already stored are
    not executed at all — their recorded stdout and result are replayed —
    and freshly computed results are stored.

    Jobs must be pure (their thunks re-run after a crash must produce the
    same result) and must not write to stderr if byte-identical streams
    are required there too (only stdout is captured). *)

type stats = {
  jobs : int;  (** total jobs submitted *)
  cache_hits : int;  (** jobs served from the cache, not executed *)
  executed : int;  (** jobs actually simulated this run *)
  respawns : int;  (** workers replaced after a crash or timeout *)
  retried : int;
      (** job attempts beyond the first, across supervision waves —
          always 0 from {!run}/{!run_results}; filled by {!Supervise} *)
  quarantined : int;
      (** jobs abandoned after exhausting every supervised attempt —
          always 0 from {!run}/{!run_results}; filled by {!Supervise} *)
  resumed : int;
      (** jobs skipped because a resume journal marked them done —
          always 0 from {!run}/{!run_results}; filled by {!Supervise} *)
}

exception Job_failed of { key : string; reason : string }
(** Raised by {!run} when a job raises, or when it exhausts
    [max_attempts] via worker crashes or timeouts.  All workers are
    killed first. *)

exception Heap_ceiling_exceeded of { limit : int; reached : int }
(** A job's major heap grew past the configured ceiling (in words).
    Raised inside the worker by a GC alarm and surfaced to the caller as
    that job's [Error] string — a deterministic failure, never retried. *)

val default_workers : unit -> int
(** Parallelism matching the machine (the runtime's recommended domain
    count). *)

(** How parallel workers are realized when [workers >= 2]:

    - [`Fork] (the default): isolated child processes.  Full feature set
      — per-job stdout capture, crash respawns, per-attempt [timeout],
      [heap_ceiling_words] — at the cost of a fork per worker and a
      [Marshal] round-trip per result.
    - [`Domain]: shared-memory domains in this process, work-stealing off
      one atomic counter.  No fork, no pipe, no marshalling across a
      process boundary — but also no isolation: [timeout],
      [max_attempts] and [heap_ceiling_words] are ignored (a stuck or
      crashing job takes the whole run down), and since fd redirection
      is process-global there is {e no per-job stdout capture}: fresh
      jobs report [""] and the cache records [""].  Only hand this
      backend jobs that print nothing (the census cells, whose tables
      are built by the merge); such runs stay byte-identical to [-j 1]
      and to [`Fork].

    The two backends do not mix within one process: on OCaml 5,
    [Unix.fork] is disallowed for the rest of the process once any
    domain has been spawned, so after the first [`Domain] run a
    [`Fork] run can only be served from the cache.  Pick one backend
    per process (the CLI's [--pool] does exactly that).

    Serial runs ([workers <= 1]) ignore the backend entirely. *)
type backend = [ `Fork | `Domain ]

val run_results :
  ?backend:backend ->
  ?workers:int ->
  ?timeout:float ->
  ?cache:Cache.t ->
  ?max_attempts:int ->
  ?heap_ceiling_words:int ->
  ?on_done:(Job.t -> unit) ->
  Job.t list ->
  (string * (bytes, string) result) list * stats
(** Like {!run} but total: every job yields either [Ok payload] or
    [Error reason] in its slot and the whole matrix always completes —
    one bad job cannot discard its siblings' finished work.  [Error]
    covers a raising job (including {!Heap_ceiling_exceeded}), and a
    worker crash / per-attempt [timeout] repeated [max_attempts] times.
    [heap_ceiling_words] bounds each job's major heap; like [timeout] it
    is enforced only on forked workers ([workers >= 2]).  [on_done] fires
    in the parent the moment a job's result lands (cache hit or fresh
    execution, after any cache store) — {!Supervise} uses it to journal
    completions incrementally so a killed run can resume.
    @raise Invalid_argument if [timeout] is NaN, infinite or [<= 0]. *)

val run :
  ?backend:backend ->
  ?workers:int ->
  ?timeout:float ->
  ?cache:Cache.t ->
  ?max_attempts:int ->
  ?heap_ceiling_words:int ->
  Job.t list ->
  (string * bytes) list * stats
(** [run jobs] = per-job [(captured stdout, marshalled result)] in job
    order, plus counters.  [workers] defaults to [1] (serial,
    in-process).  [timeout] is per job attempt, in wall seconds, enforced
    only on forked workers.  [max_attempts] (default 2) bounds executions
    of one job across crashes/timeouts; an exception raised by the job
    itself fails immediately (it is deterministic).  Implemented on
    {!run_results}: the full matrix runs (and caches) before the first
    failure is raised.
    @raise Job_failed as described above.
    @raise Invalid_argument on a bad [timeout], as {!run_results}. *)

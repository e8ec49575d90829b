(** Fork-based worker pool with deterministic merge.

    [run_results jobs] executes every job and returns, in job order, the
    stdout the job printed and its marshalled result or failure.  Jobs
    are dispatched to [workers] forked child processes over pipes
    carrying length-prefixed [Marshal] frames.  A worker that crashes, or
    is stuck past [timeout], is killed and respawned, and its in-flight
    job comes back as [Error]; the pool never retries — {!Supervise}
    does.  Because each job's stdout is captured at the job and replayed
    by the caller in job order, and results are collected into a slot per
    job, the observable output is byte-for-byte identical to the serial
    run regardless of how jobs were scheduled across workers.

    With [workers <= 1] and no [timeout], jobs run serially in-process
    (no fork), through the same capture machinery, so serial and
    parallel runs share one output path.  With a [cache], jobs whose key
    is already stored are not executed at all — their recorded stdout
    and result are replayed — and freshly computed results are stored.

    Jobs must be pure (a job re-run after a failure must produce the
    same result) and must not write to stderr if byte-identical streams
    are required there too (only stdout is captured). *)

type stats = {
  jobs : int;  (** total jobs submitted *)
  cache_hits : int;  (** jobs served from the cache, not executed *)
  executed : int;  (** jobs actually simulated this run *)
  respawns : int;  (** workers replaced after a crash or timeout *)
  retried : int;
      (** job attempts beyond the first, across supervision waves —
          always 0 from {!run_results}; filled by {!Supervise} *)
  quarantined : int;
      (** jobs abandoned after exhausting every supervised attempt —
          always 0 from {!run_results}; filled by {!Supervise} *)
  resumed : int;
      (** always 0: a re-run recovers through the cache ([cache_hits]).
          Kept only because perfbench's suite workload builds this
          record. *)
}

exception Job_failed of { key : string; reason : string }
(** A job that could not complete.  The pool itself never raises it:
    callers that need every payload (the experiment registry) raise it
    for a job their supervision quarantined. *)

val default_workers : unit -> int
(** Parallelism matching the machine (the runtime's recommended domain
    count). *)

val run_results :
  ?workers:int ->
  ?timeout:float ->
  ?cache:Cache.t ->
  Job.t list ->
  (string * (bytes, string) result) list * stats
(** Per-job [(captured stdout, Ok payload | Error reason)] in job order,
    plus counters.  Total: every job yields a slot and the whole matrix
    always completes — one bad job cannot discard its siblings' finished
    work.  [Error] covers a raising job, a worker crash and a per-attempt
    [timeout]; each job is attempted once.  [workers] defaults to [1]
    (serial, in-process).  [timeout] (wall seconds) needs a process to
    kill, so with a [timeout] the jobs always run on forked workers, one
    when [workers <= 1].
    @raise Invalid_argument if [timeout] is NaN, infinite or [<= 0]. *)

(** Supervised job execution: deadlines, retries with backoff,
    quarantine and failure records.

    This is the runner's only retry loop: {!Pool.run_results} attempts
    each job once, and a supervised run drives it in waves through a
    small state machine per job:

    {v pending -> running -> done
                        \-> retrying (capped exponential backoff + jitter)
                        \-> quarantined v}

    Failures are retried up to [max_attempts] total attempts.
    Quarantined jobs never poison their siblings: the rest
    of the matrix completes and the caller decides what a quarantine
    means.  Each quarantine leaves a structured failure record
    ([<cache>/failures/<md5(key)>.json]: key, final reason, attempt
    history).

    Recovery is the cache: every finished job is stored as it lands, so
    re-running the same matrix on the same cache after a crash replays
    the finished jobs and executes only the rest.  A job quarantined by
    an earlier run is attempted again; its failure record stays until a
    later quarantine of the same key overwrites it. *)

type policy = {
  max_attempts : int;  (** total attempts before quarantine (default 3) *)
  deadline : float option;  (** per-attempt wall-clock seconds *)
  sleep : float -> unit;
      (** injectable for tests; default [Unix.sleepf].  Called once per
          retry wave with the largest backoff owed in that wave. *)
}

val default_policy : policy

val backoff : key:string -> attempt:int -> float
(** Seconds to wait before retrying: [min 2 (0.05 * 2^(attempt-1) *
    (1 + 0.5 * jitter))] with deterministic per-(key, attempt) jitter in
    [0, 1) — replayable, no clock involved. *)

type attempt = { attempt : int; error : string }

type outcome =
  | Done of { out : string; payload : bytes }
  | Quarantined of { reason : string; history : attempt list }
      (** [history] is oldest-first *)

val json_escape : string -> string
(** The body of a JSON string literal holding [s]: quotes, backslashes,
    [\n], [\r], [\t] and other control bytes are escaped; every other
    byte, UTF-8 included, is copied as is.  Failure records and the
    validation reports share it. *)

val failure_record_path : Cache.t -> string -> string
(** Where the failure record for a job key would be written:
    [<cache dir>/failures/<md5(key)>.json]. *)

val run :
  ?workers:int ->
  ?policy:policy ->
  ?cache:Cache.t ->
  Job.t list ->
  outcome list * Pool.stats
(** Execute the matrix under supervision; outcomes in job order.  The
    stats aggregate across waves and fill [retried] (attempts beyond each
    job's first) and [quarantined]; [resumed] is always 0.  Failure
    records are only persisted when [cache] is given.
    @raise Invalid_argument if [policy.max_attempts < 1], or if
    [policy.deadline] is NaN, infinite or [<= 0]. *)

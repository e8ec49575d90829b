(** A named unit of pure simulation work.

    A job couples a stable key with a thunk whose result is serializable
    with [Marshal] (no closures, no custom blocks): floats, ints, strings,
    records, lists and arrays of those.  The pool transports results
    across a process boundary as marshalled bytes, so the same
    representation is used even when a job runs in-process — which is what
    makes serial and parallel executions byte-identical and lets results
    be cached on disk.

    Keys must be unique within one {!Pool.run_results} call and stable across
    program runs: the on-disk cache addresses entries by
    [digest (code version, key)], so a key must encode every parameter
    that affects the result (seed, duration, quick flag, scenario...). *)

type t

val create : key:string -> (unit -> 'a) -> t
(** [create ~key thunk] names a unit of work.  [thunk]'s result must be
    marshallable; it is serialized with [Marshal.to_bytes _ []] when the
    job runs. *)

val key : t -> string

val force : t -> bytes
(** Run the thunk now, in this process, and return the marshalled
    result.  Any exception the thunk raises passes through. *)

val decode : bytes -> 'a
(** Deserialize a payload produced by {!force} (directly or via the pool
    or cache).  The caller asserts the result type: decoding at a type
    other than the one the job produced is undefined behaviour, which is
    why cache keys are versioned by a digest of the executable. *)

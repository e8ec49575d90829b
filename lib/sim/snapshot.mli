(** Full-fidelity simulation checkpoints.

    A snapshot freezes a running {!Network} — flows with their CCA
    closures, link and queue contents, delay lines, RNG streams, recorded
    series, fault chains and the pending event schedule — into a single
    payload whose restore is {e provably} equivalent to never having
    paused: running a scenario 0→T produces byte-identical statistics to
    running 0→T/2, snapshotting, restoring and running T/2→T (asserted by
    the split-run test matrix and by [repro --split-run] in CI).

    Two integrity layers travel with every snapshot:

    - the producing binary's digest, because the payload uses
      [Marshal.Closures] and is meaningless in any other executable;
    - a cross-binary-stable content hash ({!Network.state_hash}) of the
      simulator's observable state, re-verified after restore and usable
      to compare checkpoint streams from different builds — turning "the
      runs diverged" into "the first divergent checkpoint is at t=…,
      component …". *)

type t

exception Incompatible of string
(** Raised by {!restore}, {!load} and {!Shrink.load_repro} on a format or
    binary mismatch, a corrupt file, or a restored state that fails its
    recorded content hash. *)

val format_version : int

val capture : Network.t -> t
(** Snapshot the network at its current simulation time.  The network is
    not disturbed and can keep running. *)

val restore : t -> Network.t
(** Materialize an independent network from the snapshot: advancing the
    restored copy does not affect the original, and both futures are
    identical.  Verifies the binary digest and re-checks the content
    hash of the restored state.
    @raise Incompatible on any mismatch. *)

val time : t -> float
(** Simulation time at capture. *)

val hash : t -> string
(** {!Network.state_hash} at capture — stable across binaries. *)

val save : string -> t -> unit
(** Write crash-atomically with {!Runner.Cache.write_atomic} (temp file +
    [fsync] + [rename] + directory [fsync]), so a crash at any instant
    leaves either the old file or the new one, never a torn snapshot.  The content carries its own digest;
    truncation or corruption is detected at {!load} time. *)

val load : string -> t
(** @raise Incompatible on a missing magic, truncation or digest
    mismatch.  Binary compatibility is only checked at {!restore}. *)

val run_with_checkpoints :
  ?interval:float -> ?on_checkpoint:(t -> unit) -> Network.t -> Network.t
(** Run the network to its horizon, pausing every [interval] simulated
    seconds (default 1.0) to capture a checkpoint and hand it to
    [on_checkpoint].  No checkpoint is emitted at the horizon itself
    (the finished network is the result).  Returns the handle
    {!Network.run} returns.
    @raise Invalid_argument if [interval <= 0]. *)

val first_divergence :
  (float * (string * string) list) list ->
  (float * (string * string) list) list ->
  (float * string) option
(** Compare two checkpoint streams of [(time, fingerprint)] pairs (see
    {!Network.fingerprint}) taken at the same cadence: [Some (t, comp)]
    names the earliest checkpoint time and first component at which they
    differ, [None] if one stream is a prefix of the other or they are
    identical. *)

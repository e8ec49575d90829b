(** Content-addressed on-disk cache of job results.

    An entry stores a job's marshalled result together with the stdout it
    produced, so a cache hit replays exactly what the simulation would
    have printed.  Entries live under one directory, one file per job,
    named [digest (version, key)]: the version stamp defaults to a digest
    of the running executable, so a rebuild that changes any code (and
    hence possibly any result, or the memory layout [Marshal] relies on)
    silently invalidates everything, while re-running the same binary hits.

    Writes are crash-atomic: temp file, [fsync], atomic rename, directory
    [fsync] — a SIGKILL or power cut at any instant leaves either no entry
    or a complete one.  Every entry also carries a digest of its content,
    so truncated or bit-flipped files are detected on read.  Unreadable or
    corrupt entries are treated as misses (and recomputed), never
    errors. *)

type t

val create : ?dir:string -> ?version:string -> unit -> t
(** [dir] defaults to ["_cache"] (created, along with parents, if
    missing).  [version] defaults to the hex digest of
    [Sys.executable_name]. *)

val find : t -> key:string -> (string * bytes) option
(** [(captured stdout, marshalled result)] for a previously stored job,
    or [None]. *)

val store : t -> key:string -> stdout:string -> payload:bytes -> unit

val hits : t -> int
(** Successful {!find}s so far on this handle. *)

val misses : t -> int
val dir : t -> string

val write_atomic : string -> string -> unit
(** The crash-atomic file-write primitive (temp + [fsync] + rename +
    directory [fsync]) used for entries, and the one every other
    persisted artifact goes through: failure records, shrunk
    reproducers and the fuzz corpus. *)

val mkdir_p : string -> unit
(** Create a directory and any missing parents (mode [0o755]); a no-op
    when it exists.  Every directory an artifact is written into is
    made with it.
    @raise Unix.Unix_error when a component cannot be created, or
    exists and is not a directory ([ENOTDIR], naming it). *)

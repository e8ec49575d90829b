(** Canonical byte encoding of simulator state for content hashing.

    Primitives for the per-module [fold_state] hooks: fixed-width
    little-endian integers and IEEE-bit-pattern floats appended to a
    [Buffer.t], so state digests are deterministic and comparable across
    processes and binaries (no [Marshal] code pointers involved). *)

val f : Buffer.t -> float -> unit
(** Append a float by its IEEE-754 bit pattern (distinguishes [-0.],
    preserves NaN payloads). *)

val i : Buffer.t -> int -> unit
val i64 : Buffer.t -> int64 -> unit
val b : Buffer.t -> bool -> unit

val s : Buffer.t -> string -> unit
(** Length-prefixed, so concatenations cannot alias. *)

val opt : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a option -> unit

val digest : (Buffer.t -> 'a -> unit) -> 'a -> string
(** [digest fold v] = hex MD5 of [fold]'s encoding of [v]. *)

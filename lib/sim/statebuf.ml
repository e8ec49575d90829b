(* Canonical byte encoding of simulator state for content hashing.

   Every stateful module exposes [fold_state : Buffer.t -> t -> unit]
   built from these primitives.  The encoding is fixed-width
   little-endian, floats by IEEE bit pattern, so the resulting digests
   are stable across runs and across binaries (unlike [Marshal], which
   bakes in closure code pointers).  Two simulations whose folds differ
   have diverged in observable state; two identical folds are, for every
   quantity the simulator reports, the same state. *)

let f buf (x : float) = Buffer.add_int64_le buf (Int64.bits_of_float x)
let i buf (x : int) = Buffer.add_int64_le buf (Int64.of_int x)
let i64 buf (x : int64) = Buffer.add_int64_le buf x
let b buf (x : bool) = Buffer.add_char buf (if x then '\001' else '\000')

let s buf (x : string) =
  i buf (String.length x);
  Buffer.add_string buf x

let opt elt buf = function
  | None -> b buf false
  | Some v ->
      b buf true;
      elt buf v

let digest fold v =
  let buf = Buffer.create 256 in
  fold buf v;
  Digest.to_hex (Digest.string (Buffer.contents buf))

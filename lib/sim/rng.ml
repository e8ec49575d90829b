(* The four xoshiro256** words s0..s3, native-endian at byte offsets 0,
   8, 16 and 24 of one buffer.  As [int64] record fields each word would
   be boxed, one fresh box per updated word per draw; the bytes
   accessors keep them unboxed, so an inlined [bits64] allocates nothing
   and a draw at most the float it returns. *)
type t = Bytes.t

(* splitmix64, used for seeding and splitting. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_seed64 seed64 =
  let state = ref seed64 in
  let t = Bytes.create 32 in
  Bytes.set_int64_ne t 0 (splitmix64 state);
  Bytes.set_int64_ne t 8 (splitmix64 state);
  Bytes.set_int64_ne t 16 (splitmix64 state);
  Bytes.set_int64_ne t 24 (splitmix64 state);
  t

let create ~seed = of_seed64 (Int64.of_int seed)

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] bits64 t =
  let open Int64 in
  let s0 = Bytes.get_int64_ne t 0 in
  let s1 = Bytes.get_int64_ne t 8 in
  let s2 = Bytes.get_int64_ne t 16 in
  let s3 = Bytes.get_int64_ne t 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  Bytes.set_int64_ne t 0 s0;
  Bytes.set_int64_ne t 8 s1;
  Bytes.set_int64_ne t 16 (logxor s2 tmp);
  Bytes.set_int64_ne t 24 (rotl s3 45);
  result

let split t = of_seed64 (bits64 t)

(* FNV-1a, 64-bit: a simple, well-mixed string hash.  Only used to turn a
   stream label into seed material, never for hash tables, so the weak
   avalanche on short inputs is papered over by the splitmix64 finalizer
   in [stream]. *)
let fnv1a64 s =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    s;
  !h

let stream t ~label =
  (* Fold the parent's four state words and the label hash through
     splitmix64 without touching the parent: reading s0..s3 does not
     advance the stream, so [stream] calls commute with each other and
     with later draws from [t].  Distinct labels land in distinct
     splitmix chains, giving statistically independent children. *)
  let state = ref (fnv1a64 label) in
  let fold w = state := Int64.logxor (splitmix64 state) w in
  fold (Bytes.get_int64_ne t 0);
  fold (Bytes.get_int64_ne t 8);
  fold (Bytes.get_int64_ne t 16);
  fold (Bytes.get_int64_ne t 24);
  of_seed64 (splitmix64 state)

let[@inline] float t bound =
  (* 53 high bits -> uniform in [0,1). *)
  let u = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float u /. 9007199254740992. *. bound

let uniform t ~lo ~hi = lo +. float t (hi -. lo)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  int_of_float (float t (float_of_int bound))

let bool t ~p = float t 1. < p

let exponential t ~mean =
  if not (mean > 0.) then invalid_arg "Rng.exponential: mean must be positive";
  (* Inverse CDF on the open interval: [float] returns values in [0,1),
     so [1. -. u] is in (0,1] and the log is finite. *)
  let u = float t 1. in
  -.mean *. log (1. -. u)

let pareto t ~alpha ~xm =
  if not (alpha > 0.) then invalid_arg "Rng.pareto: alpha must be positive";
  if not (xm > 0.) then invalid_arg "Rng.pareto: xm must be positive";
  (* Inverse CDF; [1. -. u] in (0,1] keeps the power finite. *)
  let u = float t 1. in
  xm *. ((1. -. u) ** (-1. /. alpha))

let fold_state buf t =
  Statebuf.i64 buf (Bytes.get_int64_ne t 0);
  Statebuf.i64 buf (Bytes.get_int64_ne t 8);
  Statebuf.i64 buf (Bytes.get_int64_ne t 16);
  Statebuf.i64 buf (Bytes.get_int64_ne t 24)

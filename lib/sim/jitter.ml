type request = { flow : int; arrival : float; sent : float }

type policy =
  | No_jitter
  | Constant of float
  | Uniform of { lo : float; hi : float }
  | Trace of (float -> float)
  | Controller of (request -> float)

(* All-float box: assigning the field is an unboxed store, unlike a
   mutable float field in the mixed record below (2 words per write —
   [last_release] is written once per packet on the hot path). *)
type fbox = { mutable v : float }

type t = {
  policy : policy;
  bound : float;
  rng : Rng.t;
  last_release : fbox;
  mutable violations : int;
  mutable max_requested : float;
  mutable worst_excess : float;
}

let create ?(bound = infinity) ~rng policy =
  if Float.is_nan bound || bound < 0. then
    invalid_arg "Jitter.create: bound must be non-negative";
  (match policy with
  | Uniform { lo; hi } ->
      if not (Float.is_finite lo && Float.is_finite hi) then
        invalid_arg "Jitter.create: Uniform bounds must be finite";
      if lo < 0. then invalid_arg "Jitter.create: Uniform lo must be >= 0";
      if lo > hi then invalid_arg "Jitter.create: Uniform lo > hi"
  | No_jitter | Constant _ | Trace _ | Controller _ -> ());
  {
    policy;
    bound;
    rng;
    last_release = { v = neg_infinity };
    violations = 0;
    max_requested = 0.;
    worst_excess = 0.;
  }

let release_at t ~flow ~arrival ~sent =
  let d =
    match t.policy with
    | No_jitter -> 0.
    | Constant d -> d
    | Uniform { lo; hi } -> Rng.uniform t.rng ~lo ~hi
    | Trace f -> f arrival
    | Controller f -> f { flow; arrival; sent }
  in
  if d > t.max_requested then t.max_requested <- d;
  let clamped = Float.max 0. (Float.min d t.bound) in
  if d < -1e-9 || d > t.bound +. 1e-9 then begin
    t.violations <- t.violations + 1;
    let excess = Float.max (-.d) (d -. t.bound) in
    if excess > t.worst_excess then t.worst_excess <- excess
  end;
  let release = Float.max (arrival +. clamped) t.last_release.v in
  t.last_release.v <- release;
  release

let violations t = t.violations
let max_requested t = t.max_requested
let worst_excess t = t.worst_excess

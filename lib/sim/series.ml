type t = {
  series_name : string;
  mutable times : float array;
  mutable values : float array;
  mutable len : int;
}

let create ?(name = "") () =
  { series_name = name; times = [||]; values = [||]; len = 0 }

let length t = t.len

let grow t =
  let cap = max 16 (2 * Array.length t.times) in
  let times = Array.make cap 0. and values = Array.make cap 0. in
  Array.blit t.times 0 times 0 t.len;
  Array.blit t.values 0 values 0 t.len;
  t.times <- times;
  t.values <- values

let add t ~time v =
  if t.len > 0 && time < t.times.(t.len - 1) then
    invalid_arg
      (Printf.sprintf "Series.add(%s): time %.9f < last %.9f" t.series_name time
         t.times.(t.len - 1));
  if t.len = Array.length t.times then grow t;
  t.times.(t.len) <- time;
  t.values.(t.len) <- v;
  t.len <- t.len + 1

let times t = Array.sub t.times 0 t.len
let values t = Array.sub t.values 0 t.len

let last t = if t.len = 0 then None else Some (t.times.(t.len - 1), t.values.(t.len - 1))
let first t = if t.len = 0 then None else Some (t.times.(0), t.values.(0))

(* Index of the last sample with time <= q, or -1. *)
let index_at t q =
  if t.len = 0 || q < t.times.(0) then -1
  else begin
    let lo = ref 0 and hi = ref (t.len - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if t.times.(mid) <= q then lo := mid else hi := mid - 1
    done;
    !lo
  end

let value_at t q =
  let i = index_at t q in
  if i < 0 then None else Some t.values.(i)

(* Index of the first sample with time >= q, or [t.len]. *)
let index_from t q =
  if t.len = 0 || q <= t.times.(0) then 0
  else if t.times.(t.len - 1) < q then t.len
  else begin
    (* Invariant: times.(lo) < q <= times.(hi). *)
    let lo = ref 0 and hi = ref (t.len - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if t.times.(mid) < q then lo := mid else hi := mid
    done;
    !hi
  end

(* Inclusive index range of samples with t0 <= time <= t1; empty iff
   lo > hi.  Both ends located by binary search, so the window queries
   below are O(log n + k) in the window size k, not O(n).  NaN bounds
   would silently break the binary-search invariants (every comparison
   is false), yielding an arbitrary non-empty range — reject them here
   so all four window queries share the check. *)
let window_range t ~t0 ~t1 =
  if Float.is_nan t0 || Float.is_nan t1 then
    invalid_arg
      (Printf.sprintf "Series.window(%s): nan window bound" t.series_name);
  (index_from t t0, index_at t t1)

let window t ~t0 ~t1 =
  let lo, hi = window_range t ~t0 ~t1 in
  let rec build i acc =
    if i < lo then acc else build (i - 1) ((t.times.(i), t.values.(i)) :: acc)
  in
  build hi []

let window_values t ~t0 ~t1 =
  let lo, hi = window_range t ~t0 ~t1 in
  if lo > hi then [||]
  else Array.sub t.values lo (hi - lo + 1)

let min_max_in t ~t0 ~t1 =
  let lo, hi = window_range t ~t0 ~t1 in
  if lo > hi then None
  else begin
    let mn = ref t.values.(lo) and mx = ref t.values.(lo) in
    for i = lo + 1 to hi do
      mn := Float.min !mn t.values.(i);
      mx := Float.max !mx t.values.(i)
    done;
    Some (!mn, !mx)
  end

let mean_in t ~t0 ~t1 =
  let lo, hi = window_range t ~t0 ~t1 in
  if lo > hi then None
  else begin
    (* Same operation order as [Stats.mean] (left-to-right sum starting
       from 0., then one divide) so results are bitwise identical to the
       old materialize-then-average path. *)
    let acc = ref 0. in
    for i = lo to hi do
      acc := !acc +. t.values.(i)
    done;
    Some (!acc /. float_of_int (hi - lo + 1))
  end

let integral t ~t0 ~t1 =
  if t1 <= t0 || t.len = 0 then 0.
  else begin
    let acc = ref 0. in
    let cursor = ref t0 in
    let i0 = index_at t t0 in
    let v = ref (if i0 < 0 then 0. else t.values.(i0)) in
    let i = ref (max i0 0) in
    (* Skip samples at or before t0 (their value is already in !v). *)
    while !i < t.len && t.times.(!i) <= t0 do incr i done;
    while !i < t.len && t.times.(!i) < t1 do
      acc := !acc +. (!v *. (t.times.(!i) -. !cursor));
      cursor := t.times.(!i);
      v := t.values.(!i);
      incr i
    done;
    !acc +. (!v *. (t1 -. !cursor))
  end

let resample t ~t0 ~t1 ~dt =
  if t.len = 0 then invalid_arg "Series.resample: empty series";
  if dt <= 0. then invalid_arg "Series.resample: dt must be positive";
  let n = int_of_float (Float.floor ((t1 -. t0) /. dt)) + 1 in
  if n <= 0 then [||]
  else
    Array.init n (fun k ->
        let q = t0 +. (float_of_int k *. dt) in
        let v = match value_at t q with Some v -> v | None -> t.values.(0) in
        (q, v))

let fold_state buf t =
  Statebuf.s buf t.series_name;
  Statebuf.i buf t.len;
  for i = 0 to t.len - 1 do
    Statebuf.f buf t.times.(i);
    Statebuf.f buf t.values.(i)
  done

let map f t =
  let out = create ~name:t.series_name () in
  for i = 0 to t.len - 1 do
    add out ~time:t.times.(i) (f t.values.(i))
  done;
  out

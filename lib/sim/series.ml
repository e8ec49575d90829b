(* Columns are stored in fixed-size chunks of [chunk] rows, reached
   through a directory ([float array array]).  A chunk is allocated
   zero-filled when the first row lands in it, so an append writes in
   place and never copies samples, and a column holds at most one
   chunk of slack.  Rows past the last sample read 0. and directory
   slots past the last chunk hold [[||]]: both are functions of the
   sample count alone, so [=] and [Marshal] see only the samples. *)

let chunk_bits = 11
let chunk = 1 lsl chunk_bits
let mask = chunk - 1

let[@inline] get (col : float array array) i = col.(i lsr chunk_bits).(i land mask)
let[@inline] set (col : float array array) i v = col.(i lsr chunk_bits).(i land mask) <- v

(* [col] with a fresh zero-filled chunk at index [k], the directory
   doubled first if it is full. *)
let with_chunk col k =
  let col =
    if k < Array.length col then col
    else begin
      let d = Array.make (max 1 (2 * k)) [||] in
      Array.blit col 0 d 0 k;
      d
    end
  in
  col.(k) <- Array.make chunk 0.;
  col

(* The time column and row count, shared by the members of a group. *)
type clock = {
  mutable times : float array array;
  mutable len : int;
  grouped : bool; (* rows come from [add_row] only *)
}

type t = {
  series_name : string;
  clock : clock;
  mutable values : float array array;
}

type group = { a : t; b : t; c : t } (* members share one [clock] *)

let make clock name = { series_name = name; clock; values = [||] }
let create ?(name = "") () = make { times = [||]; len = 0; grouped = false } name

let group a b c =
  let rows = { times = [||]; len = 0; grouped = true } in
  { a = make rows a; b = make rows b; c = make rows c }

let members g = (g.a, g.b, g.c)
let length t = t.clock.len
let[@inline] tget t i = get t.clock.times i
let[@inline] vget t i = get t.values i

let check_time fn t time =
  let n = t.clock.len in
  if n > 0 && time < tget t (n - 1) then
    invalid_arg
      (Printf.sprintf "Series.%s(%s): time %.9f < last %.9f" fn t.series_name
         time (tget t (n - 1)))

let add t ~time v =
  if t.clock.grouped then
    invalid_arg
      (Printf.sprintf "Series.add(%s): a group member takes rows from add_row"
         t.series_name);
  check_time "add" t time;
  let k = t.clock in
  let n = k.len in
  if n land mask = 0 then begin
    k.times <- with_chunk k.times (n lsr chunk_bits);
    t.values <- with_chunk t.values (n lsr chunk_bits)
  end;
  set k.times n time;
  set t.values n v;
  k.len <- n + 1

let add_row g ~time va vb vc =
  check_time "add_row" g.a time;
  let k = g.a.clock in
  let n = k.len in
  if n land mask = 0 then begin
    let j = n lsr chunk_bits in
    k.times <- with_chunk k.times j;
    g.a.values <- with_chunk g.a.values j;
    g.b.values <- with_chunk g.b.values j;
    g.c.values <- with_chunk g.c.values j
  end;
  set k.times n time;
  set g.a.values n va;
  set g.b.values n vb;
  set g.c.values n vc;
  k.len <- n + 1

(* Rows [lo, lo + n) of [col] as a fresh array, one blit per chunk the
   range spans. *)
let slice col lo n =
  let out = Array.create_float n in
  let i = ref 0 in
  while !i < n do
    let r = lo + !i in
    let m = min (n - !i) (chunk - (r land mask)) in
    Array.blit col.(r lsr chunk_bits) (r land mask) out !i m;
    i := !i + m
  done;
  out

let times t = slice t.clock.times 0 t.clock.len
let values t = slice t.values 0 t.clock.len

let last t =
  let n = t.clock.len in
  if n = 0 then None else Some (tget t (n - 1), vget t (n - 1))

let first t = if t.clock.len = 0 then None else Some (tget t 0, vget t 0)

(* Index of the last sample with time <= q, or -1. *)
let index_at t q =
  let n = t.clock.len in
  if n = 0 || q < tget t 0 then -1
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if tget t mid <= q then lo := mid else hi := mid - 1
    done;
    !lo
  end

let value_at t q =
  let i = index_at t q in
  if i < 0 then None else Some (vget t i)

(* Index of the first sample with time >= q, or the length. *)
let index_from t q =
  let n = t.clock.len in
  if n = 0 || q <= tget t 0 then 0
  else if tget t (n - 1) < q then n
  else begin
    (* Invariant: times.(lo) < q <= times.(hi). *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if tget t mid < q then lo := mid else hi := mid
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
    if i < lo then acc else build (i - 1) ((tget t i, vget t i) :: acc)
  in
  build hi []

let window_values t ~t0 ~t1 =
  let lo, hi = window_range t ~t0 ~t1 in
  if lo > hi then [||] else slice t.values lo (hi - lo + 1)

let min_max_in t ~t0 ~t1 =
  let lo, hi = window_range t ~t0 ~t1 in
  if lo > hi then None
  else begin
    let mn = ref (vget t lo) and mx = ref (vget t lo) in
    for i = lo + 1 to hi do
      mn := Float.min !mn (vget t i);
      mx := Float.max !mx (vget t i)
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
      acc := !acc +. vget t i
    done;
    Some (!acc /. float_of_int (hi - lo + 1))
  end

let integral t ~t0 ~t1 =
  let n = t.clock.len in
  if t1 <= t0 || n = 0 then 0.
  else begin
    let acc = ref 0. in
    let cursor = ref t0 in
    let i0 = index_at t t0 in
    let v = ref (if i0 < 0 then 0. else vget t i0) in
    let i = ref (max i0 0) in
    (* Skip samples at or before t0 (their value is already in !v). *)
    while !i < n && tget t !i <= t0 do incr i done;
    while !i < n && tget t !i < t1 do
      acc := !acc +. (!v *. (tget t !i -. !cursor));
      cursor := tget t !i;
      v := vget t !i;
      incr i
    done;
    !acc +. (!v *. (t1 -. !cursor))
  end

let resample t ~t0 ~t1 ~dt =
  if t.clock.len = 0 then invalid_arg "Series.resample: empty series";
  if dt <= 0. then invalid_arg "Series.resample: dt must be positive";
  let n = int_of_float (Float.floor ((t1 -. t0) /. dt)) + 1 in
  if n <= 0 then [||]
  else
    Array.init n (fun k ->
        let q = t0 +. (float_of_int k *. dt) in
        let v = match value_at t q with Some v -> v | None -> vget t 0 in
        (q, v))

let fold_state buf t =
  Statebuf.s buf t.series_name;
  Statebuf.i buf t.clock.len;
  for i = 0 to t.clock.len - 1 do
    Statebuf.f buf (tget t i);
    Statebuf.f buf (vget t i)
  done

let map f t =
  let out = create ~name:t.series_name () in
  for i = 0 to t.clock.len - 1 do
    add out ~time:(tget t i) (f (vget t i))
  done;
  out

module Online = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
  }

  let create () = { n = 0; mean = 0.; m2 = 0.; min = infinity; max = neg_infinity }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x

  let count t = t.n
  let mean t = if t.n = 0 then nan else t.mean

  let variance t = if t.n < 2 then nan else t.m2 /. float_of_int (t.n - 1)
  let stddev t = sqrt (variance t)
  let min t = if t.n = 0 then nan else t.min
  let max t = if t.n = 0 then nan else t.max
end

let mean xs =
  if Array.length xs = 0 then nan
  else Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty array";
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p outside [0,100]";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  if n = 1 then sorted.(0)
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)
  end

let median xs = percentile xs 50.

let jain_index xs =
  match xs with
  | [] -> invalid_arg "Stats.jain_index: empty list"
  | _ ->
      let n = float_of_int (List.length xs) in
      let s = List.fold_left ( +. ) 0. xs in
      let s2 = List.fold_left (fun acc x -> acc +. (x *. x)) 0. xs in
      if s2 = 0. then 1. else s *. s /. (n *. s2)

let max_min_ratio xs =
  match xs with
  | [] -> invalid_arg "Stats.max_min_ratio: empty list"
  | x :: rest ->
      let mn = List.fold_left Float.min x rest in
      let mx = List.fold_left Float.max x rest in
      (* Throughputs are non-negative by construction; with a negative
         value the old code could return 1. (mx = 0 while mn < 0), which
         silently read "perfectly fair".  Reject instead. *)
      if mn < 0. then invalid_arg "Stats.max_min_ratio: negative value";
      if mx = 0. then 1. else if mn = 0. then infinity else mx /. mn

type ratio_summary = {
  total : int;
  starved : int;
  p50 : float;
  p90 : float;
  p99 : float;
  max_ratio : float;
}

let[@inline] swap (xs : float array) i j =
  let t = xs.(i) in
  xs.(i) <- xs.(j);
  xs.(j) <- t

(* Quickselect: permutes [xs.(lo..hi)] so that [xs.(k)] holds the value a
   full sort would put there, with nothing greater before it and nothing
   smaller after it.  Expected O(hi - lo).  The [float array] annotation
   makes [<] a machine comparison, not a call to the polymorphic
   [compare_val]. *)
let select (xs : float array) lo hi k =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    (* Median of three as the pivot; the ends then bound both scans. *)
    let mid = !lo + ((!hi - !lo) / 2) in
    if xs.(mid) < xs.(!lo) then swap xs mid !lo;
    if xs.(!hi) < xs.(!lo) then swap xs !hi !lo;
    if xs.(!hi) < xs.(mid) then swap xs !hi mid;
    let pivot = xs.(mid) in
    let i = ref !lo and j = ref !hi in
    while !i <= !j do
      while xs.(!i) < pivot do incr i done;
      while pivot < xs.(!j) do decr j done;
      if !i <= !j then begin
        swap xs !i !j;
        incr i;
        decr j
      end
    done;
    (* Now [lo..j] <= pivot <= [i..hi], and anything between equals it. *)
    if k <= !j then hi := !j else if k >= !i then lo := !i else lo := !hi
  done

let ratio_summary_in_place xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.ratio_summary: empty array";
  let mx = ref 0. in
  for i = 0 to n - 1 do
    let x = xs.(i) in
    if not (Float.is_finite x && x >= 0.) then
      invalid_arg "Stats.ratio_summary: rates must be finite and >= 0";
    if x > !mx then mx := x
  done;
  let mx = !mx in
  (* Rewrite each live rate to its ratio [mx /. x] (every ratio >= 1) and
     move each starved rate to a zero prefix, tracking the largest
     ratio on the way. *)
  let starved = ref 0 and max_ratio = ref 1. in
  for i = 0 to n - 1 do
    let x = xs.(i) in
    if x > 0. then begin
      let r = mx /. x in
      xs.(i) <- r;
      if r > !max_ratio then max_ratio := r
    end
    else begin
      xs.(i) <- xs.(!starved);
      xs.(!starved) <- 0.;
      incr starved
    end
  done;
  let starved = !starved in
  let live = n - starved in
  if live = 0 then
    (* Everyone starved (or the run never moved a byte): there is no
       finite ratio to report; zeros keep the record serializable. *)
    { total = n; starved; p50 = 0.; p90 = 0.; p99 = 0.; max_ratio = 0. }
  else begin
    (* Each quantile interpolates between the live ratios of rank [lo]
       and [lo + 1], exactly as {!percentile} does over a sorted copy.
       Invariant: [xs.(top)] and [xs.(top + 1)] (where in bounds) hold
       their sorted values and nothing before [top] exceeds [xs.(top)].
       Asking for p99 first leaves p90 and p50 to select only within
       the prefix below it. *)
    let top = ref n in
    let q p =
      let rank = p /. 100. *. float_of_int (live - 1) in
      let lo = int_of_float (Float.floor rank) in
      let hi = Stdlib.min (lo + 1) (live - 1) in
      let frac = rank -. float_of_int lo in
      let a = starved + lo and b = starved + hi in
      if a < !top then begin
        select xs starved (!top - 1) a;
        if b > a && b < !top then begin
          (* Rank [lo + 1] is the smallest value between [a] and [top]. *)
          let m = ref b in
          for i = b + 1 to !top - 1 do
            if xs.(i) < xs.(!m) then m := i
          done;
          swap xs b !m
        end;
        top := a
      end;
      (xs.(a) *. (1. -. frac)) +. (xs.(b) *. frac)
    in
    let p99 = q 99. in
    let p90 = q 90. in
    let p50 = q 50. in
    { total = n; starved; p50; p90; p99; max_ratio = !max_ratio }
  end

let ratio_summary xs = ratio_summary_in_place (Array.copy xs)

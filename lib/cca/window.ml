module Extremum = struct
  (* Standard sliding-window-extremum monotonic deque, stored in a growable
     ring of two unboxed float arrays (sample times and values).  The
     oldest entry sits at [head], the newest at [head + len - 1] (modulo
     the capacity, a power of two).  Invariant: values are strictly
     "improving" from the newest entry toward the oldest (for a min
     filter, the oldest entry holds the smallest value), so the current
     extremum is read at [head] in O(1).  Stale entries leave from the
     oldest end, dominated ones from the newest end; every sample enters
     and leaves once, so [push] is O(1) amortized.  The arrays are
     allocated on the first push and kept across [clear], so an idle
     filter costs a few words and a reused one does not allocate.  The
     window lives in a single-field float box so that Copa's per-ACK
     [set_window] is an unboxed store, not a 2-word boxed field write. *)
  type fbox = { mutable v : float }

  type t = {
    window : fbox;
    is_min : bool; (* min filter: a new value dominates every entry >= it *)
    mutable times : float array;
    mutable values : float array;
    mutable head : int;
    mutable len : int;
  }

  let initial_capacity = 16

  let check_window fn w =
    if Float.is_nan w || w < 0. then
      invalid_arg (Printf.sprintf "Window.Extremum.%s: window %g" fn w)

  let create ~is_min ~window =
    check_window "create" window;
    {
      window = { v = window };
      is_min;
      times = [||];
      values = [||];
      head = 0;
      len = 0;
    }

  let create_min ~window = create ~is_min:true ~window
  let create_max ~window = create ~is_min:false ~window

  (* Double the ring, unrolling the live entries to the front. *)
  let grow t =
    let cap = Array.length t.times in
    let cap' = if cap = 0 then initial_capacity else 2 * cap in
    let times = Array.make cap' 0. and values = Array.make cap' 0. in
    for k = 0 to t.len - 1 do
      let i = (t.head + k) land (cap - 1) in
      times.(k) <- t.times.(i);
      values.(k) <- t.values.(i)
    done;
    t.times <- times;
    t.values <- values;
    t.head <- 0

  let push t ~time value =
    let mask = Array.length t.times - 1 in
    if t.len > 0 && time < t.times.((t.head + t.len - 1) land mask) then
      invalid_arg "Window.Extremum.push: time earlier than the newest sample";
    (* Evict with the negated keep rule [time >= cutoff], so a NaN cutoff
       evicts everything. *)
    let cutoff = time -. t.window.v in
    while t.len > 0 && not (t.times.(t.head) >= cutoff) do
      t.head <- (t.head + 1) land mask;
      t.len <- t.len - 1
    done;
    let is_min = t.is_min in
    while
      t.len > 0
      &&
      let old = t.values.((t.head + t.len - 1) land mask) in
      if is_min then value <= old else value >= old
    do
      t.len <- t.len - 1
    done;
    if t.len = Array.length t.times then grow t;
    let i = (t.head + t.len) land (Array.length t.times - 1) in
    t.times.(i) <- time;
    t.values.(i) <- value;
    t.len <- t.len + 1

  let is_empty t = t.len = 0
  let get t = if t.len = 0 then None else Some t.values.(t.head)
  let get_default t d = if t.len = 0 then d else t.values.(t.head)

  let set_window t w =
    check_window "set_window" w;
    t.window.v <- w

  let clear t =
    t.head <- 0;
    t.len <- 0
end

module Ewma = struct
  type t = { gain : float; mutable value : float option }

  let create ~gain = { gain; value = None }

  let push t x =
    match t.value with
    | None -> t.value <- Some x
    | Some v -> t.value <- Some (((1. -. t.gain) *. v) +. (t.gain *. x))

  let get t = t.value
  let get_default t d = match t.value with Some v -> v | None -> d
end

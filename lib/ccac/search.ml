type ('s, 'c) system = {
  initial : 's;
  choices : 's -> 'c list;
  step : 's -> 'c -> 's;
  score : 's -> float;
}

type ('s, 'c) best = { state : 's; score : float; trace : 'c list }

let check_horizon fn horizon =
  if horizon < 0 then
    invalid_arg (Printf.sprintf "Search.%s: horizon must be >= 0 (got %d)" fn horizon)

let dfs_max sys ~horizon =
  check_horizon "dfs_max" horizon;
  let best = ref { state = sys.initial; score = neg_infinity; trace = [] } in
  let rec go state depth rev_trace =
    if depth = horizon then begin
      let score = sys.score state in
      if score > !best.score then
        best := { state; score; trace = List.rev rev_trace }
    end
    else
      match sys.choices state with
      | [] ->
          (* Dead end: score what we have. *)
          let score = sys.score state in
          if score > !best.score then
            best := { state; score; trace = List.rev rev_trace }
      | cs ->
          List.iter (fun c -> go (sys.step state c) (depth + 1) (c :: rev_trace)) cs
  in
  go sys.initial 0 [];
  !best

(* One depth of the beam.  Entry [k] lives in slot [k] of [st], [sc]
   (its score), [gen] (its generation index within the depth) and [rev]
   (its reversed trace); entries never move.  [heap] orders the [n]
   slots: while the depth is expanded it is a binary heap whose root is
   the entry the next admission would evict, and once the depth is
   complete it lists the slots best first.  The arrays grow by doubling
   up to the beam width. *)
type ('s, 'c) beam = {
  mutable st : 's array;
  mutable sc : float array;
  mutable gen : int array;
  mutable rev : 'c list array;
  mutable heap : int array;
  mutable n : int;
}

let beam_create ~cap state =
  {
    st = Array.make cap state;
    sc = Array.make cap 0.;
    gen = Array.make cap 0;
    rev = Array.make cap [];
    heap = Array.make cap 0;
    n = 0;
  }

let beam_grow b ~width =
  let cap = min width (2 * Array.length b.heap) in
  let grow a fill =
    let a' = Array.make cap fill in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  in
  b.st <- grow b.st b.st.(0);
  b.sc <- grow b.sc 0.;
  b.gen <- grow b.gen 0;
  b.rev <- grow b.rev [];
  b.heap <- grow b.heap 0

(* [worse b i j]: slot [i] ranks after slot [j] in the order a stable
   descending sort lists a depth's children: lower score under
   [Float.compare] (so NaN last), or an equal score generated later. *)
let worse b i j =
  let c = Float.compare b.sc.(i) b.sc.(j) in
  c < 0 || (c = 0 && b.gen.(i) > b.gen.(j))

let rec sift_up b k =
  if k > 0 then begin
    let parent = (k - 1) / 2 in
    let s = b.heap.(k) and p = b.heap.(parent) in
    if worse b s p then begin
      b.heap.(k) <- p;
      b.heap.(parent) <- s;
      sift_up b parent
    end
  end

(* Restore the heap below [k] among the first [len] positions. *)
let rec sift_down b ~len k =
  let l = (2 * k) + 1 in
  if l < len then begin
    let r = l + 1 in
    let c = if r < len && worse b b.heap.(r) b.heap.(l) then r else l in
    let s = b.heap.(k) and child = b.heap.(c) in
    if worse b child s then begin
      b.heap.(k) <- child;
      b.heap.(c) <- s;
      sift_down b ~len c
    end
  end

(* Whether a beam of [width] entries admits a new entry of score [score].
   A full beam admits only a strictly higher score than its root's: the
   newcomer was generated after every entry, so it loses a tie. *)
let admits b ~width score =
  b.n < width || Float.compare score b.sc.(b.heap.(0)) > 0

(* Admit the [g]th entry of the depth, evicting the root of a full beam. *)
let put b ~width g state score rev_trace =
  let set k =
    b.st.(k) <- state;
    b.sc.(k) <- score;
    b.gen.(k) <- g;
    b.rev.(k) <- rev_trace
  in
  if b.n < width then begin
    if b.n = Array.length b.heap then beam_grow b ~width;
    let k = b.n in
    set k;
    b.heap.(k) <- k;
    b.n <- k + 1;
    sift_up b k
  end
  else begin
    set b.heap.(0);
    sift_down b ~len:b.n 0
  end

let beam_max sys ~horizon ~width =
  if width < 1 then
    invalid_arg (Printf.sprintf "Search.beam_max: width must be >= 1 (got %d)" width);
  check_horizon "beam_max" horizon;
  let cap = min width 64 in
  let cur = ref (beam_create ~cap sys.initial)
  and next = ref (beam_create ~cap sys.initial) in
  put !cur ~width 0 sys.initial (sys.score sys.initial) [];
  for _ = 1 to horizon do
    let f = !cur and b = !next in
    b.n <- 0;
    let g = ref 0 in
    for i = 0 to f.n - 1 do
      let k = f.heap.(i) in
      let state = f.st.(k) and rev_trace = f.rev.(k) in
      match sys.choices state with
      | [] ->
          (* Dead end: the state carries over unchanged. *)
          if admits b ~width f.sc.(k) then put b ~width !g state f.sc.(k) rev_trace;
          incr g
      | cs ->
          List.iter
            (fun c ->
              let child = sys.step state c in
              let score = sys.score child in
              if admits b ~width score then put b ~width !g child score (c :: rev_trace);
              incr g)
            cs
    done;
    (* Heapsort in place: each pass moves the worst remaining slot to the
       back, leaving [heap] best first. *)
    for last = b.n - 1 downto 1 do
      let s = b.heap.(0) in
      b.heap.(0) <- b.heap.(last);
      b.heap.(last) <- s;
      sift_down b ~len:last 0
    done;
    cur := b;
    next := f
  done;
  let f = !cur in
  let k = f.heap.(0) in
  if f.sc.(k) > neg_infinity then
    { state = f.st.(k); score = f.sc.(k); trace = List.rev f.rev.(k) }
  else { state = sys.initial; score = neg_infinity; trace = [] }

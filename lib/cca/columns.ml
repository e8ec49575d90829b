(* Flat column arena for per-flow CCA state.

   One arena holds the state of every live CCA instance of one kind in a
   single unboxed [float array]: row [r]'s fields occupy
   [r * nfields .. r * nfields + nfields - 1].  A CCA reads [data t] once
   per callback and indexes it at its row's base offset, so every read
   and write is an unboxed float-array access — the same discipline as
   [Flow.Table] — and a quiesced flow's congestion state costs [nfields]
   floats of flat storage instead of a boxed record plus header.

   Rows are recycled through an explicit free list: [free] pushes a
   retired row onto a stack and [alloc] pops it before growing the
   arena, so steady-state flow churn allocates nothing and the arena's
   high-water mark tracks peak concurrency, not total population.  A
   byte per row marks the rows on the free stack, so [free] refuses a
   row that is already there: a double release would otherwise push the
   row twice, and the next two [alloc]s would hand the same row to two
   instances.  The marks grow with the stack, in [free], so an arena
   that never frees a row (the one-row arena of a [make]) allocates
   neither.

   Growth replaces [data], so CCA callbacks must read [data t] again on
   every event rather than caching the array across events.  Within one
   callback no allocation happens, so a single read per callback is
   safe. *)

type t = {
  nfields : int;
  mutable data : float array; (* row r, field f at r * nfields + f *)
  mutable rows : int; (* rows ever allocated (high-water mark) *)
  mutable free : int array; (* stack of retired row indices *)
  mutable nfree : int;
  mutable freed : Bytes.t; (* '\001' at r while row r is on the stack *)
}

let create ?(capacity = 16) ~nfields () =
  if nfields <= 0 then invalid_arg "Columns.create: nfields must be positive";
  let capacity = max 1 capacity in
  {
    nfields;
    data = Array.make (capacity * nfields) 0.;
    rows = 0;
    free = [||];
    nfree = 0;
    freed = Bytes.empty;
  }

let nfields t = t.nfields
let data t = t.data
let rows t = t.rows
let live t = t.rows - t.nfree
let capacity t = Array.length t.data / t.nfields

let alloc t =
  let r =
    if t.nfree > 0 then begin
      t.nfree <- t.nfree - 1;
      let r = t.free.(t.nfree) in
      Bytes.set t.freed r '\000';
      r
    end
    else begin
      let r = t.rows in
      if (r + 1) * t.nfields > Array.length t.data then begin
        let data = Array.make (2 * Array.length t.data) 0. in
        Array.blit t.data 0 data 0 (t.rows * t.nfields);
        t.data <- data
      end;
      t.rows <- r + 1;
      r
    end
  in
  Array.fill t.data (r * t.nfields) t.nfields 0.;
  r

let free t r =
  if r < 0 || r >= t.rows then
    invalid_arg (Printf.sprintf "Columns.free: row %d out of range" r);
  let n = Bytes.length t.freed in
  if r < n && Bytes.get t.freed r = '\001' then
    invalid_arg (Printf.sprintf "Columns.free: row %d is not live" r);
  if r >= n then begin
    let marks = Bytes.make (max t.rows (2 * n)) '\000' in
    Bytes.blit t.freed 0 marks 0 n;
    t.freed <- marks
  end;
  Bytes.set t.freed r '\001';
  if t.nfree = Array.length t.free then begin
    let cap = max 16 (2 * Array.length t.free) in
    let fr = Array.make cap 0 in
    Array.blit t.free 0 fr 0 t.nfree;
    t.free <- fr
  end;
  t.free.(t.nfree) <- r;
  t.nfree <- t.nfree + 1

(* Hierarchical timing wheel (see the .mli for the scheme).

   Storage is structure-of-arrays per slot — parallel [times]/[seqs]/
   [ids] vecs indexed by [slot = level * 32 + s] — so the float writes
   stay unboxed, no entry move writes a pointer (the caller's integer
   ids are immediates), and a cancel is a swap-with-last.  Level
   assignment uses the XOR rule: an entry lives at the 5-bit group of
   the highest bit in [tick lxor cursor].  Two consequences carry the
   whole correctness argument:

   - cascades are strictly downward: when the cursor enters a level-l
     block, every entry filed there now agrees with the cursor on all
     bits >= 5*l, so it re-files at a level < l (or is due).  A flush
     can therefore never append into the slot it is draining.
   - slots are wrap-free: an occupied level-l slot s always satisfies
     s > cursor's level-l index (bits above agree, tick > cursor), so
     the lowest occupied level, lowest occupied slot, is the global
     minimum — [next_tick] needs no wrap adjustments.

   The wheel covers one 2^35-tick aligned epoch around the cursor
   (~9.5 simulated hours at the default 1 us granularity); anything
   beyond answers [Far] and lives in the caller's overflow heap. *)

(* 5 bits: 32 slots per level, so occupancy bitmaps are plain ints. *)
let slot_bits = 5
let slots_per_level = 1 lsl slot_bits
let slot_mask = slots_per_level - 1
let levels = 7
let nslots = levels * slots_per_level

(* 32^levels: ticks representable before [add] answers [Far]. *)
let horizon_ticks = 1 lsl (slot_bits * levels)

type placement = Placed | Due | Far

type t = {
  g : float;
  inv_g : float;
  move : int -> slot:int -> idx:int -> unit;
  due : int -> time:float -> seq:int -> unit;
  times : float array array; (* [nslots] vecs, grown per slot *)
  seqs : int array array;
  ids : int array array;
  lens : int array;
  bitmaps : int array; (* per level: bit s set iff slot (level,s) non-empty *)
  mutable cursor : int;
  mutable size : int;
  (* Exact next pending tick, or -1 = stale (recomputed lazily). *)
  mutable memo : int;
}

(* floor (time / g) with non-finite and overflowing inputs clamped so a
   pathological time degrades to Far/Due instead of undefined
   int_of_float behaviour. *)
let tick_raw inv_g time =
  let x = Float.floor (time *. inv_g) in
  if Float.is_nan x then max_int
  else if x >= 4.611686018427387904e18 (* 2^62 *) then max_int
  else if x <= -4.611686018427387904e18 then min_int
  else int_of_float x

let tick_of t time = tick_raw t.inv_g time

let create ?(granularity = 1e-6) ~start ~move ~due () =
  if not (granularity > 0. && Float.is_finite granularity) then
    invalid_arg "Timer_wheel.create: granularity must be finite and > 0";
  let inv_g = 1. /. granularity in
  {
    g = granularity;
    inv_g;
    move;
    due;
    times = Array.make nslots [||];
    seqs = Array.make nslots [||];
    ids = Array.make nslots [||];
    lens = Array.make nslots 0;
    bitmaps = Array.make levels 0;
    cursor = tick_raw inv_g start;
    size = 0;
    memo = -1;
  }

let size t = t.size

(* 5-bit group of the highest set bit of [diff]; requires
   0 < diff < horizon_ticks. *)
let level_of diff =
  if diff < 0x2000000 then
    if diff < 0x400 then (if diff < 0x20 then 0 else 1)
    else if diff < 0x8000 then 2
    else if diff < 0x100000 then 3
    else 4
  else if diff < 0x40000000 then 5
  else 6

let push t ~slot ~time ~seq id =
  let len = t.lens.(slot) in
  let cap = Array.length t.seqs.(slot) in
  if len = cap then begin
    let ncap = if cap = 0 then 8 else cap * 2 in
    let nt = Array.make ncap 0. in
    let ns = Array.make ncap 0 in
    let ni = Array.make ncap 0 in
    Array.blit t.times.(slot) 0 nt 0 len;
    Array.blit t.seqs.(slot) 0 ns 0 len;
    Array.blit t.ids.(slot) 0 ni 0 len;
    t.times.(slot) <- nt;
    t.seqs.(slot) <- ns;
    t.ids.(slot) <- ni
  end;
  t.times.(slot).(len) <- time;
  t.seqs.(slot).(len) <- seq;
  t.ids.(slot).(len) <- id;
  t.lens.(slot) <- len + 1;
  t.move id ~slot ~idx:len

let classify t tk =
  if tk <= t.cursor then Due
  else if tk lxor t.cursor >= horizon_ticks then Far
  else Placed

let placement t ~time = classify t (tick_of t time)

let add t ~time ~seq id =
  let tk = tick_of t time in
  match classify t tk with
  | (Due | Far) as p -> p
  | Placed ->
      let l = level_of (tk lxor t.cursor) in
      let s = (tk lsr (slot_bits * l)) land slot_mask in
      push t ~slot:((l lsl slot_bits) lor s) ~time ~seq id;
      t.bitmaps.(l) <- t.bitmaps.(l) lor (1 lsl s);
      t.size <- t.size + 1;
      if t.memo >= 0 && tk < t.memo then t.memo <- tk;
      Placed

let remove t ~slot ~idx =
  let last = t.lens.(slot) - 1 in
  let removed_tick = tick_of t t.times.(slot).(idx) in
  if idx < last then begin
    t.times.(slot).(idx) <- t.times.(slot).(last);
    t.seqs.(slot).(idx) <- t.seqs.(slot).(last);
    let id = t.ids.(slot).(last) in
    t.ids.(slot).(idx) <- id;
    t.move id ~slot ~idx
  end;
  t.lens.(slot) <- last;
  if last = 0 then begin
    let l = slot lsr slot_bits and s = slot land slot_mask in
    t.bitmaps.(l) <- t.bitmaps.(l) land lnot (1 lsl s)
  end;
  t.size <- t.size - 1;
  if t.memo >= 0 && removed_tick = t.memo then t.memo <- -1

let time_at t ~slot ~idx = t.times.(slot).(idx)

let next_tick t =
  if t.memo >= 0 then t.memo
  else begin
    let l = ref 0 in
    while !l < levels && t.bitmaps.(!l) = 0 do
      incr l
    done;
    if !l >= levels then invalid_arg "Timer_wheel.next_tick: empty wheel";
    let bm = t.bitmaps.(!l) in
    let s = ref 0 in
    while bm land (1 lsl !s) = 0 do
      incr s
    done;
    let best =
      if !l = 0 then ((t.cursor lsr slot_bits) lsl slot_bits) lor !s
      else begin
        (* The lowest occupied slot of the lowest occupied level holds
           the minimum, but ticks within one level >= 1 slot span a
           32^l-tick block: scan its vec. *)
        let slot = (!l lsl slot_bits) lor !s in
        let len = t.lens.(slot) and tms = t.times.(slot) in
        let m = ref max_int in
        for i = 0 to len - 1 do
          let tk = tick_of t tms.(i) in
          if tk < !m then m := tk
        done;
        !m
      end
    in
    t.memo <- best;
    best
  end

(* Drain slot (l, s), re-filing each entry against the (already
   advanced) cursor.  Re-adds land at a strictly lower level, so the
   vec being drained is never appended to. *)
let flush t l s =
  let slot = (l lsl slot_bits) lor s in
  let len = t.lens.(slot) in
  if len > 0 then begin
    t.lens.(slot) <- 0;
    t.bitmaps.(l) <- t.bitmaps.(l) land lnot (1 lsl s);
    t.size <- t.size - len;
    let tms = t.times.(slot) and sqs = t.seqs.(slot) and ids = t.ids.(slot) in
    for i = 0 to len - 1 do
      let id = ids.(i) and time = tms.(i) and seq = sqs.(i) in
      match add t ~time ~seq id with
      | Placed -> ()
      | Due -> t.due id ~time ~seq
      | Far -> assert false
    done
  end

(* Level-0 slot of the cursor's own tick: every entry is exactly due. *)
let emit t s =
  let len = t.lens.(s) in
  if len > 0 then begin
    t.lens.(s) <- 0;
    t.bitmaps.(0) <- t.bitmaps.(0) land lnot (1 lsl s);
    t.size <- t.size - len;
    let tms = t.times.(s) and sqs = t.seqs.(s) and ids = t.ids.(s) in
    for i = 0 to len - 1 do
      t.due ids.(i) ~time:tms.(i) ~seq:sqs.(i)
    done
  end

let advance t target =
  let old = t.cursor in
  if target <= old then invalid_arg "Timer_wheel.advance: target <= cursor";
  t.cursor <- target;
  t.memo <- -1;
  let diff = target lxor old in
  if diff < horizon_ticks then begin
    (* Levels 1..level_of diff changed block; cascade top-down so each
       flush re-files into already-flushed (lower) territory. *)
    for l = level_of diff downto 1 do
      flush t l ((target lsr (slot_bits * l)) land slot_mask)
    done
  end
  else
    (* Cursor left the wheel's epoch entirely (only possible when the
       wheel is empty, since stored ticks share the epoch): every slot
       is empty, nothing to cascade. *)
    assert (t.size = 0);
  emit t (target land slot_mask)

let fold_state buf t =
  Statebuf.i buf t.cursor;
  Statebuf.i buf t.size;
  for slot = 0 to nslots - 1 do
    let len = t.lens.(slot) in
    if len > 0 then begin
      Statebuf.i buf slot;
      Statebuf.i buf len;
      for i = 0 to len - 1 do
        Statebuf.f buf t.times.(slot).(i);
        Statebuf.i buf t.seqs.(slot).(i)
      done
    end
  done

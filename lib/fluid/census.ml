(* Fluid port of the starvation census: a churning population of sized
   flows drawn from the same kind of labeled-Rng streams the packet
   [Sim.Population] engine uses (arrival times Poisson, sizes Pareto
   capped, per-flow constant jitter uniform in [0, jitter_d]), advanced
   by one shared fluid law.

   Arrival i is the sum of i + 1 exponential gaps of mean
   arrival_frac * duration / n, capped at [duration] — not at the
   arrival window's end, where the packet census caps it — so flows
   whose sum overshoots the window arrive after it (12 of the 250 flows
   of the quick heavy reno cell, the last at 3.14 s against a 3 s
   window).

   Unlike [Engine], which iterates every configured flow each step,
   this loop keeps an explicit active set (swap-remove on completion)
   so cost per step is O(active), not O(population) — the whole point
   of running a million-flow cell on the fluid backend.  Law state
   lives in per-flow arrays allocated at admission and dropped at
   completion, so resident state is bounded by peak concurrency. *)

type config = {
  key : string;
  seed : int;
  n : int;
  duration : float;
  arrival_frac : float;  (* mean gap is arrival_frac * duration / n *)
  rate : float;
  buffer : float;
  rm : float;
  mss : float;
  jitter_d : float;
  alpha : float;  (* pareto shape for sizes *)
  xm : float;  (* pareto scale, bytes *)
  size_cap : float;
  dt : float;
  law : Ccac.Model.fluid;
}

let config ~key ~seed ~n ~duration ~arrival_frac ~rate ?(buffer = infinity)
    ~rm ?(mss = 1500.) ~jitter_d ~alpha ~xm ~size_cap ?dt law =
  let dt = match dt with Some d -> d | None -> rm /. 4. in
  (* NaN-safe: each test is written so that NaN fails it. *)
  let require ok what =
    if not ok then invalid_arg ("Fluid.Census.config: " ^ what)
  in
  let positive name x =
    require (Float.is_finite x && x > 0.) (name ^ " must be finite and positive")
  in
  require (n > 0) "n must be positive";
  positive "duration" duration;
  require (arrival_frac > 0. && arrival_frac <= 1.)
    "arrival_frac must be in (0, 1]";
  positive "rate" rate;
  require (buffer >= 0.) "buffer must be >= 0";
  positive "rm" rm;
  positive "mss" mss;
  require (Float.is_finite jitter_d && jitter_d >= 0.)
    "jitter_d must be finite and >= 0";
  positive "alpha" alpha;
  positive "xm" xm;
  positive "size_cap" size_cap;
  positive "dt" dt;
  { key; seed; n; duration; arrival_frac; rate; buffer; rm; mss; jitter_d;
    alpha; xm; size_cap; dt; law }

type result = {
  goodputs : float array;
  completed : int;
  peak_active : int;
  steps : int;
  offered_bytes : float;
  served_bytes : float;
  conservation_error : float;
}

let run cfg =
  let n = cfg.n in
  let master = Sim.Rng.create ~seed:cfg.seed in
  let arr_rng = Sim.Rng.stream master ~label:(cfg.key ^ "/fluid-arrivals") in
  let size_rng = Sim.Rng.stream master ~label:(cfg.key ^ "/fluid-sizes") in
  let jit_rng = Sim.Rng.stream master ~label:(cfg.key ^ "/fluid-jitter") in
  let window = cfg.arrival_frac *. cfg.duration in
  let mean_gap = window /. float_of_int n in
  let arrival = Array.make n 0. in
  let size = Array.make n 0. in
  let jit = Array.make n 0. in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. Sim.Rng.exponential arr_rng ~mean:mean_gap;
    arrival.(i) <- Float.min !acc cfg.duration;
    size.(i) <-
      Float.min cfg.size_cap (Sim.Rng.pareto size_rng ~alpha:cfg.alpha ~xm:cfg.xm);
    jit.(i) <- Sim.Rng.uniform jit_rng ~lo:0. ~hi:cfg.jitter_d
  done;
  (* Per-flow dynamic state; [state] rows exist only while active. *)
  let state = Array.make n [||] in
  let min_d = Array.make n infinity in
  let last_d = Array.make n infinity in
  let ep_start = Array.make n 0. in
  let ep_acked = Array.make n 0. in
  let ep_lost = Bytes.make n '\000' in
  let accepted = Array.make n 0. in
  let served = Array.make n 0. in
  let t_start = Array.make n nan in
  let t_end = Array.make n nan in
  let want = Array.make n 0. in
  let active = Array.make n 0 in
  let n_active = ref 0 in
  let peak_active = ref 0 in
  let completed = ref 0 in
  let offered_total = ref 0. in
  let q = ref 0. in
  let ptr = ref 0 in
  let t = ref 0. in
  let steps = ref 0 in
  let law = cfg.law in
  while !t < cfg.duration -. 1e-9 do
    let dt = Float.min cfg.dt (cfg.duration -. !t) in
    let t' = !t +. dt in
    (* Admissions. *)
    while !ptr < n && arrival.(!ptr) <= !t +. 1e-12 do
      let i = !ptr in
      state.(i) <- law.Ccac.Model.f_init ~mss:cfg.mss;
      t_start.(i) <- !t;
      ep_start.(i) <- !t;
      active.(!n_active) <- i;
      incr n_active;
      if !n_active > !peak_active then peak_active := !n_active;
      incr ptr
    done;
    let qd = !q /. cfg.rate in
    (* Offers. *)
    let total_want = ref 0. in
    for k = 0 to !n_active - 1 do
      let i = active.(k) in
      let d = cfg.rm +. qd +. jit.(i) in
      if d < min_d.(i) then min_d.(i) <- d;
      last_d.(i) <- d;
      let w =
        Float.min
          (law.Ccac.Model.f_cwnd state.(i) /. d *. dt)
          (Float.max 0. (size.(i) -. accepted.(i)))
      in
      want.(i) <- w;
      total_want := !total_want +. w
    done;
    let room = Float.max 0. (cfg.buffer +. (cfg.rate *. dt) -. !q) in
    let scale =
      if !total_want <= room || !total_want <= 0. then 1.
      else room /. !total_want
    in
    let lossy = scale < 1. -. 1e-12 in
    for k = 0 to !n_active - 1 do
      let i = active.(k) in
      let w = want.(i) in
      if w > 0. then begin
        offered_total := !offered_total +. w;
        let a = w *. scale in
        accepted.(i) <- accepted.(i) +. a;
        if lossy then Bytes.unsafe_set ep_lost i '\001';
        q := !q +. a
      end
    done;
    (* Service: proportional to backlog; total flow backlog = q. *)
    let s_total = Float.min !q (cfg.rate *. dt) in
    if s_total > 0. && !q > 0. then begin
      let share = s_total /. !q in
      for k = 0 to !n_active - 1 do
        let i = active.(k) in
        let b = Float.max 0. (accepted.(i) -. served.(i)) in
        if b > 0. then begin
          let s = b *. share in
          served.(i) <- served.(i) +. s;
          ep_acked.(i) <- ep_acked.(i) +. s
        end
      done;
      q := Float.max 0. (!q -. s_total)
    end;
    (* Epochs + completions (iterate downward: completion swap-removes). *)
    let k = ref (!n_active - 1) in
    while !k >= 0 do
      let i = active.(!k) in
      if t' -. ep_start.(i) >= last_d.(i) then begin
        law.Ccac.Model.f_update state.(i) ~mss:cfg.mss ~delay:last_d.(i)
          ~min_delay:min_d.(i) ~acked:ep_acked.(i)
          ~lost:(Bytes.unsafe_get ep_lost i <> '\000');
        ep_start.(i) <- t';
        ep_acked.(i) <- 0.;
        Bytes.unsafe_set ep_lost i '\000'
      end;
      if served.(i) >= size.(i) -. 1e-6 then begin
        t_end.(i) <- t';
        state.(i) <- [||];
        incr completed;
        decr n_active;
        active.(!k) <- active.(!n_active)
      end;
      decr k
    done;
    t := t';
    incr steps
  done;
  let served_total = ref 0. in
  let goodputs =
    Array.init n (fun i ->
        served_total := !served_total +. served.(i);
        if Float.is_nan t_start.(i) then 0.
        else
          let e = if Float.is_nan t_end.(i) then cfg.duration else t_end.(i) in
          let span = e -. t_start.(i) in
          if span <= 0. then 0. else served.(i) /. span)
  in
  let accepted_total = Array.fold_left ( +. ) 0. accepted in
  { goodputs;
    completed = !completed;
    peak_active = !peak_active;
    steps = !steps;
    offered_bytes = !offered_total;
    served_bytes = !served_total;
    conservation_error = Float.abs (accepted_total -. !served_total -. !q) }

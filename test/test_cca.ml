(* Tests for the CCA library: filters, the monitor-interval ledger, and
   the behavior of each congestion control algorithm under synthetic ACK
   streams and small analytic feedback loops. *)

let check_float = Alcotest.(check (float 1e-9))
let check_float_eps eps = Alcotest.(check (float eps))
let qt = QCheck_alcotest.to_alcotest

(* Synthetic ACK factory. *)
let ack ?(rtt = 0.05) ?(bytes = 1500) ?(inflight = 30_000) ?(delivered = 0)
    ?(delivered_now = 1500) ?(app_limited = false) ?(ecn_ce = false) now =
  {
    Cca.now;
    rtt;
    acked_bytes = bytes;
    sent_time = now -. rtt;
    delivered;
    delivered_now;
    inflight;
    app_limited;
    ecn_ce;
  }

let loss ?(bytes = 1500) ?(packets = []) ?(inflight = 0) ?(kind = `Dupack) now =
  { Cca.now; lost_bytes = bytes; lost_packets = packets; inflight; kind }

(* Drive a window-based CCA through an analytic ideal-link loop: the RTT a
   window [w] experiences on a link of rate [c] with floor [rm] is
   max(rm, w / c) (self-inflicted queueing).  One ack per "packet". *)
let fluid_loop cca ~c ~rm ~rtts =
  let now = ref 0.1 in
  let current_rtt = ref rm in
  for _ = 1 to rtts do
    let w = cca.Cca.cwnd () in
    let rtt = Float.max rm (w /. c) in
    current_rtt := rtt;
    let packets = max 1 (int_of_float (w /. 1500.)) in
    for _ = 1 to packets do
      now := !now +. (rtt /. float_of_int packets);
      cca.Cca.on_ack (ack ~rtt !now)
    done
  done;
  !current_rtt

(* ------------------------------------------------------------------ *)
(* Window filters                                                      *)
(* ------------------------------------------------------------------ *)

let test_extremum_min () =
  let f = Window.Extremum.create_min ~window:10. in
  Window.Extremum.push f ~time:1. 5.;
  Window.Extremum.push f ~time:2. 3.;
  Window.Extremum.push f ~time:3. 4.;
  Alcotest.(check (option (float 1e-9))) "min" (Some 3.) (Window.Extremum.get f)

let test_extremum_max () =
  let f = Window.Extremum.create_max ~window:10. in
  Window.Extremum.push f ~time:1. 5.;
  Window.Extremum.push f ~time:2. 9.;
  Window.Extremum.push f ~time:3. 4.;
  Alcotest.(check (option (float 1e-9))) "max" (Some 9.) (Window.Extremum.get f)

let test_extremum_eviction () =
  let f = Window.Extremum.create_min ~window:5. in
  Window.Extremum.push f ~time:0. 1.;
  Window.Extremum.push f ~time:6. 7.;
  (* the 1. at t=0 is stale relative to t=6 *)
  Alcotest.(check (option (float 1e-9))) "evicted" (Some 7.) (Window.Extremum.get f)

let test_extremum_empty () =
  let f = Window.Extremum.create_min ~window:5. in
  Alcotest.(check (option (float 1e-9))) "empty" None (Window.Extremum.get f);
  check_float "default" 42. (Window.Extremum.get_default f 42.)

let test_extremum_window_change () =
  let f = Window.Extremum.create_min ~window:100. in
  Window.Extremum.push f ~time:0. 1.;
  Window.Extremum.set_window f 2.;
  Window.Extremum.push f ~time:10. 5.;
  Alcotest.(check (option (float 1e-9))) "shrunk window" (Some 5.)
    (Window.Extremum.get f)

let prop_extremum_matches_naive =
  QCheck.Test.make ~name:"sliding min matches naive recomputation" ~count:200
    QCheck.(list_of_size Gen.(1 -- 40) (float_range 0. 100.))
    (fun vs ->
      let window = 7. in
      let f = Window.Extremum.create_min ~window in
      let samples = List.mapi (fun i v -> (float_of_int i, v)) vs in
      List.for_all
        (fun (t, v) ->
          Window.Extremum.push f ~time:t v;
          let naive =
            List.filter (fun (t', _) -> t' >= t -. window && t' <= t) samples
            |> List.map snd
            |> List.fold_left Float.min infinity
          in
          match Window.Extremum.get f with
          | Some got -> Float.abs (got -. naive) < 1e-9
          | None -> false)
        samples)

(* The list deque [Window.Extremum] used before its ring buffer, kept as a
   reference oracle: newest first, the extremum at the tail, eviction by
   the keep rule [time >= now - window] on push only, and a new sample
   displacing every older one it ties or beats. *)
module List_extremum = struct
  type entry = { time : float; value : float }

  type t = {
    mutable window : float;
    dominates : float -> float -> bool; (* [dominates new old] *)
    mutable items : entry list; (* newest first *)
  }

  let create ~is_min ~window =
    let dominates = if is_min then fun n o -> n <= o else fun n o -> n >= o in
    { window; dominates; items = [] }

  let push t ~time value =
    let cutoff = time -. t.window in
    t.items <- List.filter (fun e -> e.time >= cutoff) t.items;
    let rec drop_dominated = function
      | e :: rest when t.dominates value e.value -> drop_dominated rest
      | l -> l
    in
    t.items <- { time; value } :: drop_dominated t.items

  let get t =
    match List.rev t.items with [] -> None | e :: _ -> Some e.value

  let set_window t w = t.window <- w
  let clear t = t.items <- []
end

type extremum_op =
  | Ext_push of float * float (* time step, noise added to the trend *)
  | Ext_push_exact of float * float (* time step, value *)
  | Ext_window of float
  | Ext_clear

let extremum_window_gen = QCheck.Gen.oneofl [ 0.; 0.5; 2.; 7.; 40.; infinity ]

(* A trend against the filter's direction (rising values into a min
   filter) keeps most samples live, so long streams wrap and grow the
   ring; a 0 trend with small integer noise gives runs of equal values,
   and zero time steps give equal timestamps.  Signed zeros compare equal
   but differ in bits, so they expose the tie rule; NaN exposes the
   comparison directions, and a rare infinite time step (until the next
   clear) a NaN cutoff under an infinite window. *)
let extremum_stream_arb =
  let open QCheck.Gen in
  let dt = frequencyl [ (100, 0.); (50, 0.25); (50, 1.); (1, infinity) ] in
  let op =
    frequency
      [
        ( 30,
          map2
            (fun dt noise -> Ext_push (dt, noise))
            dt
            (map float_of_int (int_range 0 3)) );
        ( 3,
          map2
            (fun dt v -> Ext_push_exact (dt, v))
            dt
            (oneofl [ 0.; -0.; nan ]) );
        (1, map (fun w -> Ext_window w) extremum_window_gen);
        (1, return Ext_clear);
      ]
  in
  let gen =
    let* is_min = bool in
    let* window = extremum_window_gen in
    let* trend = oneofl [ -1.; 0.; 1. ] in
    let+ ops = list_size (int_range 1 500) op in
    (is_min, window, trend, ops)
  in
  QCheck.make
    ~print:(fun (is_min, window, trend, ops) ->
      Printf.sprintf "%s window=%g trend=%g, %d ops"
        (if is_min then "min" else "max")
        window trend (List.length ops))
    gen

let prop_extremum_matches_list_oracle =
  QCheck.Test.make ~name:"ring extremum matches the list oracle bit for bit"
    ~count:300 extremum_stream_arb
    (fun (is_min, window, trend, ops) ->
      let ring =
        if is_min then Window.Extremum.create_min ~window
        else Window.Extremum.create_max ~window
      in
      let oracle = List_extremum.create ~is_min ~window in
      let now = ref 0. in
      List.iteri
        (fun i op ->
          let push dt v =
            now := !now +. dt;
            Window.Extremum.push ring ~time:!now v;
            List_extremum.push oracle ~time:!now v
          in
          (match op with
          | Ext_push (dt, noise) -> push dt ((trend *. float_of_int i) +. noise)
          | Ext_push_exact (dt, v) -> push dt v
          | Ext_window w ->
              Window.Extremum.set_window ring w;
              List_extremum.set_window oracle w
          | Ext_clear ->
              (* A cleared filter forgets its newest time: reuse it from 0. *)
              now := 0.;
              Window.Extremum.clear ring;
              List_extremum.clear oracle);
          let bits = Option.map Int64.bits_of_float in
          if bits (Window.Extremum.get ring) <> bits (List_extremum.get oracle)
          then
            QCheck.Test.fail_reportf "op %d: ring %s, oracle %s" i
              (Option.fold ~none:"None" ~some:string_of_float
                 (Window.Extremum.get ring))
              (Option.fold ~none:"None" ~some:string_of_float
                 (List_extremum.get oracle)))
        ops;
      true)

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let test_extremum_rejects_bad_input () =
  let f = Window.Extremum.create_min ~window:10. in
  Window.Extremum.push f ~time:5. 1.;
  Alcotest.(check bool) "push earlier than the newest sample" true
    (raises_invalid (fun () -> Window.Extremum.push f ~time:4.9 0.));
  Alcotest.(check (option (float 0.))) "rejected push changes nothing" (Some 1.)
    (Window.Extremum.get f);
  Window.Extremum.push f ~time:5. 2. (* an equal time is accepted *);
  Window.Extremum.clear f;
  Window.Extremum.push f ~time:0. 3. (* clear forgets the newest time *);
  Alcotest.(check (option (float 0.))) "reused after clear" (Some 3.)
    (Window.Extremum.get f);
  List.iter
    (fun w ->
      let name what = Printf.sprintf "%s rejects window %g" what w in
      Alcotest.(check bool) (name "create_min") true
        (raises_invalid (fun () -> Window.Extremum.create_min ~window:w));
      Alcotest.(check bool) (name "create_max") true
        (raises_invalid (fun () -> Window.Extremum.create_max ~window:w));
      Alcotest.(check bool) (name "set_window") true
        (raises_invalid (fun () -> Window.Extremum.set_window f w)))
    [ nan; -1.; neg_infinity ]

(* Allocation budget: 100 000 rising samples into a 100 s min filter all
   stay live, the worst case for the deque.  The ring's doublings are
   major-heap allocations, so the minor words per push are the boxed
   arguments alone (a list deque copied the whole list on every push).
   Bytecode boxes differently, so the budget only binds on the native
   backend. *)
let test_extremum_minor_words_budget () =
  match Sys.backend_type with
  | Sys.Native ->
      let n = 100_000 in
      let f = Window.Extremum.create_min ~window:100. in
      let w0 = Gc.minor_words () in
      for i = 0 to n - 1 do
        Window.Extremum.push f ~time:(float_of_int i *. 1e-3) (float_of_int i)
      done;
      let per_push = (Gc.minor_words () -. w0) /. float_of_int n in
      Alcotest.(check (option (float 0.))) "oldest sample is the minimum"
        (Some 0.) (Window.Extremum.get f);
      Alcotest.(check bool)
        (Printf.sprintf "%.2f minor words/push <= 8" per_push)
        true (per_push <= 8.)
  | Sys.Bytecode | Sys.Other _ -> ()

let test_ewma () =
  let e = Window.Ewma.create ~gain:0.5 in
  Alcotest.(check (option (float 1e-9))) "empty" None (Window.Ewma.get e);
  Window.Ewma.push e 10.;
  check_float "first" 10. (Window.Ewma.get_default e 0.);
  Window.Ewma.push e 20.;
  check_float "second" 15. (Window.Ewma.get_default e 0.)

(* ------------------------------------------------------------------ *)
(* Mini_rng                                                            *)
(* ------------------------------------------------------------------ *)

let test_mini_rng () =
  let a = Mini_rng.create ~seed:5 and b = Mini_rng.create ~seed:5 in
  for _ = 1 to 50 do
    check_float "deterministic" (Mini_rng.float a) (Mini_rng.float b)
  done;
  let c = Mini_rng.create ~seed:6 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Mini_rng.float a <> Mini_rng.float c then differs := true
  done;
  Alcotest.(check bool) "seeds differ" true !differs

(* ------------------------------------------------------------------ *)
(* Cca basics                                                          *)
(* ------------------------------------------------------------------ *)

let test_bandwidth_sample () =
  let a = ack ~rtt:0.1 ~delivered:1000 ~delivered_now:11000 1.0 in
  check_float "rate" 1e5 (Cca.bandwidth_sample a);
  let degenerate = ack ~rtt:0.0 ~delivered:5 ~delivered_now:5 1.0 in
  check_float "degenerate" 0. (Cca.bandwidth_sample degenerate)

let test_bandwidth_sample_degenerate () =
  (* Zero or negative measurement intervals must not produce garbage. *)
  let bad =
    { (ack 1.0) with Cca.sent_time = 1.5 (* "sent after acked" *) }
  in
  check_float "negative interval" 0. (Cca.bandwidth_sample bad);
  let no_delivery = { (ack 1.0) with Cca.delivered = 10; delivered_now = 10 } in
  check_float "no delivered bytes" 0. (Cca.bandwidth_sample no_delivery)

let test_stub () =
  let c = Const_cwnd.make () in
  c.Cca.on_ack (ack 1.);
  c.Cca.on_loss (loss 2.);
  check_float "cwnd constant" 15000. (c.Cca.cwnd ());
  Alcotest.(check (option (float 1.))) "no pacing" None (c.Cca.pacing_rate ())

(* ------------------------------------------------------------------ *)
(* Mi_ledger                                                           *)
(* ------------------------------------------------------------------ *)

let test_ledger_attribution () =
  let l = Mi_ledger.create () in
  Mi_ledger.begin_mi l ~now:0. ~rate:100. ~label:1;
  Mi_ledger.on_send l ~bytes:3000;
  Mi_ledger.begin_mi l ~now:1. ~rate:200. ~label:2;
  Mi_ledger.on_send l ~bytes:1500;
  (* ACK for a packet sent during MI 1 arrives during MI 2. *)
  Mi_ledger.on_ack l ~sent_time:0.5 ~now:1.2 ~bytes:1500 ~rtt:0.05;
  Mi_ledger.on_ack l ~sent_time:0.6 ~now:1.3 ~bytes:1500 ~rtt:0.05;
  let done1 = Mi_ledger.poll l ~now:1.3 ~grace:10. in
  Alcotest.(check int) "MI 1 complete" 1 (List.length done1);
  let r = List.hd done1 in
  Alcotest.(check int) "label" 1 r.Mi_ledger.label;
  Alcotest.(check int) "acked" 3000 r.Mi_ledger.acked_bytes;
  check_float "rate" 100. r.Mi_ledger.rate

let test_ledger_loss_attribution () =
  let l = Mi_ledger.create () in
  Mi_ledger.begin_mi l ~now:0. ~rate:100. ~label:1;
  Mi_ledger.on_send l ~bytes:3000;
  Mi_ledger.begin_mi l ~now:1. ~rate:100. ~label:2;
  Mi_ledger.on_loss l ~lost_packets:[ (0.2, 1500); (0.8, 1500) ];
  let done1 = Mi_ledger.poll l ~now:1.1 ~grace:10. in
  Alcotest.(check int) "complete via loss" 1 (List.length done1);
  let r = List.hd done1 in
  check_float "loss fraction" 1. (Mi_ledger.loss_fraction r)

let test_ledger_grace () =
  let l = Mi_ledger.create () in
  Mi_ledger.begin_mi l ~now:0. ~rate:100. ~label:1;
  Mi_ledger.on_send l ~bytes:3000;
  Mi_ledger.begin_mi l ~now:1. ~rate:100. ~label:(-1);
  (* Nothing acked: completes only after the grace period. *)
  Alcotest.(check int) "not yet" 0 (List.length (Mi_ledger.poll l ~now:1.5 ~grace:2.));
  Alcotest.(check int) "after grace" 1
    (List.length (Mi_ledger.poll l ~now:3.1 ~grace:2.))

let test_ledger_filler_hidden () =
  let l = Mi_ledger.create () in
  Mi_ledger.begin_mi l ~now:0. ~rate:100. ~label:(-1);
  Mi_ledger.begin_mi l ~now:1. ~rate:100. ~label:5;
  Alcotest.(check int) "filler not reported" 0
    (List.length (Mi_ledger.poll l ~now:1.2 ~grace:0.1))

let test_ledger_slope () =
  let r =
    {
      Mi_ledger.label = 0;
      rate = 1.;
      duration = 1.;
      sent_bytes = 0;
      acked_bytes = 0;
      lost_bytes = 0;
      rtt_samples = [ (0., 0.10); (1., 0.11); (2., 0.12) ];
    }
  in
  check_float_eps 1e-9 "slope" 0.01 (Mi_ledger.rtt_slope r);
  let flat = { r with rtt_samples = [ (0., 0.1); (1., 0.1) ] } in
  check_float "flat" 0. (Mi_ledger.rtt_slope flat);
  let single = { r with rtt_samples = [ (0., 0.1) ] } in
  check_float "single" 0. (Mi_ledger.rtt_slope single)

let test_ledger_current_rate () =
  let l = Mi_ledger.create () in
  Alcotest.(check (option (float 1e-9))) "empty" None (Mi_ledger.current_rate l);
  Mi_ledger.begin_mi l ~now:0. ~rate:123. ~label:0;
  Alcotest.(check (option (float 1e-9))) "current" (Some 123.)
    (Mi_ledger.current_rate l)

let test_ledger_out_of_range_ack_ignored () =
  let l = Mi_ledger.create () in
  Mi_ledger.begin_mi l ~now:10. ~rate:100. ~label:1;
  Mi_ledger.on_send l ~bytes:1500;
  (* ACK for a packet sent before the ledger existed: no owner. *)
  Mi_ledger.on_ack l ~sent_time:5. ~now:10.5 ~bytes:1500 ~rtt:0.05;
  Mi_ledger.begin_mi l ~now:11. ~rate:100. ~label:2;
  let done1 = Mi_ledger.poll l ~now:11.1 ~grace:100. in
  Alcotest.(check int) "MI 1 still open (its send unaccounted)" 0 (List.length done1)

let test_ledger_completion_order () =
  let l = Mi_ledger.create () in
  Mi_ledger.begin_mi l ~now:0. ~rate:1. ~label:1;
  Mi_ledger.on_send l ~bytes:100;
  Mi_ledger.begin_mi l ~now:1. ~rate:2. ~label:2;
  Mi_ledger.on_send l ~bytes:100;
  Mi_ledger.begin_mi l ~now:2. ~rate:3. ~label:3;
  Mi_ledger.on_ack l ~sent_time:0.5 ~now:2.1 ~bytes:100 ~rtt:0.05;
  Mi_ledger.on_ack l ~sent_time:1.5 ~now:2.2 ~bytes:100 ~rtt:0.05;
  let finished = Mi_ledger.poll l ~now:2.3 ~grace:100. in
  Alcotest.(check (list int)) "oldest first" [ 1; 2 ]
    (List.map (fun r -> r.Mi_ledger.label) finished)

(* ------------------------------------------------------------------ *)
(* Vegas                                                               *)
(* ------------------------------------------------------------------ *)

let test_vegas_slow_start_doubles () =
  let c = Vegas.make () in
  let w0 = c.Cca.cwnd () in
  (* Constant-RTT acks: no queueing perceived, so slow start persists and
     the window doubles every other per-RTT epoch. *)
  for i = 1 to 400 do
    c.Cca.on_ack (ack ~rtt:0.05 (float_of_int i *. 0.01))
  done;
  Alcotest.(check bool) "grew" true (c.Cca.cwnd () > 4. *. w0)

let test_vegas_decreases_when_queue_high () =
  (* Start with a big window so the decrease is visible above the
     2-packet floor. *)
  let c = Vegas.make ~params:{ Vegas.default_params with init_cwnd_packets = 50. } () in
  (* Establish a low base RTT, then sustained high RTT = big queue.  Keep
     the run short so the window stays well above its 2-packet floor. *)
  c.Cca.on_ack (ack ~rtt:0.05 0.01);
  for i = 1 to 5 do
    c.Cca.on_ack (ack ~rtt:0.09 (0.02 +. (float_of_int i *. 0.09)))
  done;
  let w1 = c.Cca.cwnd () in
  for i = 6 to 15 do
    c.Cca.on_ack (ack ~rtt:0.09 (0.02 +. (float_of_int i *. 0.09)))
  done;
  let w2 = c.Cca.cwnd () in
  Alcotest.(check bool) "decreasing" true (w2 < w1);
  Alcotest.(check bool) "still above floor" true (w2 > 3000.)

let test_vegas_gamma_exit () =
  (* Slow start must end as soon as perceived queueing crosses gamma. *)
  let p = { Vegas.default_params with gamma = 0.5 } in
  let c = Vegas.make ~params:p () in
  c.Cca.on_ack (ack ~rtt:0.05 0.01);
  Alcotest.(check (float 1e-9)) "in slow start" 1.
    (List.assoc "slow_start" (c.Cca.inspect ()));
  (* RTT implying > 0.5 packets queued with the current window. *)
  for i = 1 to 5 do
    c.Cca.on_ack (ack ~rtt:0.08 (0.02 +. (float_of_int i *. 0.08)))
  done;
  Alcotest.(check (float 1e-9)) "exited" 0.
    (List.assoc "slow_start" (c.Cca.inspect ()))

let test_vegas_fluid_equilibrium () =
  let p = Vegas.default_params in
  let c = Vegas.make ~params:p () in
  let rate = Sim.Units.mbps 12. in
  let rtt = fluid_loop c ~c:rate ~rm:0.04 ~rtts:400 in
  (* Equilibrium: between alpha and beta packets queued. *)
  let queued = (rtt -. 0.04) *. rate /. 1500. in
  Alcotest.(check bool)
    (Printf.sprintf "queued %.2f in [alpha-1, beta+1]" queued)
    true
    (queued >= p.Vegas.alpha -. 1. && queued <= p.Vegas.beta +. 1.)

let test_vegas_timeout_resets () =
  let c = Vegas.make () in
  for i = 1 to 200 do
    c.Cca.on_ack (ack ~rtt:0.05 (float_of_int i *. 0.01))
  done;
  c.Cca.on_loss (loss ~kind:`Timeout 3.);
  check_float "reset to 2 packets" 3000. (c.Cca.cwnd ())

let test_vegas_equilibrium_rtt_formula () =
  let p = Vegas.default_params in
  check_float_eps 1e-9 "formula" (0.04 +. (3. *. 1500. /. 1.5e6))
    (Vegas.equilibrium_rtt p ~rate:1.5e6 ~rm:0.04)

(* ------------------------------------------------------------------ *)
(* FAST                                                                *)
(* ------------------------------------------------------------------ *)

let test_fast_fluid_equilibrium () =
  let p = Fast_tcp.default_params in
  let c = Fast_tcp.make ~params:p () in
  let rate = Sim.Units.mbps 24. in
  let rtt = fluid_loop c ~c:rate ~rm:0.05 ~rtts:300 in
  let expect = Fast_tcp.equilibrium_rtt p ~rate ~rm:0.05 in
  check_float_eps 2e-3 "converges to alpha packets queued" expect rtt

let test_fast_alpha_scales_queue () =
  (* Doubling alpha doubles the equilibrium queue. *)
  let rate = Sim.Units.mbps 24. in
  let measure alpha =
    let p = { Fast_tcp.default_params with alpha_packets = alpha } in
    let c = Fast_tcp.make ~params:p () in
    fluid_loop c ~c:rate ~rm:0.05 ~rtts:300 -. 0.05
  in
  let q10 = measure 10. and q20 = measure 20. in
  check_float_eps 1e-3 "q(20) ~ 2 q(10)" (2. *. q10) q20

let test_fast_cap_doubling () =
  let c = Fast_tcp.make () in
  let w0 = c.Cca.cwnd () in
  (* One per-RTT update with an empty queue: growth is capped at 2x. *)
  c.Cca.on_ack (ack ~rtt:0.05 0.01);
  c.Cca.on_ack (ack ~rtt:0.05 0.08);
  Alcotest.(check bool) "at most doubles per epoch" true (c.Cca.cwnd () <= 2. *. w0 +. 1.)

let test_fast_timeout_resets () =
  let c = Fast_tcp.make () in
  c.Cca.on_loss (loss ~kind:`Timeout 1.);
  check_float "reset" 3000. (c.Cca.cwnd ())

(* ------------------------------------------------------------------ *)
(* Copa                                                                *)
(* ------------------------------------------------------------------ *)

let test_copa_fluid_equilibrium () =
  let p = Copa.default_params in
  let c = Copa.make ~params:p () in
  let rate = Sim.Units.mbps 24. in
  let rtt = fluid_loop c ~c:rate ~rm:0.05 ~rtts:600 in
  let dq = rtt -. 0.05 in
  let expect = Copa.equilibrium_queue_delay p ~rate in
  (* Within the 4-packet oscillation band. *)
  Alcotest.(check bool)
    (Printf.sprintf "queue delay %.4f ~ %.4f" dq expect)
    true
    (Float.abs (dq -. expect) < 4. *. 1500. /. rate)

let test_copa_poisoned_min_rtt_caps_rate () =
  let p = Copa.default_params in
  check_float_eps 1e-9 "equilibrium queue delay formula"
    (1500. /. (0.5 *. 1e6))
    (Copa.equilibrium_queue_delay p ~rate:1e6);
  (* A 1 ms phantom queue caps the target at 1/(delta * 1ms) packets/s. *)
  let c = Copa.make ~params:p () in
  c.Cca.on_ack (ack ~rtt:0.059 0.01);
  for i = 1 to 50 do
    c.Cca.on_ack (ack ~rtt:0.060 (0.02 +. (float_of_int i *. 0.06)))
  done;
  let target =
    match List.assoc_opt "target_pps" (c.Cca.inspect ()) with
    | Some v -> v
    | None -> nan
  in
  check_float_eps 1. "target = 1/(0.5 * 1ms) = 2000 pps" 2000. target

let test_copa_velocity_resets_on_direction_change () =
  let c = Copa.make () in
  (* Build up some state. *)
  for i = 1 to 100 do
    c.Cca.on_ack (ack ~rtt:0.05 (float_of_int i *. 0.01))
  done;
  let v = List.assoc "velocity" (c.Cca.inspect ()) in
  Alcotest.(check bool) "velocity >= 1" true (v >= 1.)

let test_copa_velocity_doubles_when_consistent () =
  let c = Copa.make () in
  (* Constant low RTT: the target stays far above the current rate, the
     window climbs every epoch, and after three same-direction epochs the
     velocity starts doubling. *)
  for i = 1 to 60 do
    (* One ack per 50 ms: every ack is its own per-RTT epoch. *)
    c.Cca.on_ack (ack ~rtt:0.05 (float_of_int i *. 0.05))
  done;
  let v = List.assoc "velocity" (c.Cca.inspect ()) in
  Alcotest.(check bool) (Printf.sprintf "velocity %.0f >= 4" v) true (v >= 4.)

let test_copa_pacing_set () =
  let c = Copa.make () in
  c.Cca.on_ack (ack ~rtt:0.05 0.01);
  match c.Cca.pacing_rate () with
  | Some r -> Alcotest.(check bool) "pacing = 2*cwnd/standing" true (r > 0.)
  | None -> Alcotest.fail "copa should pace"

(* ------------------------------------------------------------------ *)
(* BBR                                                                 *)
(* ------------------------------------------------------------------ *)

let bbr_mode c = List.assoc "mode" (c.Cca.inspect ())

let feed_bbr c ~rtt ~rate_bps ~seconds ~start =
  (* Synthetic steady ACK stream at a given delivery rate. *)
  let dt = 1500. /. rate_bps in
  let n = int_of_float (seconds /. dt) in
  let delivered = ref 0 in
  for i = 0 to n - 1 do
    let now = start +. (float_of_int i *. dt) in
    delivered := !delivered + 1500;
    c.Cca.on_ack
      (ack ~rtt ~delivered:(!delivered - 1500 - int_of_float (rate_bps *. rtt))
         ~delivered_now:!delivered now)
  done

let test_bbr_startup_exits () =
  let c = Bbr.make () in
  check_float "starts in startup" 0. (bbr_mode c);
  feed_bbr c ~rtt:0.05 ~rate_bps:1e6 ~seconds:2. ~start:0.1;
  (* Flat bandwidth for many rounds: full pipe detected, startup left. *)
  Alcotest.(check bool) "left startup" true (bbr_mode c > 0.)

let test_bbr_cwnd_formula () =
  let p = Bbr.default_params in
  let c = Bbr.make ~params:p () in
  feed_bbr c ~rtt:0.05 ~rate_bps:1e6 ~seconds:3. ~start:0.1;
  let bw = List.assoc "btl_bw" (c.Cca.inspect ()) in
  let min_rtt = List.assoc "min_rtt" (c.Cca.inspect ()) in
  if bbr_mode c = 2. then begin
    let expect = (p.Bbr.cwnd_gain *. bw *. min_rtt) +. (p.Bbr.quanta_packets *. 1500.) in
    check_float_eps 1. "cwnd = 2 bdp + quanta" expect (c.Cca.cwnd ())
  end

let test_bbr_no_quanta_cwnd_formula () =
  let p = { Bbr.default_params with enable_quanta = false } in
  let c = Bbr.make ~params:p () in
  feed_bbr c ~rtt:0.05 ~rate_bps:1e6 ~seconds:3. ~start:0.1;
  if bbr_mode c = 2. then begin
    let bw = List.assoc "btl_bw" (c.Cca.inspect ()) in
    let min_rtt = List.assoc "min_rtt" (c.Cca.inspect ()) in
    check_float_eps 1. "cwnd = 2 bdp exactly" (2. *. bw *. min_rtt) (c.Cca.cwnd ())
  end

let test_bbr_quanta_ablation () =
  let with_q = Bbr.make () in
  let without_q =
    Bbr.make ~params:{ Bbr.default_params with enable_quanta = false } ()
  in
  feed_bbr with_q ~rtt:0.05 ~rate_bps:1e6 ~seconds:3. ~start:0.1;
  feed_bbr without_q ~rtt:0.05 ~rate_bps:1e6 ~seconds:3. ~start:0.1;
  Alcotest.(check bool) "quanta adds to cwnd" true
    (with_q.Cca.cwnd () > without_q.Cca.cwnd ())

let test_bbr_max_filter () =
  let c = Bbr.make () in
  feed_bbr c ~rtt:0.05 ~rate_bps:1e6 ~seconds:1. ~start:0.1;
  let bw1 = List.assoc "btl_bw" (c.Cca.inspect ()) in
  (* A burst of faster deliveries raises the max filter. *)
  feed_bbr c ~rtt:0.05 ~rate_bps:2e6 ~seconds:0.5 ~start:1.2;
  let bw2 = List.assoc "btl_bw" (c.Cca.inspect ()) in
  Alcotest.(check bool) "max filter rises" true (bw2 > bw1)

let test_bbr_equilibrium_formulas () =
  let p = Bbr.default_params in
  let alpha = p.Bbr.quanta_packets *. 1500. in
  check_float_eps 1e-9 "rate = alpha/(rtt-2rm)" (alpha /. 0.01)
    (Bbr.equilibrium_rate_cwnd_limited p ~rtt:0.09 ~rm:0.04);
  check_float_eps 1e-9 "rtt = 2rm + n alpha / C"
    (0.08 +. (2. *. alpha /. 1e6))
    (Bbr.equilibrium_rtt_cwnd_limited p ~rate:1e6 ~rm:0.04 ~n_flows:2)

let test_bbr_gain_cycle_visits_probe_and_drain () =
  let c = Bbr.make () in
  feed_bbr c ~rtt:0.05 ~rate_bps:1e6 ~seconds:2. ~start:0.1;
  (* Now in ProbeBW: over the next few seconds the pacing gain must visit
     both the 1.25 probe phase and the 0.75 drain phase. *)
  Alcotest.(check (float 1e-9)) "in probe_bw" 2. (bbr_mode c);
  let seen_probe = ref false and seen_drain = ref false in
  let dt = 1500. /. 1e6 in
  let delivered = ref 1_000_000 in
  for i = 0 to int_of_float (3. /. dt) do
    let now = 2.2 +. (float_of_int i *. dt) in
    delivered := !delivered + 1500;
    c.Cca.on_ack
      (ack ~rtt:0.05 ~delivered:(!delivered - 60_000) ~delivered_now:!delivered now);
    let g = List.assoc "pacing_gain" (c.Cca.inspect ()) in
    if g > 1.2 then seen_probe := true;
    if g < 0.8 then seen_drain := true
  done;
  Alcotest.(check bool) "probe phase seen" true !seen_probe;
  Alcotest.(check bool) "drain phase seen" true !seen_drain

let test_bbr_startup_gain () =
  let c = Bbr.make () in
  c.Cca.on_ack (ack ~rtt:0.05 ~delivered:0 ~delivered_now:1500 0.1);
  Alcotest.(check (float 1e-6)) "startup pacing gain" 2.89
    (List.assoc "pacing_gain" (c.Cca.inspect ()))

let test_bbr_probe_rtt_on_stale_min () =
  let c = Bbr.make () in
  feed_bbr c ~rtt:0.05 ~rate_bps:1e6 ~seconds:3. ~start:0.1;
  (* Now feed higher RTTs for > 10 s so the min filter goes stale. *)
  feed_bbr c ~rtt:0.06 ~rate_bps:1e6 ~seconds:11. ~start:3.5;
  (* Mode should have passed through Probe_rtt (3.) at some point; at least
     the filter must have been refreshed to the higher floor. *)
  let min_rtt = List.assoc "min_rtt" (c.Cca.inspect ()) in
  Alcotest.(check bool) "min rtt refreshed" true (min_rtt >= 0.059)

(* ------------------------------------------------------------------ *)
(* Reno & Cubic                                                        *)
(* ------------------------------------------------------------------ *)

let test_reno_slow_start () =
  let c = Reno.make () in
  let w0 = c.Cca.cwnd () in
  for i = 1 to 10 do
    c.Cca.on_ack (ack (float_of_int i *. 0.01))
  done;
  check_float "byte-counted slow start" (w0 +. (10. *. 1500.)) (c.Cca.cwnd ())

let test_reno_halves_on_dupack () =
  let c = Reno.make () in
  for i = 1 to 20 do
    c.Cca.on_ack (ack (float_of_int i *. 0.01))
  done;
  let w = c.Cca.cwnd () in
  c.Cca.on_loss (loss 1.);
  check_float_eps 1. "halved" (w /. 2.) (c.Cca.cwnd ())

let test_reno_timeout_to_one_mss () =
  let c = Reno.make () in
  for i = 1 to 20 do
    c.Cca.on_ack (ack (float_of_int i *. 0.01))
  done;
  c.Cca.on_loss (loss ~kind:`Timeout 1.);
  check_float "one mss" 1500. (c.Cca.cwnd ())

let test_reno_loss_coalescing () =
  let c = Reno.make () in
  for i = 1 to 20 do
    c.Cca.on_ack (ack ~rtt:0.05 (float_of_int i *. 0.01))
  done;
  let w = c.Cca.cwnd () in
  c.Cca.on_loss (loss 1.);
  (* A second loss within one RTT of the first is the same event. *)
  c.Cca.on_loss (loss 1.02);
  check_float_eps 1. "only one halving" (w /. 2.) (c.Cca.cwnd ())

let test_reno_congestion_avoidance_rate () =
  let c =
    Reno.make ~params:{ Reno.default_params with initial_ssthresh = 15000. } ()
  in
  (* Push past ssthresh. *)
  for i = 1 to 10 do
    c.Cca.on_ack (ack (float_of_int i *. 0.01))
  done;
  let w = c.Cca.cwnd () in
  (* One window's worth of acks should add about one mss. *)
  let packets = int_of_float (w /. 1500.) in
  for i = 1 to packets do
    c.Cca.on_ack (ack (0.2 +. (float_of_int i *. 0.001)))
  done;
  check_float_eps 160. "one mss per rtt" (w +. 1500.) (c.Cca.cwnd ())

let test_cubic_reduction_factor () =
  let c = Cubic.make () in
  for i = 1 to 30 do
    c.Cca.on_ack (ack (float_of_int i *. 0.01))
  done;
  let w = c.Cca.cwnd () in
  c.Cca.on_loss (loss 1.);
  check_float_eps 1. "beta = 0.7" (0.7 *. w) (c.Cca.cwnd ())

let test_cubic_recovers_toward_wmax () =
  let c = Cubic.make () in
  for i = 1 to 30 do
    c.Cca.on_ack (ack (float_of_int i *. 0.01))
  done;
  let w_max = c.Cca.cwnd () in
  c.Cca.on_loss (loss 1.);
  (* Feed acks for a while: the window must climb back toward w_max. *)
  for i = 1 to 2000 do
    c.Cca.on_ack (ack ~rtt:0.05 (1.1 +. (float_of_int i *. 0.005)))
  done;
  Alcotest.(check bool) "recovered most of w_max" true (c.Cca.cwnd () > 0.9 *. w_max)

let test_cubic_timeout () =
  let c = Cubic.make () in
  for i = 1 to 30 do
    c.Cca.on_ack (ack (float_of_int i *. 0.01))
  done;
  c.Cca.on_loss (loss ~kind:`Timeout 1.);
  check_float "one mss" 1500. (c.Cca.cwnd ())

(* ------------------------------------------------------------------ *)
(* PCC utilities                                                       *)
(* ------------------------------------------------------------------ *)

let test_vivace_utility_monotone_in_rate () =
  let p = Pcc_vivace.default_params in
  let u1 = Pcc_vivace.utility p ~rate_mbps:10. ~rtt_gradient:0. ~loss:0. in
  let u2 = Pcc_vivace.utility p ~rate_mbps:20. ~rtt_gradient:0. ~loss:0. in
  Alcotest.(check bool) "increasing" true (u2 > u1)

let test_vivace_utility_penalizes_latency_slope () =
  let p = Pcc_vivace.default_params in
  let clean = Pcc_vivace.utility p ~rate_mbps:10. ~rtt_gradient:0. ~loss:0. in
  let building = Pcc_vivace.utility p ~rate_mbps:10. ~rtt_gradient:0.01 ~loss:0. in
  let draining = Pcc_vivace.utility p ~rate_mbps:10. ~rtt_gradient:(-0.01) ~loss:0. in
  Alcotest.(check bool) "positive slope penalized" true (building < clean);
  check_float "negative slope not rewarded" clean draining

let test_vivace_utility_penalizes_loss () =
  let p = Pcc_vivace.default_params in
  let clean = Pcc_vivace.utility p ~rate_mbps:10. ~rtt_gradient:0. ~loss:0. in
  let lossy = Pcc_vivace.utility p ~rate_mbps:10. ~rtt_gradient:0. ~loss:0.05 in
  Alcotest.(check bool) "loss penalized" true (lossy < clean)

let test_allegro_utility_cliff () =
  let p = Pcc_allegro.default_params in
  let below = Pcc_allegro.utility p ~rate_mbps:10. ~loss:0.02 in
  let above = Pcc_allegro.utility p ~rate_mbps:10. ~loss:0.10 in
  Alcotest.(check bool) "below threshold positive" true (below > 0.);
  Alcotest.(check bool) "above threshold negative" true (above < 0.);
  (* And below threshold, utility still grows with rate. *)
  let below2 = Pcc_allegro.utility p ~rate_mbps:20. ~loss:0.02 in
  Alcotest.(check bool) "grows with rate under threshold" true (below2 > below)

let test_pcc_timers_advance () =
  List.iter
    (fun c ->
      match c.Cca.next_timer () with
      | None -> Alcotest.fail "PCC CCAs are timer-driven"
      | Some t0 ->
          c.Cca.on_timer t0;
          (match c.Cca.next_timer () with
          | Some t1 -> Alcotest.(check bool) "timer advances" true (t1 > t0)
          | None -> Alcotest.fail "timer vanished"))
    [ Pcc_vivace.make (); Pcc_allegro.make () ]

(* ------------------------------------------------------------------ *)
(* LEDBAT                                                              *)
(* ------------------------------------------------------------------ *)

let test_ledbat_fluid_equilibrium () =
  let p = Ledbat.default_params in
  let c = Ledbat.make ~params:p () in
  let rate = Sim.Units.mbps 12. in
  let rtt = fluid_loop c ~c:rate ~rm:0.05 ~rtts:600 in
  let expect = Ledbat.equilibrium_rtt p ~rate ~rm:0.05 in
  Alcotest.(check bool)
    (Printf.sprintf "rtt %.4f ~ %.4f" rtt expect)
    true
    (Float.abs (rtt -. expect) < 0.004)

let test_ledbat_slow_start_exits_at_target () =
  let p = Ledbat.default_params in
  let c = Ledbat.make ~params:p () in
  c.Cca.on_ack (ack ~rtt:0.05 0.01);
  Alcotest.(check (float 1e-9)) "in slow start" 1.
    (List.assoc "slow_start" (c.Cca.inspect ()));
  (* Queueing at the target ends slow start. *)
  c.Cca.on_ack (ack ~rtt:(0.05 +. p.Ledbat.target) 0.02);
  Alcotest.(check (float 1e-9)) "left slow start" 0.
    (List.assoc "slow_start" (c.Cca.inspect ()))

let test_ledbat_decreases_above_target () =
  let p = Ledbat.default_params in
  let c =
    Ledbat.make ~params:{ p with init_cwnd_packets = 100. } ()
  in
  c.Cca.on_ack (ack ~rtt:0.05 0.01);
  (* Far above target: off_target < 0, the window must shrink. *)
  c.Cca.on_ack (ack ~rtt:(0.05 +. (3. *. p.Ledbat.target)) 0.02);
  let w1 = c.Cca.cwnd () in
  c.Cca.on_ack (ack ~rtt:(0.05 +. (3. *. p.Ledbat.target)) 0.03);
  Alcotest.(check bool) "decreasing" true (c.Cca.cwnd () < w1)

let test_ledbat_loss_halves () =
  let c = Ledbat.make ~params:{ Ledbat.default_params with init_cwnd_packets = 40. } () in
  c.Cca.on_ack (ack ~rtt:0.05 0.01);
  let w = c.Cca.cwnd () in
  c.Cca.on_loss (loss 1.);
  check_float_eps 1. "halved" (w /. 2.) (c.Cca.cwnd ())

(* ------------------------------------------------------------------ *)
(* ECN-Reno                                                            *)
(* ------------------------------------------------------------------ *)

let test_ecn_reno_halves_on_ce () =
  let c = Ecn_reno.make () in
  for i = 1 to 20 do
    c.Cca.on_ack (ack (float_of_int i *. 0.01))
  done;
  let w = c.Cca.cwnd () in
  c.Cca.on_ack (ack ~ecn_ce:true 0.5);
  check_float_eps 1. "halved on CE" (w /. 2.) (c.Cca.cwnd ())

let test_ecn_reno_ce_coalesces () =
  let c = Ecn_reno.make () in
  for i = 1 to 20 do
    c.Cca.on_ack (ack ~rtt:0.05 (float_of_int i *. 0.01))
  done;
  let w = c.Cca.cwnd () in
  c.Cca.on_ack (ack ~ecn_ce:true ~rtt:0.05 0.5);
  c.Cca.on_ack (ack ~ecn_ce:true ~rtt:0.05 0.51);
  check_float_eps 1. "one halving per RTT" (w /. 2.) (c.Cca.cwnd ())

let test_ecn_reno_ignores_small_loss () =
  let c = Ecn_reno.make () in
  (* Plenty of sends so the loss fraction is well measured. *)
  for i = 1 to 300 do
    c.Cca.on_send { Cca.now = float_of_int i *. 0.001; sent_bytes = 1500;
                    inflight = 1500 };
    c.Cca.on_ack (ack ~rtt:0.05 (float_of_int i *. 0.001))
  done;
  let w = c.Cca.cwnd () in
  (* 1 loss out of 300 sent ~ 0.3% < 5%: must be ignored. *)
  c.Cca.on_loss (loss 0.5);
  Alcotest.(check bool) "no reduction" true (c.Cca.cwnd () >= w)

let test_ecn_reno_reacts_to_heavy_loss () =
  let c = Ecn_reno.make () in
  for i = 1 to 200 do
    c.Cca.on_send { Cca.now = float_of_int i *. 0.0001; sent_bytes = 1500;
                    inflight = 1500 };
    c.Cca.on_ack (ack ~rtt:0.05 (float_of_int i *. 0.0001))
  done;
  let w = c.Cca.cwnd () in
  (* 30 losses out of 200 = 15% > 5%: must halve. *)
  let t = ref 0.021 in
  for _ = 1 to 30 do
    t := !t +. 0.00001;
    c.Cca.on_loss (loss !t)
  done;
  Alcotest.(check bool) "reduced" true (c.Cca.cwnd () < w)

let test_ecn_reno_tolerance_param () =
  (* With tolerance 0 every dup-ack loss reacts, like plain Reno. *)
  let c =
    Ecn_reno.make ~params:{ Ecn_reno.default_params with loss_tolerance = 0. } ()
  in
  for i = 1 to 150 do
    c.Cca.on_send { Cca.now = float_of_int i *. 0.001; sent_bytes = 1500;
                    inflight = 1500 };
    c.Cca.on_ack (ack ~rtt:0.05 (float_of_int i *. 0.001))
  done;
  let w = c.Cca.cwnd () in
  (* Within the same accounting window as the sends. *)
  c.Cca.on_loss (loss 0.155);
  Alcotest.(check bool) "reacts to a single loss" true (c.Cca.cwnd () < w)

let test_ecn_reno_timeout () =
  let c = Ecn_reno.make () in
  for i = 1 to 20 do
    c.Cca.on_ack (ack (float_of_int i *. 0.01))
  done;
  c.Cca.on_loss (loss ~kind:`Timeout 1.);
  check_float "one mss" 1500. (c.Cca.cwnd ())

(* ------------------------------------------------------------------ *)
(* Algorithm 1                                                         *)
(* ------------------------------------------------------------------ *)

let test_alg1_curve_endpoints () =
  let p = Alg1.default_params in
  (* At d = rm + rmax the curve hits mu_minus. *)
  check_float_eps 1e-6 "mu(rm+rmax) = mu-" p.Alg1.mu_minus
    (Alg1.target_rate p ~d:(p.Alg1.rm +. p.Alg1.rmax));
  (* Delays D apart give rates s apart. *)
  let d = p.Alg1.rm +. 0.05 in
  let r1 = Alg1.target_rate p ~d in
  let r2 = Alg1.target_rate p ~d:(d +. p.Alg1.d_jitter) in
  check_float_eps 1e-6 "s-spacing" p.Alg1.s (r1 /. r2)

let test_alg1_rate_range () =
  let p = Alg1.default_params in
  (* D = 10 ms, s = 2, Rmax = 100 ms: the paper's ~2^9 example. *)
  check_float_eps 1e-6 "range = s^((rmax-D)/D)" (2. ** 9.) (Alg1.rate_range p);
  check_float_eps 1e-3 "mu+ = mu- * range" (p.Alg1.mu_minus *. Alg1.rate_range p)
    (Alg1.mu_plus p)

let test_alg1_aimd () =
  let p = { Alg1.default_params with init_rate = Alg1.default_params.mu_minus } in
  let c = Alg1.make ~params:p () in
  (* Low delay: below threshold, rate climbs additively. *)
  c.Cca.on_ack (ack ~rtt:p.Alg1.rm 0.01);
  let r0 = List.assoc "rate" (c.Cca.inspect ()) in
  c.Cca.on_timer 0.05;
  let r1 = List.assoc "rate" (c.Cca.inspect ()) in
  check_float "additive step" (r0 +. p.Alg1.a) r1;
  (* Huge delay: above threshold, rate multiplies down. *)
  c.Cca.on_ack (ack ~rtt:(p.Alg1.rm +. p.Alg1.rmax +. 0.05) 0.1);
  c.Cca.on_timer 0.1;
  let r2 = List.assoc "rate" (c.Cca.inspect ()) in
  check_float_eps 1e-6 "multiplicative decrease" (Float.max (p.Alg1.b *. r1) p.Alg1.mu_minus) r2

let test_alg1_floor () =
  let p = { Alg1.default_params with init_rate = Alg1.default_params.mu_minus } in
  let c = Alg1.make ~params:p () in
  c.Cca.on_ack (ack ~rtt:10. 0.01);
  for i = 1 to 50 do
    c.Cca.on_timer (float_of_int i *. p.Alg1.rm)
  done;
  let r = List.assoc "rate" (c.Cca.inspect ()) in
  check_float "never below mu-" p.Alg1.mu_minus r

let prop_alg1_curve_monotone =
  QCheck.Test.make ~name:"alg1 rate-delay curve decreases in delay" ~count:200
    QCheck.(pair (float_range 0.0 0.1) (float_range 0.0 0.1))
    (fun (a, b) ->
      let p = Alg1.default_params in
      let d1 = p.Alg1.rm +. Float.min a b and d2 = p.Alg1.rm +. Float.max a b in
      Alg1.target_rate p ~d:d1 >= Alg1.target_rate p ~d:d2 -. 1e-9)

(* ------------------------------------------------------------------ *)
(* Fuzz: control outputs stay sane under arbitrary event sequences      *)
(* ------------------------------------------------------------------ *)

type fuzz_event = Fz_ack of float * int | Fz_loss of bool | Fz_timer

let fuzz_event_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map2 (fun rtt bytes -> Fz_ack (rtt, bytes))
             (float_range 0.001 0.5) (int_range 1 9000));
        (2, map (fun timeout -> Fz_loss timeout) bool);
        (2, return Fz_timer);
      ])

let fuzz_arb =
  QCheck.make
    ~print:(fun evs -> Printf.sprintf "<%d events>" (List.length evs))
    QCheck.Gen.(list_size (int_range 1 300) fuzz_event_gen)

let all_ccas () =
  [
    Vegas.make ();
    Fast_tcp.make ();
    Copa.make ();
    Ledbat.make ();
    Bbr.make ();
    Pcc_vivace.make ();
    Pcc_allegro.make ();
    Reno.make ();
    Cubic.make ();
    Ecn_reno.make ();
    Alg1.make ();
    Const_cwnd.make ();
  ]

let sane c =
  let w = c.Cca.cwnd () in
  (w > 0. && not (Float.is_nan w))
  && (match c.Cca.pacing_rate () with
     | Some r -> r >= 0. && not (Float.is_nan r)
     | None -> true)
  && (match c.Cca.next_timer () with
     | Some t -> not (Float.is_nan t)
     | None -> true)

let prop_cca_fuzz =
  QCheck.Test.make ~name:"every CCA stays sane under arbitrary event streams"
    ~count:60 fuzz_arb
    (fun events ->
      List.for_all
        (fun c ->
          let now = ref 0.1 in
          let inflight = ref 30000 in
          List.iter
            (fun ev ->
              now := !now +. 0.001;
              (match ev with
              | Fz_ack (rtt, bytes) ->
                  c.Cca.on_ack (ack ~rtt ~bytes ~inflight:!inflight !now)
              | Fz_loss timeout ->
                  c.Cca.on_loss
                    (loss ~kind:(if timeout then `Timeout else `Dupack)
                       ~packets:[ (!now -. 0.05, 1500) ]
                       !now)
              | Fz_timer -> (
                  match c.Cca.next_timer () with
                  | Some t when t <= !now -> c.Cca.on_timer !now
                  | Some _ | None -> ()));
              if not (sane c) then
                QCheck.Test.fail_reportf "%s went insane: cwnd=%f" c.Cca.name
                  (c.Cca.cwnd ()))
            events;
          sane c)
        (all_ccas ()))

(* ------------------------------------------------------------------ *)
(* Columnar CCA state: arena recycling and trace equivalence            *)
(* ------------------------------------------------------------------ *)

let test_columns_recycling () =
  let c = Columns.create ~capacity:2 ~nfields:3 () in
  let r0 = Columns.alloc c in
  let _r1 = Columns.alloc c in
  Alcotest.(check int) "rows" 2 (Columns.rows c);
  let d = Columns.data c in
  d.((r0 * 3) + 0) <- 5.;
  d.((r0 * 3) + 2) <- 7.;
  Columns.free c r0;
  Alcotest.(check int) "live" 1 (Columns.live c);
  let r2 = Columns.alloc c in
  Alcotest.(check int) "freed row is recycled" r0 r2;
  let d = Columns.data c in
  check_float "recycled row zeroed" 0. d.((r2 * 3) + 0);
  check_float "recycled row zeroed (last field)" 0. d.((r2 * 3) + 2);
  Alcotest.(check int) "no new rows" 2 (Columns.rows c);
  (* Churn: with a free row available, repeated alloc/free must neither
     add rows nor grow the arena. *)
  Columns.free c r2;
  let cap = Columns.capacity c in
  for _ = 1 to 1_000 do
    Columns.free c (Columns.alloc c)
  done;
  Alcotest.(check int) "capacity stable under churn" cap (Columns.capacity c);
  Alcotest.(check int) "rows stable under churn" 2 (Columns.rows c)

(* [free] refuses a row that is not live.  Unchecked, releasing an
   instance twice pushed its row onto the free stack twice, and the next
   two [make_in] calls shared one row: an ACK to one instance moved the
   other's cwnd from 6000 to 7500 bytes. *)
let test_columns_free_rejects_dead_row () =
  let rejects what msg f =
    match f () with
    | () -> Alcotest.failf "%s accepted" what
    | exception Invalid_argument m -> Alcotest.(check string) what msg m
  in
  let c = Columns.create ~capacity:1 ~nfields:2 () in
  let r = Columns.alloc c in
  Columns.free c r;
  rejects "double free" "Columns.free: row 0 is not live" (fun () ->
      Columns.free c r);
  rejects "never allocated" "Columns.free: row 1 out of range" (fun () ->
      Columns.free c 1);
  rejects "negative" "Columns.free: row -1 out of range" (fun () ->
      Columns.free c (-1));
  Alcotest.(check int) "live after rejected frees" 0 (Columns.live c);
  let cols = Columns.create ~capacity:1 ~nfields:Reno.nfields () in
  let a = Reno.make_in cols in
  a.Cca.release ();
  rejects "instance released twice" "Columns.free: row 0 is not live"
    a.Cca.release;
  let b = (Reno.make_in cols).Cca.cca and c = (Reno.make_in cols).Cca.cca in
  Alcotest.(check int) "two live rows" 2 (Columns.live cols);
  b.Cca.on_ack (ack 0.2);
  check_float "other instance untouched" 6000. (c.Cca.cwnd ());
  check_float "acked instance grew" 7500. (b.Cca.cwnd ())

let bits = Int64.bits_of_float

(* Apply one fuzz event to a CCA at time [now]. *)
let apply_fuzz c ~now ev =
  match ev with
  | Fz_ack (rtt, bytes) -> c.Cca.on_ack (ack ~rtt ~bytes now)
  | Fz_loss timeout ->
      c.Cca.on_loss
        (loss
           ~kind:(if timeout then `Timeout else `Dupack)
           ~packets:[ (now -. 0.05, 1500) ]
           now)
  | Fz_timer -> (
      match c.Cca.next_timer () with
      | Some t when t <= now -> c.Cca.on_timer now
      | Some _ | None -> ())

(* Events 10 ms apart: a trace then spans several of its 1-500 ms RTTs,
   so the once-per-RTT updates (Copa's velocity, Vegas's window) run and
   state that survives a faulty reset shows. *)
let fuzz_step = 0.01

let drive_one c events =
  let now = ref 0.1 in
  List.iter
    (fun ev ->
      now := !now +. fuzz_step;
      apply_fuzz c ~now:!now ev)
    events

(* Fail unless [c] matches the boxed reference [oracle] bit for bit:
   cwnd, pacing rate and every inspected internal. *)
let same_as_oracle ~name oracle c =
  let wa = oracle.Cca.cwnd () and wb = c.Cca.cwnd () in
  if bits wa <> bits wb then
    QCheck.Test.fail_reportf "%s cwnd diverged: %h <> %h" name wa wb;
  (match (oracle.Cca.pacing_rate (), c.Cca.pacing_rate ()) with
  | None, None -> ()
  | Some ra, Some rb when bits ra = bits rb -> ()
  | _ -> QCheck.Test.fail_reportf "%s pacing rate diverged" name);
  List.iter2
    (fun (k, va) (k', vb) ->
      if k <> k' || bits va <> bits vb then
        QCheck.Test.fail_reportf "%s %s diverged: %h <> %h" name k va vb)
    (oracle.Cca.inspect ()) (c.Cca.inspect ())

(* Feed the oracle and every instance of [cs] the same stream; each must
   match the oracle after every event. *)
let drive_against ~name oracle cs events =
  let now = ref 0.1 in
  List.iter
    (fun ev ->
      now := !now +. fuzz_step;
      apply_fuzz oracle ~now:!now ev;
      List.iter
        (fun c ->
          apply_fuzz c ~now:!now ev;
          same_as_oracle ~name oracle c)
        cs)
    events;
  true

(* Reno, Copa and Vegas: the library constructors, the boxed oracle of
   [Cca_oracle], and the arena width. *)
type kind = {
  kname : string;
  make : unit -> Cca.t;
  make_in : Columns.t -> Cca.instance;
  oracle : unit -> Cca.t;
  width : int;
}

let reno_kind =
  { kname = "reno"; make = (fun () -> Reno.make ());
    make_in = (fun c -> Reno.make_in c); oracle = (fun () -> Cca_oracle.reno ());
    width = Reno.nfields }

let copa_kind =
  { kname = "copa"; make = (fun () -> Copa.make ());
    make_in = (fun c -> Copa.make_in c); oracle = (fun () -> Cca_oracle.copa ());
    width = Copa.nfields }

let vegas_kind =
  { kname = "vegas"; make = (fun () -> Vegas.make ());
    make_in = (fun c -> Vegas.make_in c);
    oracle = (fun () -> Cca_oracle.vegas ()); width = Vegas.nfields }

let kinds = [ reno_kind; copa_kind; vegas_kind ]

(* The library's one body, reached through [make] and through [make_in]
   on an arena it shares with another instance (so its row is not row
   0), must follow the boxed oracle bit for bit. *)
let prop_trace_equiv k =
  QCheck.Test.make
    ~name:(Printf.sprintf "columnar %s is trace-equivalent to boxed"
             (String.capitalize_ascii k.kname))
    ~count:80 fuzz_arb
    (fun events ->
      let cols = Columns.create ~capacity:1 ~nfields:k.width () in
      let first = k.make_in cols in
      let second = k.make_in cols in
      drive_against ~name:k.kname (k.oracle ())
        [ k.make (); first.Cca.cca; second.Cca.cca ]
        events)

let prop_reno_columnar_trace_equiv = prop_trace_equiv reno_kind
let prop_copa_columnar_trace_equiv = prop_trace_equiv copa_kind
let prop_vegas_columnar_trace_equiv = prop_trace_equiv vegas_kind

(* Row isolation: up to six instances of one CCA share an arena created
   with one row of capacity, so it grows mid-trace.  Interleaved,
   independent fuzz events drive them; instances are released, reset
   and allocated between events.  After every step each live instance
   must match its own oracle, the arena must count exactly the live
   instances, and poisoning the arena's current backing array must show
   through every live instance's cwnd, so none of them kept an array
   that a growth replaced.  Single-row tests cannot see a wrong base
   offset or a stale backing array. *)
type iso_op =
  | Iso_drive of int * fuzz_event
  | Iso_spawn
  | Iso_release of int
  | Iso_reset of int

let iso_slots = 6

let iso_arb =
  let open QCheck.Gen in
  let slot = int_bound (iso_slots - 1) in
  QCheck.make
    ~print:(fun ops -> Printf.sprintf "<%d ops>" (List.length ops))
    (list_size (int_range 1 200)
       (frequency
          [
            (12, map2 (fun i ev -> Iso_drive (i, ev)) slot fuzz_event_gen);
            (3, return Iso_spawn);
            (1, map (fun i -> Iso_release i) slot);
            (1, map (fun i -> Iso_reset i) slot);
          ]))

let check_isolated k ops =
  let cols = Columns.create ~capacity:1 ~nfields:k.width () in
  let slots = Array.make iso_slots None in
  let spawn i = slots.(i) <- Some (k.make_in cols, k.oracle ()) in
  spawn 0;
  let now = ref 0.1 in
  List.iter
    (fun op ->
      now := !now +. fuzz_step;
      (match op with
      | Iso_drive (i, ev) -> (
          match slots.(i) with
          | Some (inst, oracle) ->
              apply_fuzz inst.Cca.cca ~now:!now ev;
              apply_fuzz oracle ~now:!now ev
          | None -> ())
      | Iso_spawn -> (
          let rec first_free i =
            if i = iso_slots then None
            else if slots.(i) = None then Some i
            else first_free (i + 1)
          in
          match first_free 0 with Some i -> spawn i | None -> ())
      | Iso_release i -> (
          match slots.(i) with
          | Some (inst, _) ->
              inst.Cca.release ();
              slots.(i) <- None
          | None -> ())
      | Iso_reset i -> (
          match slots.(i) with
          | Some (inst, _) ->
              Option.iter (fun r -> r ()) inst.Cca.reset;
              slots.(i) <- Some (inst, k.oracle ())
          | None -> ()));
      let live = ref 0 in
      Array.iteri
        (fun i s ->
          Option.iter
            (fun (inst, oracle) ->
              incr live;
              same_as_oracle
                ~name:(Printf.sprintf "%s slot %d" k.kname i)
                oracle inst.Cca.cca)
            s)
        slots;
      if Columns.live cols <> !live then
        QCheck.Test.fail_reportf "%s: arena counts %d live rows, %d instances"
          k.kname (Columns.live cols) !live;
      let d = Columns.data cols in
      let saved = Array.copy d in
      Array.fill d 0 (Array.length d) nan;
      Array.iteri
        (fun i s ->
          Option.iter
            (fun (inst, _) ->
              if not (Float.is_nan (inst.Cca.cca.Cca.cwnd ())) then
                QCheck.Test.fail_reportf
                  "%s slot %d does not read the arena's backing array"
                  k.kname i)
            s)
        slots;
      Array.blit saved 0 d 0 (Array.length d))
    ops;
  true

let prop_columnar_rows_isolated =
  QCheck.Test.make ~name:"instances sharing a growing arena stay isolated"
    ~count:60 iso_arb
    (fun ops -> List.for_all (fun k -> check_isolated k ops) kinds)

(* Minor words per [on_ack], native code only (bytecode boxes every
   float).  The ACK records are built first: writing a float field of
   [Cca.ack_info] allocates.  The RTTs cycle over 20-100 ms while time
   advances 2 ms per ACK, so the trace crosses slow start, congestion
   avoidance and many once-per-RTT updates.  Reno and Vegas allocate
   nothing.  Copa reads 8 words: its standing-RTT filter's new window and
   three filter reads are boxed floats passed to or from [Window]. *)
let test_on_ack_minor_words_budget () =
  match Sys.backend_type with
  | Sys.Native ->
      let n = 20_000 in
      let acks =
        Array.init n (fun i ->
            ack
              ~rtt:(0.02 +. (0.01 *. float_of_int (i mod 9)))
              (0.1 +. (0.002 *. float_of_int i)))
      in
      let words f =
        let w0 = Gc.minor_words () in
        f ();
        Gc.minor_words () -. w0
      in
      let per_ack (c : Cca.t) =
        (* A first loss puts Reno in congestion avoidance. *)
        c.on_loss (loss 0.1);
        let overhead = words (fun () -> ()) in
        (words (fun () ->
             for i = 0 to n - 1 do
               c.on_ack acks.(i)
             done)
        -. overhead)
        /. float_of_int n
      in
      List.iter
        (fun (k, budget) ->
          List.iter
            (fun (ctor, c) ->
              let w = per_ack c in
              Alcotest.(check bool)
                (Printf.sprintf "%s %s: %.2f minor words/ack <= %g" k.kname
                   ctor w budget)
                true (w <= budget))
            [
              ("make", k.make ());
              ("make_in", (k.make_in (Columns.create ~nfields:k.width ())).cca);
            ])
        [ (reno_kind, 0.); (copa_kind, 10.); (vegas_kind, 0.) ]
  | Sys.Bytecode | Sys.Other _ -> ()

(* Both constructors of Reno, Copa and Vegas reject the same params, and
   the error names the field.  Unchecked, a NaN init_cwnd_packets left a
   Reno or Copa flow at 130 500 bytes against 5 628 000 for a default
   Copa, a 43:1 "starvation" that was only a bad number; Copa with a
   NaN, zero or negative delta and Vegas with alpha > beta ran too. *)
let test_params_rejected () =
  let reno p =
    ( "Reno",
      (fun () -> ignore (Reno.make ~params:p ())),
      fun () ->
        ignore (Reno.make_in ~params:p (Columns.create ~nfields:Reno.nfields ()))
    )
  in
  let copa p =
    ( "Copa",
      (fun () -> ignore (Copa.make ~params:p ())),
      fun () ->
        ignore (Copa.make_in ~params:p (Columns.create ~nfields:Copa.nfields ()))
    )
  in
  let vegas p =
    ( "Vegas",
      (fun () -> ignore (Vegas.make ~params:p ())),
      fun () ->
        ignore
          (Vegas.make_in ~params:p (Columns.create ~nfields:Vegas.nfields ())) )
  in
  let rejects (name, field, (m, make, make_in)) =
    List.iter
      (fun (ctor, f) ->
        match f () with
        | () -> Alcotest.failf "%s: %s accepted" name ctor
        | exception Invalid_argument msg ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: %S names %s" name msg field)
              true
              (String.starts_with ~prefix:(ctor ^ ": " ^ field) msg))
      [ (m ^ ".make", make); (m ^ ".make_in", make_in) ]
  in
  let r = Reno.default_params
  and c = Copa.default_params
  and v = Vegas.default_params in
  List.iter rejects
    [
      ("reno init_cwnd nan", "init_cwnd_packets",
       reno { r with init_cwnd_packets = nan });
      ("reno init_cwnd 0", "init_cwnd_packets",
       reno { r with init_cwnd_packets = 0. });
      ("reno init_cwnd inf", "init_cwnd_packets",
       reno { r with init_cwnd_packets = infinity });
      ("reno ssthresh nan", "initial_ssthresh",
       reno { r with initial_ssthresh = nan });
      ("reno ssthresh 0", "initial_ssthresh",
       reno { r with initial_ssthresh = 0. });
      ("reno mss 0", "mss", reno { r with mss = 0 });
      ("copa delta nan", "delta", copa { c with delta = nan });
      ("copa delta 0", "delta", copa { c with delta = 0. });
      ("copa delta -0.5", "delta", copa { c with delta = -0.5 });
      ("copa delta inf", "delta", copa { c with delta = infinity });
      ("copa init_cwnd nan", "init_cwnd_packets",
       copa { c with init_cwnd_packets = nan });
      ("copa init_cwnd 0", "init_cwnd_packets",
       copa { c with init_cwnd_packets = 0. });
      ("copa mss 0", "mss", copa { c with mss = 0 });
      ("vegas alpha nan", "alpha", vegas { v with alpha = nan });
      ("vegas alpha -1", "alpha", vegas { v with alpha = -1. });
      ("vegas beta nan", "beta", vegas { v with beta = nan });
      ("vegas alpha 6 > beta 2", "beta", vegas { v with alpha = 6.; beta = 2. });
      ("vegas gamma nan", "gamma", vegas { v with gamma = nan });
      ("vegas gamma -1", "gamma", vegas { v with gamma = -1. });
      ("vegas init_cwnd nan", "init_cwnd_packets",
       vegas { v with init_cwnd_packets = nan });
      ("vegas init_cwnd 0", "init_cwnd_packets",
       vegas { v with init_cwnd_packets = 0. });
      ("vegas mss 0", "mss", vegas { v with mss = 0 });
    ];
  (* The boundaries stay legal in both constructors: Reno slow-starting
     until its first loss, Copa with no min-RTT memory, Vegas holding a
     single queue target. *)
  List.iter
    (fun (_, make, make_in) ->
      make ();
      make_in ())
    [
      reno { r with initial_ssthresh = infinity };
      copa { c with min_rtt_window = 0. };
      vegas { v with alpha = 3.; beta = 3.; gamma = 0. };
    ]

(* The other eight constructors reject bad params with an error naming
   the field, NaN included; their defaults and boundary values stay
   legal. *)
let test_params_rejected_others () =
  let mk name make = (name, fun () -> ignore (make ())) in
  let bbr p = mk "Bbr.make" (Bbr.make ~params:p)
  and cubic p = mk "Cubic.make" (Cubic.make ~params:p)
  and fast p = mk "Fast_tcp.make" (Fast_tcp.make ~params:p)
  and ledbat p = mk "Ledbat.make" (Ledbat.make ~params:p)
  and vivace p = mk "Pcc_vivace.make" (Pcc_vivace.make ~params:p)
  and allegro p = mk "Pcc_allegro.make" (Pcc_allegro.make ~params:p)
  and ecn p = mk "Ecn_reno.make" (Ecn_reno.make ~params:p)
  and alg1 p = mk "Alg1.make" (Alg1.make ~params:p) in
  let b = Bbr.default_params
  and c = Cubic.default_params
  and f = Fast_tcp.default_params
  and l = Ledbat.default_params
  and v = Pcc_vivace.default_params
  and a = Pcc_allegro.default_params
  and e = Ecn_reno.default_params
  and g = Alg1.default_params in
  List.iter
    (fun (field, (ctor, make)) ->
      match make () with
      | () -> Alcotest.failf "%s accepted a bad %s" ctor field
      | exception Invalid_argument msg ->
          Alcotest.(check bool)
            (Printf.sprintf "%S names %s" msg field)
            true
            (String.starts_with ~prefix:(ctor ^ ": " ^ field) msg))
    [
      ("quanta_packets", bbr { b with quanta_packets = nan });
      ("quanta_packets", bbr { b with quanta_packets = -1. });
      ("cwnd_gain", bbr { b with cwnd_gain = nan });
      ("cwnd_gain", bbr { b with cwnd_gain = 0. });
      ("startup_gain", bbr { b with startup_gain = infinity });
      ("bw_window_rounds", bbr { b with bw_window_rounds = nan });
      ("bw_window_rounds", bbr { b with bw_window_rounds = -1. });
      ("min_rtt_window", bbr { b with min_rtt_window = nan });
      ("probe_rtt_duration", bbr { b with probe_rtt_duration = -0.1 });
      ("probe_rtt_cwnd_packets", bbr { b with probe_rtt_cwnd_packets = 0. });
      ("init_cwnd_packets", bbr { b with init_cwnd_packets = nan });
      ("mss", bbr { b with mss = 0 });
      ("c", cubic { c with c = nan });
      ("c", cubic { c with c = 0. });
      ("beta", cubic { c with beta = nan });
      ("beta", cubic { c with beta = 1. });
      ("beta", cubic { c with beta = 0. });
      ("init_cwnd_packets", cubic { c with init_cwnd_packets = infinity });
      ("mss", cubic { c with mss = -1 });
      ("alpha_packets", fast { f with alpha_packets = nan });
      ("alpha_packets", fast { f with alpha_packets = -1. });
      ("gamma", fast { f with gamma = nan });
      ("gamma", fast { f with gamma = 0. });
      ("gamma", fast { f with gamma = 1.5 });
      ("init_cwnd_packets", fast { f with init_cwnd_packets = 0. });
      ("mss", fast { f with mss = 0 });
      ("target", ledbat { l with target = nan });
      ("target", ledbat { l with target = 0. });
      ("gain", ledbat { l with gain = nan });
      ("gain", ledbat { l with gain = -1. });
      ("base_history", ledbat { l with base_history = nan });
      ("base_history", ledbat { l with base_history = -1. });
      ("init_cwnd_packets", ledbat { l with init_cwnd_packets = nan });
      ("mss", ledbat { l with mss = 0 });
      ("eps", vivace { v with eps = nan });
      ("eps", vivace { v with eps = 0. });
      ("eps", vivace { v with eps = 1. });
      ("throughput_exponent", vivace { v with throughput_exponent = nan });
      ("latency_coeff", vivace { v with latency_coeff = -1. });
      ("loss_coeff", vivace { v with loss_coeff = nan });
      ("theta0", vivace { v with theta0 = 0. });
      ("omega", vivace { v with omega = nan });
      ("init_rate", vivace { v with init_rate = nan });
      ("init_rate", vivace { v with init_rate = 0. });
      ("min_rate", vivace { v with min_rate = infinity });
      ("mss", vivace { v with mss = 0 });
      ("alpha", allegro { a with alpha = nan });
      ("alpha", allegro { a with alpha = 0. });
      ("loss_threshold", allegro { a with loss_threshold = nan });
      ("loss_threshold", allegro { a with loss_threshold = 1.5 });
      ("eps0", allegro { a with eps0 = nan });
      ("eps0", allegro { a with eps0 = 0. });
      ("eps_max", allegro { a with eps_max = nan });
      ("eps_max", allegro { a with eps0 = 0.05; eps_max = 0.01 });
      ("init_rate", allegro { a with init_rate = -1. });
      ("min_rate", allegro { a with min_rate = nan });
      ("mss", allegro { a with mss = 0 });
      ("init_cwnd_packets", ecn { e with init_cwnd_packets = nan });
      ("init_cwnd_packets", ecn { e with init_cwnd_packets = 0. });
      ("loss_tolerance", ecn { e with loss_tolerance = nan });
      ("loss_tolerance", ecn { e with loss_tolerance = -0.1 });
      ("loss_tolerance", ecn { e with loss_tolerance = 1.1 });
      ("mss", ecn { e with mss = 0 });
      ("rm", alg1 { g with rm = nan });
      ("rm", alg1 { g with rm = 0. });
      ("rmax", alg1 { g with rmax = infinity });
      ("d_jitter", alg1 { g with d_jitter = nan });
      ("d_jitter", alg1 { g with d_jitter = 0. });
      ("s", alg1 { g with s = nan });
      ("s", alg1 { g with s = 1. });
      ("mu_minus", alg1 { g with mu_minus = -1. });
      ("a", alg1 { g with a = nan });
      ("b", alg1 { g with b = nan });
      ("b", alg1 { g with b = 1. });
      ("init_rate", alg1 { g with init_rate = 0. });
      ("mss", alg1 { g with mss = 0 });
    ];
  (* Defaults, then the boundaries that stay legal: BBR without quanta
     and with unbounded filter windows, FAST and LEDBAT at their edges,
     PCC with no latency or loss penalty and a fixed probe amplitude,
     ECN-Reno reacting to every loss or none. *)
  List.iter
    (fun (_, make) -> make ())
    [
      bbr b; cubic c; fast f; ledbat l; vivace v; allegro a; ecn e; alg1 g;
      bbr { b with quanta_packets = 0.; probe_rtt_duration = 0.;
                   bw_window_rounds = infinity; min_rtt_window = infinity };
      bbr { b with bw_window_rounds = 0.; min_rtt_window = 0. };
      fast { f with alpha_packets = 0.; gamma = 1. };
      ledbat { l with base_history = infinity };
      ledbat { l with base_history = 0. };
      vivace { v with latency_coeff = 0.; loss_coeff = 0. };
      allegro { a with loss_threshold = 0.; eps_max = a.eps0 };
      allegro { a with loss_threshold = 1. };
      ecn { e with loss_tolerance = 0. };
      ecn { e with loss_tolerance = 1. };
    ]

(* The churn contract: a reset instance must be indistinguishable from a
   fresh one even after an arbitrary first incarnation. *)
let prop_columnar_reset_equals_fresh =
  QCheck.Test.make ~name:"reset columnar instance equals a fresh instance"
    ~count:60
    QCheck.(pair fuzz_arb fuzz_arb)
    (fun (warmup, events) ->
      List.for_all
        (fun k ->
          let inst = k.make_in (Columns.create ~nfields:k.width ()) in
          drive_one inst.Cca.cca warmup;
          (match inst.Cca.reset with
          | Some r -> r ()
          | None ->
              QCheck.Test.fail_reportf "%s: columnar without reset" k.kname);
          drive_against ~name:k.kname (k.oracle ()) [ inst.Cca.cca ] events)
        kinds)

let () =
  Alcotest.run "cca"
    [
      ( "window",
        [
          Alcotest.test_case "min" `Quick test_extremum_min;
          Alcotest.test_case "max" `Quick test_extremum_max;
          Alcotest.test_case "eviction" `Quick test_extremum_eviction;
          Alcotest.test_case "empty" `Quick test_extremum_empty;
          Alcotest.test_case "window change" `Quick test_extremum_window_change;
          Alcotest.test_case "rejects bad input" `Quick
            test_extremum_rejects_bad_input;
          Alcotest.test_case "minor-words budget" `Quick
            test_extremum_minor_words_budget;
          Alcotest.test_case "ewma" `Quick test_ewma;
          qt prop_extremum_matches_naive;
          qt prop_extremum_matches_list_oracle;
        ] );
      ( "basics",
        [
          Alcotest.test_case "mini rng" `Quick test_mini_rng;
          Alcotest.test_case "bandwidth sample" `Quick test_bandwidth_sample;
          Alcotest.test_case "bandwidth degenerate" `Quick test_bandwidth_sample_degenerate;
          Alcotest.test_case "stub" `Quick test_stub;
          Alcotest.test_case "eight constructors reject bad params" `Quick
            test_params_rejected_others;
        ] );
      ( "mi_ledger",
        [
          Alcotest.test_case "attribution" `Quick test_ledger_attribution;
          Alcotest.test_case "loss attribution" `Quick test_ledger_loss_attribution;
          Alcotest.test_case "grace" `Quick test_ledger_grace;
          Alcotest.test_case "filler hidden" `Quick test_ledger_filler_hidden;
          Alcotest.test_case "rtt slope" `Quick test_ledger_slope;
          Alcotest.test_case "current rate" `Quick test_ledger_current_rate;
          Alcotest.test_case "out-of-range ack" `Quick test_ledger_out_of_range_ack_ignored;
          Alcotest.test_case "completion order" `Quick test_ledger_completion_order;
        ] );
      ( "vegas",
        [
          Alcotest.test_case "slow start" `Quick test_vegas_slow_start_doubles;
          Alcotest.test_case "gamma exit" `Quick test_vegas_gamma_exit;
          Alcotest.test_case "decrease on queue" `Quick test_vegas_decreases_when_queue_high;
          Alcotest.test_case "fluid equilibrium" `Quick test_vegas_fluid_equilibrium;
          Alcotest.test_case "timeout" `Quick test_vegas_timeout_resets;
          Alcotest.test_case "equilibrium formula" `Quick test_vegas_equilibrium_rtt_formula;
        ] );
      ( "fast",
        [
          Alcotest.test_case "fluid equilibrium" `Quick test_fast_fluid_equilibrium;
          Alcotest.test_case "alpha scales queue" `Quick test_fast_alpha_scales_queue;
          Alcotest.test_case "doubling cap" `Quick test_fast_cap_doubling;
          Alcotest.test_case "timeout" `Quick test_fast_timeout_resets;
        ] );
      ( "copa",
        [
          Alcotest.test_case "fluid equilibrium" `Quick test_copa_fluid_equilibrium;
          Alcotest.test_case "poisoned min rtt" `Quick test_copa_poisoned_min_rtt_caps_rate;
          Alcotest.test_case "velocity" `Quick test_copa_velocity_resets_on_direction_change;
          Alcotest.test_case "velocity doubles" `Quick test_copa_velocity_doubles_when_consistent;
          Alcotest.test_case "pacing" `Quick test_copa_pacing_set;
        ] );
      ( "bbr",
        [
          Alcotest.test_case "startup exits" `Quick test_bbr_startup_exits;
          Alcotest.test_case "cwnd formula" `Quick test_bbr_cwnd_formula;
          Alcotest.test_case "quanta ablation" `Quick test_bbr_quanta_ablation;
          Alcotest.test_case "no-quanta formula" `Quick test_bbr_no_quanta_cwnd_formula;
          Alcotest.test_case "max filter" `Quick test_bbr_max_filter;
          Alcotest.test_case "gain cycle" `Quick test_bbr_gain_cycle_visits_probe_and_drain;
          Alcotest.test_case "startup gain" `Quick test_bbr_startup_gain;
          Alcotest.test_case "equilibrium formulas" `Quick test_bbr_equilibrium_formulas;
          Alcotest.test_case "probe rtt refresh" `Quick test_bbr_probe_rtt_on_stale_min;
        ] );
      ( "reno",
        [
          Alcotest.test_case "slow start" `Quick test_reno_slow_start;
          Alcotest.test_case "halves on dupack" `Quick test_reno_halves_on_dupack;
          Alcotest.test_case "timeout" `Quick test_reno_timeout_to_one_mss;
          Alcotest.test_case "loss coalescing" `Quick test_reno_loss_coalescing;
          Alcotest.test_case "ca growth rate" `Quick test_reno_congestion_avoidance_rate;
        ] );
      ( "cubic",
        [
          Alcotest.test_case "beta reduction" `Quick test_cubic_reduction_factor;
          Alcotest.test_case "recovers to wmax" `Quick test_cubic_recovers_toward_wmax;
          Alcotest.test_case "timeout" `Quick test_cubic_timeout;
        ] );
      ( "pcc",
        [
          Alcotest.test_case "vivace utility rate" `Quick test_vivace_utility_monotone_in_rate;
          Alcotest.test_case "vivace utility latency" `Quick
            test_vivace_utility_penalizes_latency_slope;
          Alcotest.test_case "vivace utility loss" `Quick test_vivace_utility_penalizes_loss;
          Alcotest.test_case "allegro utility cliff" `Quick test_allegro_utility_cliff;
          Alcotest.test_case "timers advance" `Quick test_pcc_timers_advance;
        ] );
      ( "ledbat",
        [
          Alcotest.test_case "fluid equilibrium" `Quick test_ledbat_fluid_equilibrium;
          Alcotest.test_case "slow start exit" `Quick test_ledbat_slow_start_exits_at_target;
          Alcotest.test_case "decrease above target" `Quick test_ledbat_decreases_above_target;
          Alcotest.test_case "loss halves" `Quick test_ledbat_loss_halves;
        ] );
      ( "ecn_reno",
        [
          Alcotest.test_case "halves on ce" `Quick test_ecn_reno_halves_on_ce;
          Alcotest.test_case "ce coalesces" `Quick test_ecn_reno_ce_coalesces;
          Alcotest.test_case "ignores small loss" `Quick test_ecn_reno_ignores_small_loss;
          Alcotest.test_case "reacts to heavy loss" `Quick test_ecn_reno_reacts_to_heavy_loss;
          Alcotest.test_case "tolerance param" `Quick test_ecn_reno_tolerance_param;
          Alcotest.test_case "timeout" `Quick test_ecn_reno_timeout;
        ] );
      ( "alg1",
        [
          Alcotest.test_case "curve endpoints" `Quick test_alg1_curve_endpoints;
          Alcotest.test_case "rate range" `Quick test_alg1_rate_range;
          Alcotest.test_case "aimd" `Quick test_alg1_aimd;
          Alcotest.test_case "floor" `Quick test_alg1_floor;
          qt prop_alg1_curve_monotone;
        ] );
      ( "columnar",
        [
          Alcotest.test_case "arena recycling" `Quick test_columns_recycling;
          Alcotest.test_case "free rejects a dead row" `Quick
            test_columns_free_rejects_dead_row;
          qt prop_reno_columnar_trace_equiv;
          qt prop_copa_columnar_trace_equiv;
          qt prop_vegas_columnar_trace_equiv;
          qt prop_columnar_reset_equals_fresh;
          qt prop_columnar_rows_isolated;
          Alcotest.test_case "on_ack minor-words budget" `Quick
            test_on_ack_minor_words_budget;
          Alcotest.test_case "constructors reject bad params" `Quick
            test_params_rejected;
        ] );
      ("fuzz", [ qt prop_cca_fuzz ]);
    ]

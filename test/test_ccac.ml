(* Tests for the bounded adversarial search (the CCAC substitute). *)

let qt = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Generic search                                                      *)
(* ------------------------------------------------------------------ *)

(* Toy system: state is an int, choices add 0/1/2, score is the value.
   The optimum over h steps is 2h. *)
let toy =
  {
    Ccac.Search.initial = 0;
    choices = (fun _ -> [ 0; 1; 2 ]);
    step = (fun s c -> s + c);
    score = float_of_int;
  }

let test_dfs_exact () =
  let best = Ccac.Search.dfs_max toy ~horizon:5 in
  Alcotest.(check (float 1e-9)) "optimum" 10. best.Ccac.Search.score;
  Alcotest.(check (list int)) "trace" [ 2; 2; 2; 2; 2 ] best.Ccac.Search.trace

let test_beam_lower_bound () =
  let best = Ccac.Search.beam_max toy ~horizon:5 ~width:2 in
  Alcotest.(check (float 1e-9)) "beam finds optimum on monotone system" 10.
    best.Ccac.Search.score

let test_dfs_dead_end () =
  let sys =
    {
      Ccac.Search.initial = 0;
      choices = (fun s -> if s >= 2 then [] else [ 1 ]);
      step = (fun s c -> s + c);
      score = float_of_int;
    }
  in
  let best = Ccac.Search.dfs_max sys ~horizon:10 in
  Alcotest.(check (float 1e-9)) "stops at dead end" 2. best.Ccac.Search.score

let prop_beam_never_beats_dfs =
  QCheck.Test.make ~name:"beam score <= dfs score" ~count:30
    QCheck.(pair (int_range 1 6) (int_range 1 8))
    (fun (h, w) ->
      let dfs = Ccac.Search.dfs_max toy ~horizon:h in
      let beam = Ccac.Search.beam_max toy ~horizon:h ~width:w in
      beam.Ccac.Search.score <= dfs.Ccac.Search.score +. 1e-9)

let alg1_params =
  { Alg1.default_params with rm = 0.05; rmax = 0.1; d_jitter = 0.01; s = 2.;
    a = Sim.Units.mbps 0.5 }

(* The beam search as it was first written: expand the whole depth, sort
   it by descending score (a stable sort, so ties keep generation order)
   and keep the first [width].  [Search.beam_max] keeps only the
   survivors as it goes and must select exactly what this selects. *)
let beam_max_oracle (sys : (_, _) Ccac.Search.system) ~horizon ~width =
  let expand (state, rev_trace) =
    match sys.choices state with
    | [] -> [ (state, rev_trace) ]
    | cs -> List.map (fun c -> (sys.step state c, c :: rev_trace)) cs
  in
  let rec go depth frontier =
    if depth = horizon then frontier
    else begin
      let next = List.concat_map expand frontier in
      let sorted =
        List.sort (fun (a, _) (b, _) -> Float.compare (sys.score b) (sys.score a)) next
      in
      go (depth + 1) (List.filteri (fun i _ -> i < width) sorted)
    end
  in
  List.fold_left
    (fun (acc : (_, _) Ccac.Search.best) (state, rev_trace) ->
      let score = sys.score state in
      if score > acc.score then { Ccac.Search.state; score; trace = List.rev rev_trace }
      else acc)
    { Ccac.Search.state = sys.initial; score = neg_infinity; trace = [] }
    (go 0 [ (sys.initial, []) ])

let same_best eq (a : (_, _) Ccac.Search.best) (b : (_, _) Ccac.Search.best) =
  eq a.state b.state
  && Int64.equal (Int64.bits_of_float a.score) (Int64.bits_of_float b.score)
  && a.trace = b.trace

(* Random toy systems built to stress the selection order: scores drawn
   from seven values (so most comparisons tie), including NaN and both
   infinities; some states are dead ends; branching varies by state. *)
let toy_of_seed seed =
  let rng = Random.State.make [| seed |] in
  let values = [| nan; infinity; neg_infinity; 0.; 1.; 2.; -1. |] in
  let scores = Array.init 23 (fun _ -> values.(Random.State.int rng 7)) in
  let dead = Array.init 19 (fun _ -> Random.State.int rng 5 = 0) in
  let fanout = Array.init 17 (fun _ -> Random.State.int rng 4) in
  {
    Ccac.Search.initial = Random.State.int rng 1000;
    choices =
      (fun s -> if dead.(s mod 19) then [] else List.init (1 + fanout.(s mod 17)) Fun.id);
    step = (fun s c -> ((s * 31) + (c * 7) + 3) mod 10007);
    score = (fun s -> scores.(s mod 23));
  }

let prop_beam_matches_oracle =
  QCheck.Test.make ~name:"beam_max selects what sort-then-take selects" ~count:500
    QCheck.(triple int (int_range 1 8) (int_range 0 6))
    (fun (seed, width, horizon) ->
      let sys = toy_of_seed seed in
      same_best Int.equal
        (Ccac.Search.beam_max sys ~horizon ~width)
        (beam_max_oracle sys ~horizon ~width))

(* The Vegas law of experiment E12g: AIAD toward 3..5 queued packets. *)
let vegas = Ccac.Model.vegas_fluid ~alpha:3. ~beta:5. ()

(* The same agreement on the Appendix C model, whose float states are
   compared bit for bit through their marshalled bytes. *)
let test_beam_matches_oracle_on_model () =
  List.iter
    (fun (big_d, width) ->
      let sys =
        Ccac.Model.system ~law:vegas ~mss:1500. ~link_rate:(Sim.Units.mbps 8.)
          ~rm:0.05 ~big_d ~buffer:infinity ~warmup:4 ~score:Ccac.Model.unfairness
      in
      Alcotest.(check bool)
        (Printf.sprintf "D=%g width %d" big_d width)
        true
        (same_best
           (fun a b -> Marshal.to_string a [] = Marshal.to_string b [])
           (Ccac.Search.beam_max sys ~horizon:9 ~width)
           (beam_max_oracle sys ~horizon:9 ~width)))
    [ (0., 1); (0.05, 7); (0.05, 32) ]

(* Losers are dropped as they are generated, so one search promotes only
   its survivors.  The sort-then-take search promoted about 5.0M words
   here; the bounded one about 0.1M.  Bytecode boxes differently, so the
   budget is checked on native code only. *)
let test_beam_promotes_little () =
  if Sys.backend_type = Sys.Native then begin
    let run () =
      Ccac.Model.max_unfairness ~law:vegas ~mss:1500. ~link_rate:(Sim.Units.mbps 8.)
        ~rm:0.05 ~big_d:0.05 ~horizon:10 ()
    in
    Gc.full_major ();
    let before = (Gc.quick_stat ()).Gc.promoted_words in
    ignore (run ());
    let promoted = (Gc.quick_stat ()).Gc.promoted_words -. before in
    Alcotest.(check bool)
      (Printf.sprintf "%.0f promoted words <= 1e6" promoted)
      true (promoted <= 1e6)
  end

(* Every CCAC entry point rejects out-of-range arguments with an error
   that names the parameter; NaN fails every check. *)
type model_args = {
  mss : float;
  link_rate : float;
  rm : float;
  big_d : float;
  buffer : float;
  horizon : int;
  beam_width : int;
}

let test_entry_points_reject () =
  let m =
    { mss = 1500.; link_rate = Sim.Units.mbps 8.; rm = 0.05; big_d = 0.05;
      buffer = infinity; horizon = 2; beam_width = 4 }
  in
  let unfair a () =
    ignore
      (Ccac.Model.max_unfairness ~law:vegas ~mss:a.mss ~link_rate:a.link_rate
         ~rm:a.rm ~big_d:a.big_d ~buffer:a.buffer ~horizon:a.horizon
         ~beam_width:a.beam_width ())
  in
  let util a () =
    ignore
      (Ccac.Model.min_utilization ~law:vegas ~mss:a.mss ~link_rate:a.link_rate
         ~rm:a.rm ~big_d:a.big_d ~buffer:a.buffer ~horizon:a.horizon
         ~beam_width:a.beam_width ())
  in
  let aimd ?(bdp = 10.) ?(buffer = 10.) ?(horizon = 3) ?(w1_0 = 1.) ?(w2_0 = 10.)
      ?(beam_width = 4) () =
    ignore (Ccac.Aimd_check.check ~bdp ~buffer ~horizon ~w1_0 ~w2_0 ~beam_width ())
  in
  let alg1 ?(params = alg1_params) ?(link_rate = Sim.Units.mbps 10.) ?(horizon = 2)
      ?(beam_width = 4) () =
    ignore
      (Ccac.Alg1_check.check ~params ~link_rate ~curve:Ccac.Alg1_check.Exponential
         ~horizon ~beam_width ())
  in
  let p = alg1_params in
  let rejects (fn, field, f) =
    match f () with
    | () -> Alcotest.failf "%s accepted a bad %s" fn field
    | exception Invalid_argument msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%S names %s" msg field)
          true
          (String.starts_with ~prefix:(fn ^ ": " ^ field) msg)
  in
  let model_rows fn run =
    [
      (fn, "mss", run { m with mss = nan });
      (fn, "mss", run { m with mss = 0. });
      (fn, "mss", run { m with mss = -1. });
      (fn, "mss", run { m with mss = infinity });
      (fn, "link_rate", run { m with link_rate = nan });
      (fn, "link_rate", run { m with link_rate = 0. });
      (fn, "link_rate", run { m with link_rate = infinity });
      (fn, "rm", run { m with rm = nan });
      (fn, "rm", run { m with rm = -0.05 });
      (fn, "rm", run { m with rm = infinity });
      (fn, "big_d", run { m with big_d = nan });
      (fn, "big_d", run { m with big_d = -0.01 });
      (fn, "buffer", run { m with buffer = nan });
      (fn, "buffer", run { m with buffer = -1. });
      (fn, "horizon", run { m with horizon = -1 });
      (fn, "beam_width", run { m with beam_width = 0 });
    ]
  in
  let search f () = ignore (f toy) in
  List.iter rejects
    (model_rows "Model.max_unfairness" unfair
    @ model_rows "Model.min_utilization" util
    @ [
        ("Aimd_check.check", "bdp", fun () -> aimd ~bdp:nan ());
        ("Aimd_check.check", "bdp", fun () -> aimd ~bdp:0. ());
        ("Aimd_check.check", "bdp", fun () -> aimd ~bdp:infinity ());
        ("Aimd_check.check", "buffer", fun () -> aimd ~buffer:nan ());
        ("Aimd_check.check", "buffer", fun () -> aimd ~buffer:(-1.) ());
        ("Aimd_check.check", "horizon", fun () -> aimd ~horizon:(-1) ());
        ("Aimd_check.check", "w1_0", fun () -> aimd ~w1_0:nan ());
        ("Aimd_check.check", "w1_0", fun () -> aimd ~w1_0:0. ());
        ("Aimd_check.check", "w2_0", fun () -> aimd ~w2_0:infinity ());
        ("Aimd_check.check", "beam_width", fun () -> aimd ~beam_width:0 ());
        ("Alg1_check.check", "link_rate", fun () -> alg1 ~link_rate:nan ());
        ("Alg1_check.check", "link_rate", fun () -> alg1 ~link_rate:(-1.) ());
        ("Alg1_check.check", "rm", fun () -> alg1 ~params:{ p with rm = nan } ());
        ("Alg1_check.check", "rm", fun () -> alg1 ~params:{ p with rm = 0. } ());
        ("Alg1_check.check", "d_jitter", fun () -> alg1 ~params:{ p with d_jitter = nan } ());
        ("Alg1_check.check", "mu_minus", fun () -> alg1 ~params:{ p with mu_minus = 0. } ());
        ("Alg1_check.check", "horizon", fun () -> alg1 ~horizon:(-2) ());
        ("Alg1_check.check", "beam_width", fun () -> alg1 ~beam_width:0 ());
        ("Search.beam_max", "width", search (Ccac.Search.beam_max ~horizon:2 ~width:0));
        ("Search.beam_max", "horizon", search (Ccac.Search.beam_max ~horizon:(-1) ~width:2));
        ("Search.dfs_max", "horizon", search (Ccac.Search.dfs_max ~horizon:(-1)));
      ]);
  (* The boundaries stay legal: unbounded buffer and jitter, a zero
     buffer, no jitter, horizon 0 and a width-1 beam. *)
  unfair { m with big_d = infinity } ();
  util { m with buffer = 0.; big_d = 0.; horizon = 0; beam_width = 1 } ();
  aimd ~buffer:infinity ~horizon:0 ~beam_width:1 ();
  alg1 ~horizon:0 ~beam_width:1 ()

(* ------------------------------------------------------------------ *)
(* AIMD check                                                          *)
(* ------------------------------------------------------------------ *)

let test_aimd_bounded_10rtt () =
  let v = Ccac.Aimd_check.check ~bdp:10. ~buffer:10. ~horizon:10 () in
  Alcotest.(check bool) "exhaustive" true v.Ccac.Aimd_check.exhaustive;
  Alcotest.(check bool)
    (Printf.sprintf "ratio %.2f bounded" v.Ccac.Aimd_check.max_ratio)
    true
    (Float.is_finite v.Ccac.Aimd_check.max_ratio
    && v.Ccac.Aimd_check.max_ratio < 25.)

let test_aimd_injected_loss_worse () =
  let clean = Ccac.Aimd_check.check ~bdp:10. ~buffer:10. ~horizon:10 () in
  let lossy =
    Ccac.Aimd_check.check ~bdp:10. ~buffer:10. ~horizon:10
      ~allow_injected_loss:true ()
  in
  Alcotest.(check bool) "injected loss strictly worse" true
    (lossy.Ccac.Aimd_check.max_ratio > clean.Ccac.Aimd_check.max_ratio)

let test_aimd_equal_start_fair () =
  let v =
    Ccac.Aimd_check.check ~bdp:10. ~buffer:10. ~horizon:10 ~w1_0:5. ~w2_0:5. ()
  in
  Alcotest.(check bool) "equal start keeps ratio moderate" true
    (v.Ccac.Aimd_check.max_ratio < 8.)

let test_aimd_overflow_forces_victim () =
  (* With joint demand above bdp+buffer the only moves are victim picks. *)
  let v = Ccac.Aimd_check.check ~bdp:2. ~buffer:1. ~horizon:3 ~w1_0:3. ~w2_0:3. () in
  Alcotest.(check bool) "trace contains a victim choice" true
    (List.exists
       (function
         | Ccac.Aimd_check.Victim_1 | Ccac.Aimd_check.Victim_2
         | Ccac.Aimd_check.Victim_both ->
             true
         | Ccac.Aimd_check.Inject_loss_1 | Ccac.Aimd_check.No_op -> false)
       v.Ccac.Aimd_check.trace)

let test_aimd_utilization_positive () =
  let v = Ccac.Aimd_check.check ~bdp:10. ~buffer:10. ~horizon:10 () in
  Alcotest.(check bool) "worst trace still delivers" true
    (v.Ccac.Aimd_check.utilization > 0.)

(* ------------------------------------------------------------------ *)
(* Alg1 check                                                          *)
(* ------------------------------------------------------------------ *)


let test_alg1_survives () =
  let v =
    Ccac.Alg1_check.check ~params:alg1_params ~link_rate:(Sim.Units.mbps 10.)
      ~curve:Ccac.Alg1_check.Exponential ~horizon:30 ~beam_width:128 ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "ratio %.2f stays near design s" v.Ccac.Alg1_check.max_ratio)
    true
    (v.Ccac.Alg1_check.max_ratio < 2.6);
  Alcotest.(check bool)
    (Printf.sprintf "utilization %.2f stays high" v.Ccac.Alg1_check.min_utilization)
    true
    (v.Ccac.Alg1_check.min_utilization > 0.5)

let test_vegas_like_breaks () =
  let exp_v =
    Ccac.Alg1_check.check ~params:alg1_params ~link_rate:(Sim.Units.mbps 10.)
      ~curve:Ccac.Alg1_check.Exponential ~horizon:30 ~beam_width:128 ()
  in
  let veg =
    Ccac.Alg1_check.check ~params:alg1_params ~link_rate:(Sim.Units.mbps 10.)
      ~curve:Ccac.Alg1_check.Vegas_like ~horizon:30 ~beam_width:128 ()
  in
  Alcotest.(check bool) "vegas-like is worse" true
    (veg.Ccac.Alg1_check.max_ratio > exp_v.Ccac.Alg1_check.max_ratio)

let test_alg1_trace_length () =
  let v =
    Ccac.Alg1_check.check ~params:alg1_params ~link_rate:(Sim.Units.mbps 10.)
      ~curve:Ccac.Alg1_check.Exponential ~horizon:12 ~beam_width:32 ()
  in
  Alcotest.(check int) "trace matches horizon" 12
    (List.length v.Ccac.Alg1_check.ratio_trace)

(* ------------------------------------------------------------------ *)
(* Appendix C model                                                    *)
(* ------------------------------------------------------------------ *)

let model_rm = 0.05
let model_mss = 1500.
let model_rate = Sim.Units.mbps 8.

let test_model_vegas_ideal () =
  let u, _ =
    Ccac.Model.max_unfairness ~law:vegas ~mss:model_mss ~link_rate:model_rate
      ~rm:model_rm ~big_d:0. ~horizon:30 ()
  in
  let util =
    Ccac.Model.min_utilization ~law:vegas ~mss:model_mss ~link_rate:model_rate
      ~rm:model_rm ~big_d:0. ~horizon:30 ()
  in
  Alcotest.(check bool) "fair on ideal path" true (u < 1.5);
  Alcotest.(check bool) "efficient on ideal path" true (util > 0.9)

let test_model_vegas_jitter_hurts () =
  let u0, _ =
    Ccac.Model.max_unfairness ~law:vegas ~mss:model_mss ~link_rate:model_rate
      ~rm:model_rm ~big_d:0. ~horizon:40 ()
  in
  let u_jitter, _ =
    Ccac.Model.max_unfairness ~law:vegas ~mss:model_mss ~link_rate:model_rate
      ~rm:model_rm ~big_d:model_rm ~horizon:40 ()
  in
  let util_jitter =
    Ccac.Model.min_utilization ~law:vegas ~mss:model_mss ~link_rate:model_rate
      ~rm:model_rm ~big_d:model_rm ~horizon:40 ()
  in
  Alcotest.(check bool) "jitter raises unfairness" true (u_jitter > u0 +. 0.5);
  Alcotest.(check bool) "jitter breaks efficiency" true (util_jitter < 0.8)

let test_model_aimd_delay_blind () =
  (* The paper's sec. 5.4 point: loss-based AIMD is immune to pure delay
     jitter because loss is a physical event.  The adversary's best
     scores must be identical with and without jitter. *)
  let bdp = model_rate *. model_rm in
  let run big_d =
    let u, _ =
      Ccac.Model.max_unfairness ~law:Ccac.Model.reno_fluid ~mss:model_mss
        ~link_rate:model_rate ~rm:model_rm ~big_d ~buffer:bdp ~horizon:40 ()
    in
    let util =
      Ccac.Model.min_utilization ~law:Ccac.Model.reno_fluid ~mss:model_mss
        ~link_rate:model_rate ~rm:model_rm ~big_d ~buffer:bdp ~horizon:40 ()
    in
    (u, util)
  in
  let u0, util0 = run 0. in
  let uj, utilj = run model_rm in
  Alcotest.(check (float 1e-9)) "unfairness unchanged" u0 uj;
  Alcotest.(check (float 1e-9)) "utilization unchanged" util0 utilj;
  Alcotest.(check bool) "bounded" true (Float.is_finite u0 && u0 < 5.)

let model_system ~big_d =
  Ccac.Model.system ~law:vegas ~mss:model_mss ~link_rate:model_rate ~rm:model_rm
    ~big_d ~buffer:infinity ~warmup:0 ~score:Ccac.Model.unfairness

let test_model_waste_requires_empty_queue () =
  (* With a backlogged queue the adversary may not waste: the choices list
     must shrink accordingly. *)
  let sys = model_system ~big_d:0.01 in
  let initial_choices = List.length (sys.Ccac.Search.choices sys.Ccac.Search.initial) in
  (* Step forward without waste until a queue builds. *)
  let no_waste =
    { Ccac.Model.waste = false; split_bias = `Fifo; jitter_1 = 0.; jitter_2 = 0. }
  in
  let rec go st n = if n = 0 then st else go (sys.Ccac.Search.step st no_waste) (n - 1) in
  (* Vegas needs ~30 steps of +1 packet growth before its rate exceeds the
     link and a standing queue forms. *)
  let later = go sys.Ccac.Search.initial 45 in
  let later_choices = List.length (sys.Ccac.Search.choices later) in
  Alcotest.(check int) "empty queue: waste allowed (2x3x3x3)" 54 initial_choices;
  Alcotest.(check int) "backlogged: no waste (3x3x3)" 27 later_choices

let test_model_conservation () =
  (* served <= arrived always; queue never negative; a step never
     mutates the state it started from (beam branches share it). *)
  let sys = model_system ~big_d:0.02 in
  let choice =
    { Ccac.Model.waste = false; split_bias = `Favor_2; jitter_1 = 0.02; jitter_2 = 0. }
  in
  let rec go st n =
    if n > 0 then begin
      let open Ccac.Model in
      Alcotest.(check bool) "served1 <= arrived1" true (st.served1 <= st.arrived1 +. 1e-9);
      Alcotest.(check bool) "served2 <= arrived2" true (st.served2 <= st.arrived2 +. 1e-9);
      Alcotest.(check bool) "queue nonneg" true
        (st.arrived1 +. st.arrived2 -. st.served1 -. st.served2 >= -1e-9);
      let before = Marshal.to_string st [] in
      let next = sys.Ccac.Search.step st choice in
      Alcotest.(check bool) "step leaves its input intact" true
        (Marshal.to_string st [] = before);
      go next (n - 1)
    end
  in
  go sys.Ccac.Search.initial 30

(* One model step of a law: warm-start at [cwnd], copy, then update with
   the true Rm as the base-RTT estimate.  Returns the new window. *)
let law_step (law : Ccac.Model.fluid) ~mss ~rm cwnd ~delay ~acked ~lost =
  let s = law.f_init ~mss in
  law.f_warm s ~cwnd;
  let s' = Array.copy s in
  law.f_update s' ~mss ~delay ~min_delay:rm ~acked ~lost;
  law.f_cwnd s'

let test_model_cca_updates () =
  let step law ~delay ~lost =
    law_step law ~mss:1500. ~rm:0.05 30000. ~delay ~acked:1500. ~lost
  in
  Alcotest.(check (float 1.)) "vegas halves on loss" 15000.
    (step vegas ~delay:0.05 ~lost:true);
  (* Below-target queueing grows by one packet. *)
  Alcotest.(check (float 1.)) "vegas grows" 31500.
    (step vegas ~delay:0.0505 ~lost:false);
  Alcotest.(check (float 1.)) "reno halves on loss" 15000.
    (step Ccac.Model.reno_fluid ~delay:0.5 ~lost:true);
  Alcotest.(check (float 1.)) "reno ignores delay" 31500.
    (step Ccac.Model.reno_fluid ~delay:5.0 ~lost:false)

(* The per-step updates of the model's former Vegas and AIMD CCAs (state =
   cwnd bytes, base RTT = the true Rm), kept as the reference the shared
   laws are checked against. *)
let old_vegas_update ~rm ~mss ~alpha cwnd ~delay ~lost =
  if lost then Float.max (cwnd /. 2.) (2. *. mss)
  else begin
    let queued_pkts = cwnd /. mss *. (Float.max 0. (delay -. rm) /. delay) in
    let next =
      if queued_pkts < alpha then cwnd +. mss
      else if queued_pkts > alpha +. 2. then cwnd -. mss
      else cwnd
    in
    Float.max next (2. *. mss)
  end

let old_aimd_update ~mss cwnd ~lost =
  if lost then Float.max (cwnd /. 2.) mss else cwnd +. mss

let prop_laws_match_old_updates =
  let gen =
    QCheck.Gen.(
      let* mss = float_range 100. 9000. in
      let* rm = float_range 1e-3 1. in
      let* pkts = float_range 4. 2000. in
      (* No queueing, a perceived queue of 0-15 packets (around the Vegas
         corridor), or any extra delay up to 2 s. *)
      let* delay =
        oneof
          [
            return rm;
            map
              (fun q -> Float.max rm (rm *. pkts /. (pkts -. Float.min q (pkts -. 1.))))
              (float_range 0. 15.);
            map (fun extra -> rm +. extra) (float_range 0. 2.);
          ]
      in
      let* acked = float in
      let* lost = bool in
      let* alpha = float_range 0.5 10. in
      return (mss, rm, pkts *. mss, delay, acked, lost, alpha))
  in
  let print (mss, rm, cwnd, delay, acked, lost, alpha) =
    Printf.sprintf "mss=%h rm=%h cwnd=%h delay=%h acked=%h lost=%b alpha=%h" mss
      rm cwnd delay acked lost alpha
  in
  QCheck.Test.make ~name:"law step equals the old model update" ~count:2000
    (QCheck.make ~print gen)
    (fun (mss, rm, cwnd, delay, acked, lost, alpha) ->
      let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
      let law = Ccac.Model.vegas_fluid ~alpha ~beta:(alpha +. 2.) () in
      same
        (law_step law ~mss ~rm cwnd ~delay ~acked ~lost)
        (old_vegas_update ~rm ~mss ~alpha cwnd ~delay ~lost)
      && same
           (law_step Ccac.Model.reno_fluid ~mss ~rm cwnd ~delay ~acked ~lost)
           (old_aimd_update ~mss cwnd ~lost))

(* The one place the laws differ from the old models: a halved window
   below 2 mss.  The old AIMD floored it at 1 mss, [reno_fluid] floors it
   at 2 mss, as all three laws do.  E12h never reaches it. *)
let test_model_reno_floor () =
  let mss = 1500. and cwnd = 3000. in
  Alcotest.(check (float 0.)) "old AIMD floor" 1500.
    (old_aimd_update ~mss cwnd ~lost:true);
  Alcotest.(check (float 0.)) "reno_fluid floor" 3000.
    (law_step Ccac.Model.reno_fluid ~mss ~rm:0.05 cwnd ~delay:0.05 ~acked:0.
       ~lost:true)

let test_model_unfairness_metric () =
  let st =
    {
      Ccac.Model.cca1 = [||];
      cca2 = [||];
      arrived1 = 0.;
      arrived2 = 0.;
      served1 = 0.;
      served2 = 0.;
      counted1 = 100.;
      counted2 = 400.;
      served1_lag = 0.;
      served2_lag = 0.;
      steps = 10;
    }
  in
  Alcotest.(check (float 1e-9)) "ratio" 4. (Ccac.Model.unfairness st);
  let starved = { st with Ccac.Model.counted1 = 0. } in
  Alcotest.(check bool) "starved = infinity" true
    (Ccac.Model.unfairness starved = infinity);
  Alcotest.(check (float 1e-9)) "both idle = 1" 1. (Ccac.Model.ratio 0. 0.);
  Alcotest.(check (float 1e-9)) "utilization" 0.5
    (Ccac.Model.utilization ~link_rate:200. ~rm:1. ~warmup:5 st)

let test_beam_width_one_is_greedy () =
  (* Width-1 beam on the monotone toy system follows the greedy path. *)
  let best = Ccac.Search.beam_max toy ~horizon:6 ~width:1 in
  Alcotest.(check (float 1e-9)) "greedy = optimal here" 12. best.Ccac.Search.score

let () =
  Alcotest.run "ccac"
    [
      ( "search",
        [
          Alcotest.test_case "dfs exact" `Quick test_dfs_exact;
          Alcotest.test_case "beam lower bound" `Quick test_beam_lower_bound;
          Alcotest.test_case "dead end" `Quick test_dfs_dead_end;
          qt prop_beam_never_beats_dfs;
          qt prop_beam_matches_oracle;
          Alcotest.test_case "beam matches oracle on model" `Quick
            test_beam_matches_oracle_on_model;
          Alcotest.test_case "beam promotes little" `Quick test_beam_promotes_little;
          Alcotest.test_case "entry points reject bad args" `Quick
            test_entry_points_reject;
        ] );
      ( "aimd",
        [
          Alcotest.test_case "bounded at 10 rtts" `Quick test_aimd_bounded_10rtt;
          Alcotest.test_case "injected loss worse" `Quick test_aimd_injected_loss_worse;
          Alcotest.test_case "equal start fair" `Quick test_aimd_equal_start_fair;
          Alcotest.test_case "overflow forces victim" `Quick test_aimd_overflow_forces_victim;
          Alcotest.test_case "utilization positive" `Quick test_aimd_utilization_positive;
        ] );
      ( "alg1",
        [
          Alcotest.test_case "alg1 survives" `Quick test_alg1_survives;
          Alcotest.test_case "vegas-like breaks" `Quick test_vegas_like_breaks;
          Alcotest.test_case "trace length" `Quick test_alg1_trace_length;
        ] );
      ( "appendix-c model",
        [
          Alcotest.test_case "vegas ideal" `Quick test_model_vegas_ideal;
          Alcotest.test_case "vegas jitter hurts" `Quick test_model_vegas_jitter_hurts;
          Alcotest.test_case "aimd delay-blind" `Quick test_model_aimd_delay_blind;
          Alcotest.test_case "waste needs empty queue" `Quick
            test_model_waste_requires_empty_queue;
          Alcotest.test_case "conservation" `Quick test_model_conservation;
          Alcotest.test_case "cca updates" `Quick test_model_cca_updates;
          qt prop_laws_match_old_updates;
          Alcotest.test_case "reno floors at 2 mss" `Quick test_model_reno_floor;
          Alcotest.test_case "metrics" `Quick test_model_unfairness_metric;
          Alcotest.test_case "beam width one" `Quick test_beam_width_one_is_greedy;
        ] );
    ]

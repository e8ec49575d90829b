(* Tests for the simulation substrate: event queue, rng, stats,
   series, jitter, link, flow and network integration. *)

let check_float = Alcotest.(check (float 1e-9))
let check_float_eps eps = Alcotest.(check (float eps))

(* ------------------------------------------------------------------ *)
(* Event queue                                                         *)
(* ------------------------------------------------------------------ *)

let test_eq_ordering () =
  let eq = Sim.Event_queue.create () in
  let log = ref [] in
  Sim.Event_queue.schedule eq ~at:2.0 (fun () -> log := 2 :: !log);
  Sim.Event_queue.schedule eq ~at:1.0 (fun () -> log := 1 :: !log);
  Sim.Event_queue.schedule eq ~at:3.0 (fun () -> log := 3 :: !log);
  Sim.Event_queue.run eq;
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !log);
  check_float "now" 3.0 (Sim.Event_queue.now eq)

let test_eq_fifo_ties () =
  let eq = Sim.Event_queue.create () in
  let log = ref [] in
  for i = 0 to 9 do
    Sim.Event_queue.schedule eq ~at:1.0 (fun () -> log := i :: !log)
  done;
  Sim.Event_queue.run eq;
  Alcotest.(check (list int)) "fifo ties" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !log)

let prop_eq_stable_order =
  QCheck.Test.make
    ~name:"event queue drains in (time, insertion) order under random times"
    ~count:200
    QCheck.(list_of_size Gen.(0 -- 40) (int_range 0 5))
    (fun times ->
      (* Times drawn from a tiny set so equal-time ties are the common
         case: ties must fire in insertion (FIFO) order. *)
      let eq = Sim.Event_queue.create () in
      let log = ref [] in
      List.iteri
        (fun i t ->
          Sim.Event_queue.schedule eq ~at:(float_of_int t) (fun () ->
              log := i :: !log))
        times;
      Sim.Event_queue.run eq;
      let expect =
        List.mapi (fun i t -> (t, i)) times
        |> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b)
        |> List.map snd
      in
      List.rev !log = expect)

let test_eq_past_rejected () =
  let eq = Sim.Event_queue.create () in
  Sim.Event_queue.schedule eq ~at:1.0 (fun () -> ());
  ignore (Sim.Event_queue.step eq);
  Alcotest.(check bool) "raises" true
    (try
       Sim.Event_queue.schedule eq ~at:0.5 (fun () -> ());
       false
     with Invalid_argument _ -> true)

let test_eq_nested_scheduling () =
  let eq = Sim.Event_queue.create () in
  let log = ref [] in
  Sim.Event_queue.schedule eq ~at:1.0 (fun () ->
      log := "a" :: !log;
      Sim.Event_queue.schedule eq
        ~at:(Sim.Event_queue.now eq +. 0.5)
        (fun () -> log := "b" :: !log));
  Sim.Event_queue.run_until eq 2.0;
  Alcotest.(check (list string)) "nested" [ "a"; "b" ] (List.rev !log);
  check_float "now at horizon" 2.0 (Sim.Event_queue.now eq)

let test_eq_run_until_excludes_future () =
  let eq = Sim.Event_queue.create () in
  let fired = ref false in
  Sim.Event_queue.schedule eq ~at:5.0 (fun () -> fired := true);
  Sim.Event_queue.run_until eq 4.0;
  Alcotest.(check bool) "future not fired" false !fired;
  Alcotest.(check int) "still pending" 1 (Sim.Event_queue.pending eq)

(* Regression for a space leak: a container that keeps a popped or
   cancelled entry in its vacated slot pins the entry's closure, and
   with it whatever the closure captured (packets, flows), until a later
   insertion overwrites the slot.  Every closure here captures a tracked
   ref; once the queue has run dry, none may survive a major GC.
   Events come four to a millisecond, with every fifth one far in the
   future, and cancels hit entries anywhere in the heap. *)
let test_eq_releases_closures () =
  let rounds = 3 and per_round = 200 in
  let n = rounds * per_round in
  let eq = Sim.Event_queue.create () in
  let tracked = Weak.create n in
  let track i =
    let r = ref i in
    Weak.set tracked i (Some r);
    fun () -> incr r
  in
  let round k =
    let t0 = Sim.Event_queue.now eq in
    let at i =
      if i mod 5 = 0 then t0 +. 1e5 +. float_of_int i
      else
        t0 +. (float_of_int (i / 4) *. 1e-3) +. (float_of_int (i mod 4) *. 1e-6)
    in
    let cancelled = ref [] in
    for j = 0 to per_round - 1 do
      let i = (k * per_round) + j in
      match i mod 3 with
      | 0 -> Sim.Event_queue.schedule eq ~at:(at i) (track i)
      | 1 ->
          (* re-armed once, then run *)
          let h = Sim.Event_queue.handle (track i) in
          Sim.Event_queue.schedule_handle eq h ~at:(at i +. 0.5);
          Sim.Event_queue.schedule_handle eq h ~at:(at i)
      | _ ->
          let h = Sim.Event_queue.handle (track i) in
          Sim.Event_queue.schedule_handle eq h ~at:(at i);
          cancelled := h :: !cancelled
    done;
    for _ = 1 to 50 do
      ignore (Sim.Event_queue.step eq)
    done;
    List.iter (Sim.Event_queue.cancel eq) !cancelled;
    Sim.Event_queue.run eq
  in
  for k = 0 to rounds - 1 do
    round k
  done;
  Gc.full_major ();
  let live = ref 0 in
  for i = 0 to n - 1 do
    if Weak.check tracked i then incr live
  done;
  Alcotest.(check int) "closures still reachable" 0 !live;
  ignore (Sys.opaque_identity eq)

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Sim.Rng.create ~seed:1 and b = Sim.Rng.create ~seed:1 in
  for _ = 1 to 100 do
    check_float "same stream" (Sim.Rng.float a 1.) (Sim.Rng.float b 1.)
  done

let test_rng_seeds_differ () =
  let a = Sim.Rng.create ~seed:1 and b = Sim.Rng.create ~seed:2 in
  let same = ref true in
  for _ = 1 to 16 do
    if Sim.Rng.float a 1. <> Sim.Rng.float b 1. then same := false
  done;
  Alcotest.(check bool) "streams differ" false !same

let test_rng_split_independent () =
  let parent = Sim.Rng.create ~seed:3 in
  let c1 = Sim.Rng.split parent in
  let c2 = Sim.Rng.split parent in
  let same = ref true in
  for _ = 1 to 16 do
    if Sim.Rng.float c1 1. <> Sim.Rng.float c2 1. then same := false
  done;
  Alcotest.(check bool) "children differ" false !same

let test_rng_stream_order_independent () =
  (* The fuzzer's reproducibility contract: scenario i's generator is a
     pure function of (seed, label) — deriving other labels first, in any
     order, must not change it, and deriving must not advance the parent. *)
  let draws g = Array.init 8 (fun _ -> Sim.Rng.float g 1.) in
  let a = Sim.Rng.create ~seed:42 in
  let direct = draws (Sim.Rng.stream a ~label:"scenario-5") in
  let b = Sim.Rng.create ~seed:42 in
  ignore (draws (Sim.Rng.stream b ~label:"scenario-9"));
  ignore (draws (Sim.Rng.stream b ~label:"scenario-0"));
  let after_others = draws (Sim.Rng.stream b ~label:"scenario-5") in
  Alcotest.(check (array (float 0.))) "label alone determines the stream"
    direct after_others;
  (* The parent is untouched: its own draws match a fresh parent's. *)
  let fresh = Sim.Rng.create ~seed:42 in
  Alcotest.(check (array (float 0.))) "parent not advanced by stream"
    (draws fresh) (draws b)

let test_rng_stream_labels_decorrelated () =
  let a = Sim.Rng.stream (Sim.Rng.create ~seed:42) ~label:"scenario-1" in
  let b = Sim.Rng.stream (Sim.Rng.create ~seed:42) ~label:"scenario-2" in
  let n = 10_000 in
  let matches = ref 0 and corr = ref 0. in
  for _ = 1 to n do
    let x = Sim.Rng.float a 1. and y = Sim.Rng.float b 1. in
    if x = y then incr matches;
    corr := !corr +. ((x -. 0.5) *. (y -. 0.5))
  done;
  Alcotest.(check int) "no identical draws" 0 !matches;
  (* Sample correlation of uniforms: stderr ~ 1/(12 sqrt n) ~ 8.3e-4. *)
  Alcotest.(check bool) "uncorrelated" true
    (Float.abs (!corr /. float_of_int n) < 5e-3)

let test_rng_exponential_mean () =
  let r = Sim.Rng.create ~seed:11 in
  let n = 100_000 and mean = 0.02 in
  let sum = ref 0. in
  for _ = 1 to n do
    let x = Sim.Rng.exponential r ~mean in
    Alcotest.(check bool) "non-negative finite" true (Float.is_finite x && x >= 0.);
    sum := !sum +. x
  done;
  let m = !sum /. float_of_int n in
  (* stderr = mean/sqrt(n) ~ 6.3e-5; allow 5 sigma. *)
  Alcotest.(check bool) "mean within band" true
    (Float.abs (m -. mean) < 5. *. mean /. sqrt (float_of_int n))

let prop_rng_float_range =
  QCheck.Test.make ~name:"rng float stays in [0,bound)" ~count:100
    QCheck.(pair small_int (float_range 0.001 1000.))
    (fun (seed, bound) ->
      let r = Sim.Rng.create ~seed in
      let ok = ref true in
      for _ = 1 to 100 do
        let x = Sim.Rng.float r bound in
        if x < 0. || x >= bound then ok := false
      done;
      !ok)

let test_rng_bool_probability () =
  let r = Sim.Rng.create ~seed:7 in
  let hits = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Sim.Rng.bool r ~p:0.3 then incr hits
  done;
  let freq = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "freq near 0.3" true (Float.abs (freq -. 0.3) < 0.01)

(* Every seeded result in the repository (census digests, fuzz corpora,
   experiment tables) is a function of this exact stream, so a change to
   how the generator stores its state must not move a bit of it. *)
let test_rng_pinned_stream () =
  let first8 g = List.init 8 (fun _ -> Sim.Rng.bits64 g) in
  let check name expect g =
    Alcotest.(check (list int64)) name expect (first8 g)
  in
  check "create ~seed:42"
    [ 0x15780B2E0C2EC716L; 0x6104D9866D113A7EL; 0xAE17533239E499A1L;
      0xECB8AD4703B360A1L; 0xFDE6DC7FE2EC5E64L; 0xC50DA53101795238L;
      0xB82154855A65DDB2L; 0xD99A2743EBE60087L ]
    (Sim.Rng.create ~seed:42);
  check "split child"
    [ 0x8EE445D14631C453L; 0x106FA1A13296FE62L; 0x729A768806244CE5L;
      0x91D83A17B20E6585L; 0x38C33DF442FC70FDL; 0xE33CD1B92E2E42F1L;
      0x3162280B9DCFA5EFL; 0xB4F9F0541228B854L ]
    (Sim.Rng.split (Sim.Rng.create ~seed:42));
  check "stream child"
    [ 0x677E4E357F338F89L; 0xD28A1AF834573EDDL; 0x1E8CD744CB6FC86BL;
      0xF050D56B7297497BL; 0xA7378D9450BCB73AL; 0x4727EFFDCC863491L;
      0x9EB567E56B3A0114L; 0xC61CF7FB01D110EBL ]
    (Sim.Rng.stream (Sim.Rng.create ~seed:42) ~label:"census");
  (* [fold_state] encodes the four xoshiro words s0..s3 in order, here
     the splitmix64 expansion of seed 42. *)
  let buf = Buffer.create 32 in
  Sim.Rng.fold_state buf (Sim.Rng.create ~seed:42);
  let b = Buffer.to_bytes buf in
  Alcotest.(check (list int64)) "fold_state words"
    [ 0xBDD732262FEB6E95L; 0x28EFE333B266F103L; 0x47526757130F9F52L;
      0x581CE1FF0E4AE394L ]
    (List.init (Bytes.length b / 8) (fun i -> Bytes.get_int64_le b (8 * i)))

(* Allocation budget: a draw allocates at most the float it returns (2
   words; 0 when the call is inlined).  Bytecode boxes differently, so
   the budget only binds on the native backend. *)
let test_rng_minor_words_budget () =
  match Sys.backend_type with
  | Sys.Native ->
      let g = Sim.Rng.create ~seed:42 in
      let n = 100_000 in
      let acc = ref 0. in
      let w0 = Gc.minor_words () in
      for _ = 1 to n do
        acc := !acc +. Sim.Rng.float g 1.
      done;
      let per_draw = (Gc.minor_words () -. w0) /. float_of_int n in
      ignore (Sys.opaque_identity !acc);
      Alcotest.(check bool)
        (Printf.sprintf "%.1f minor words/draw <= 4" per_draw)
        true (per_draw <= 4.)
  | Sys.Bytecode | Sys.Other _ -> ()

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_online_stats () =
  let o = Sim.Stats.Online.create () in
  List.iter (Sim.Stats.Online.add o) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  check_float_eps 1e-9 "mean" 5. (Sim.Stats.Online.mean o);
  check_float_eps 1e-9 "variance" (32. /. 7.) (Sim.Stats.Online.variance o);
  check_float "min" 2. (Sim.Stats.Online.min o);
  check_float "max" 9. (Sim.Stats.Online.max o)

let test_percentile () =
  let xs = [| 1.; 2.; 3.; 4.; 5. |] in
  check_float "median" 3. (Sim.Stats.median xs);
  check_float "p0" 1. (Sim.Stats.percentile xs 0.);
  check_float "p100" 5. (Sim.Stats.percentile xs 100.);
  check_float "p25" 2. (Sim.Stats.percentile xs 25.)

let test_percentile_invalid () =
  Alcotest.(check bool) "empty raises" true
    (try ignore (Sim.Stats.percentile [||] 50.); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "p out of range raises" true
    (try ignore (Sim.Stats.percentile [| 1. |] 101.); false
     with Invalid_argument _ -> true)

let test_percentile_single () =
  check_float "single" 42. (Sim.Stats.percentile [| 42. |] 75.)

let test_jain () =
  check_float "equal shares" 1. (Sim.Stats.jain_index [ 5.; 5.; 5. ]);
  check_float_eps 1e-9 "one hog" 0.25 (Sim.Stats.jain_index [ 1.; 0.; 0.; 0. ])

let test_max_min_ratio () =
  check_float "ratio" 4. (Sim.Stats.max_min_ratio [ 1.; 4.; 2. ]);
  check_float "all zero" 1. (Sim.Stats.max_min_ratio [ 0.; 0. ]);
  Alcotest.(check bool) "inf" true (Sim.Stats.max_min_ratio [ 0.; 1. ] = infinity)

(* Regressions for the small-count/sign conventions: empty extrema used
   to leak their +/-infinity initializers, a singleton "had" variance 0,
   and a negative value could make max_min_ratio report 1 (mx = 0, mn < 0)
   as if the shares were perfectly fair. *)
let test_online_empty_is_nan () =
  let o = Sim.Stats.Online.create () in
  Alcotest.(check int) "count" 0 (Sim.Stats.Online.count o);
  List.iter
    (fun (name, v) ->
      Alcotest.(check bool) (name ^ " is nan") true (Float.is_nan v))
    [
      ("mean", Sim.Stats.Online.mean o);
      ("variance", Sim.Stats.Online.variance o);
      ("stddev", Sim.Stats.Online.stddev o);
      ("min", Sim.Stats.Online.min o);
      ("max", Sim.Stats.Online.max o);
    ]

let test_online_singleton () =
  let o = Sim.Stats.Online.create () in
  Sim.Stats.Online.add o 5.;
  check_float "mean" 5. (Sim.Stats.Online.mean o);
  check_float "min" 5. (Sim.Stats.Online.min o);
  check_float "max" 5. (Sim.Stats.Online.max o);
  Alcotest.(check bool) "variance undefined" true
    (Float.is_nan (Sim.Stats.Online.variance o));
  Alcotest.(check bool) "stddev undefined" true
    (Float.is_nan (Sim.Stats.Online.stddev o))

let test_max_min_ratio_rejects_negative () =
  Alcotest.check_raises "negative value"
    (Invalid_argument "Stats.max_min_ratio: negative value") (fun () ->
      ignore (Sim.Stats.max_min_ratio [ -1.; 0. ]))

let prop_jain_bounds =
  QCheck.Test.make ~name:"jain index in (0,1]" ~count:200
    QCheck.(list_of_size Gen.(1 -- 20) (float_range 0.0 100.))
    (fun xs ->
      let j = Sim.Stats.jain_index xs in
      j > 0. && j <= 1. +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Series                                                              *)
(* ------------------------------------------------------------------ *)

let mk_series pts =
  let s = Sim.Series.create () in
  List.iter (fun (t, v) -> Sim.Series.add s ~time:t v) pts;
  s

let test_series_value_at () =
  let s = mk_series [ (1., 10.); (2., 20.); (3., 30.) ] in
  Alcotest.(check (option (float 1e-9))) "before" None (Sim.Series.value_at s 0.5);
  Alcotest.(check (option (float 1e-9))) "exact" (Some 10.) (Sim.Series.value_at s 1.);
  Alcotest.(check (option (float 1e-9))) "between" (Some 20.) (Sim.Series.value_at s 2.5);
  Alcotest.(check (option (float 1e-9))) "after" (Some 30.) (Sim.Series.value_at s 99.)

let test_series_rejects_decreasing () =
  let s = mk_series [ (1., 1.) ] in
  Alcotest.(check bool) "raises" true
    (try
       Sim.Series.add s ~time:0.5 2.;
       false
     with Invalid_argument _ -> true)

let test_series_integral () =
  (* Step function: 10 on [1,2), 20 on [2,3), 30 after. *)
  let s = mk_series [ (1., 10.); (2., 20.); (3., 30.) ] in
  check_float "full" (10. +. 20.) (Sim.Series.integral s ~t0:1. ~t1:3.);
  check_float "partial" (0.5 *. 10.) (Sim.Series.integral s ~t0:1. ~t1:1.5);
  check_float "beyond" (10. +. 20. +. 30.) (Sim.Series.integral s ~t0:1. ~t1:4.);
  check_float "before start" 10. (Sim.Series.integral s ~t0:0. ~t1:2.)

let test_series_window () =
  let s = mk_series [ (1., 1.); (2., 2.); (3., 3.); (4., 4.) ] in
  Alcotest.(check int) "window size" 2
    (List.length (Sim.Series.window s ~t0:2. ~t1:3.));
  Alcotest.(check (option (pair (float 1e-9) (float 1e-9))))
    "min max" (Some (2., 3.))
    (Sim.Series.min_max_in s ~t0:2. ~t1:3.)

let test_series_degenerate_windows () =
  let s = mk_series [ (1., 1.); (2., 2.); (3., 3.); (4., 4.) ] in
  let sampleless = [ (2.2, 2.8); (10., 20.); (3., 2.) ] in
  List.iter
    (fun (t0, t1) ->
      let tag = Printf.sprintf "[%g,%g]" t0 t1 in
      Alcotest.(check int) (tag ^ " window empty") 0
        (List.length (Sim.Series.window s ~t0 ~t1));
      Alcotest.(check int) (tag ^ " values empty") 0
        (Array.length (Sim.Series.window_values s ~t0 ~t1));
      Alcotest.(check bool) (tag ^ " no extrema") true
        (Sim.Series.min_max_in s ~t0 ~t1 = None);
      Alcotest.(check bool) (tag ^ " no mean") true
        (Sim.Series.mean_in s ~t0 ~t1 = None))
    sampleless;
  (* A point window that hits a sample time exactly yields that sample. *)
  Alcotest.(check int) "point window hit" 1
    (List.length (Sim.Series.window s ~t0:3. ~t1:3.));
  check_float "point window mean" 3.
    (Option.get (Sim.Series.mean_in s ~t0:3. ~t1:3.));
  (* NaN bounds raise rather than select an arbitrary range. *)
  let raises f = match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "nan t0 window" true
    (raises (fun () -> Sim.Series.window s ~t0:Float.nan ~t1:3.));
  Alcotest.(check bool) "nan t1 values" true
    (raises (fun () -> Sim.Series.window_values s ~t0:1. ~t1:Float.nan));
  Alcotest.(check bool) "nan min_max" true
    (raises (fun () -> Sim.Series.min_max_in s ~t0:Float.nan ~t1:Float.nan));
  Alcotest.(check bool) "nan mean" true
    (raises (fun () -> Sim.Series.mean_in s ~t0:Float.nan ~t1:2.))

let test_series_resample () =
  let s = mk_series [ (0., 5.); (1., 10.) ] in
  let grid = Sim.Series.resample s ~t0:0. ~t1:2. ~dt:0.5 in
  Alcotest.(check int) "grid points" 5 (Array.length grid);
  check_float "at 0" 5. (snd grid.(0));
  check_float "at 0.5" 5. (snd grid.(1));
  check_float "at 1.0" 10. (snd grid.(2));
  check_float "at 2.0" 10. (snd grid.(4))

let prop_series_integral_additive =
  QCheck.Test.make ~name:"series integral is additive over adjacent windows"
    ~count:100
    QCheck.(list_of_size Gen.(2 -- 20) (pair (float_range 0. 100.) (float_range 0. 10.)))
    (fun pts ->
      let pts =
        List.sort (fun (a, _) (b, _) -> Float.compare a b) pts
      in
      let s = mk_series pts in
      let a = Sim.Series.integral s ~t0:0. ~t1:50. in
      let b = Sim.Series.integral s ~t0:50. ~t1:100. in
      let whole = Sim.Series.integral s ~t0:0. ~t1:100. in
      Float.abs (a +. b -. whole) < 1e-6 *. Float.max 1. (Float.abs whole))

let test_series_map () =
  let s = mk_series [ (1., 2.); (3., 4.) ] in
  let doubled = Sim.Series.map (fun v -> 2. *. v) s in
  Alcotest.(check int) "length" 2 (Sim.Series.length doubled);
  check_float "time preserved" 1. (Sim.Series.times doubled).(0);
  check_float "value doubled" 4. (Sim.Series.values doubled).(0)

let test_series_first_last () =
  let s = mk_series [ (1., 10.); (2., 20.) ] in
  Alcotest.(check (option (pair (float 1e-9) (float 1e-9)))) "first" (Some (1., 10.))
    (Sim.Series.first s);
  Alcotest.(check (option (pair (float 1e-9) (float 1e-9)))) "last" (Some (2., 20.))
    (Sim.Series.last s);
  let empty = Sim.Series.create () in
  Alcotest.(check (option (pair (float 1e-9) (float 1e-9)))) "empty first" None
    (Sim.Series.first empty)

let prop_online_matches_batch_mean =
  QCheck.Test.make ~name:"online mean matches batch mean" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_range (-100.) 100.))
    (fun xs ->
      let o = Sim.Stats.Online.create () in
      List.iter (Sim.Stats.Online.add o) xs;
      let batch = Sim.Stats.mean (Array.of_list xs) in
      Float.abs (Sim.Stats.Online.mean o -. batch) < 1e-9 *. Float.max 1. (Float.abs batch))

let test_units_extras () =
  check_float_eps 1e-9 "bdp packets" 40.
    (Sim.Units.bdp_packets ~rate:(Sim.Units.mbps 12.) ~rtt:0.04 ~mss:1500);
  Alcotest.(check bool) "feq close" true (Sim.Units.feq 1.0 (1.0 +. 1e-12));
  Alcotest.(check bool) "feq far" false (Sim.Units.feq 1.0 1.1)

(* ------------------------------------------------------------------ *)
(* Jitter element                                                      *)
(* ------------------------------------------------------------------ *)

let release j ~arrival =
  Sim.Jitter.release_at j ~flow:0 ~arrival ~sent:(arrival -. 0.05)

let test_jitter_trace_policy () =
  let j =
    Sim.Jitter.create ~bound:1. ~rng:(Sim.Rng.create ~seed:1)
      (Sim.Jitter.Trace (fun t -> t /. 10.))
  in
  check_float "uses arrival time" 1.1 (release j ~arrival:1.);
  check_float "later arrival, larger delay" 2.42
    (release j ~arrival:2.2)

let test_jitter_constant () =
  let j =
    Sim.Jitter.create ~bound:1. ~rng:(Sim.Rng.create ~seed:1) (Sim.Jitter.Constant 0.01)
  in
  check_float "release" 1.01 (release j ~arrival:1.);
  Alcotest.(check int) "no violations" 0 (Sim.Jitter.violations j)

let test_jitter_no_reorder () =
  (* A big delay followed by a small one: the second packet must not pass. *)
  let calls = ref [ 0.05; 0.0 ] in
  let policy =
    Sim.Jitter.Controller
      (fun _ ->
        match !calls with
        | d :: rest ->
            calls := rest;
            d
        | [] -> 0.)
  in
  let j = Sim.Jitter.create ~bound:1. ~rng:(Sim.Rng.create ~seed:1) policy in
  let r1 = release j ~arrival:1.0 in
  let r2 = release j ~arrival:1.01 in
  check_float "first" 1.05 r1;
  Alcotest.(check bool) "no reorder" true (r2 >= r1)

let test_jitter_clamps_and_counts () =
  let j =
    Sim.Jitter.create ~bound:0.01 ~rng:(Sim.Rng.create ~seed:1)
      (Sim.Jitter.Constant 0.05)
  in
  let r = release j ~arrival:2. in
  check_float "clamped to bound" 2.01 r;
  Alcotest.(check int) "violation counted" 1 (Sim.Jitter.violations j);
  check_float "max requested" 0.05 (Sim.Jitter.max_requested j)

let test_jitter_negative_clamped () =
  let j =
    Sim.Jitter.create ~bound:0.01 ~rng:(Sim.Rng.create ~seed:1)
      (Sim.Jitter.Constant (-0.02))
  in
  let r = release j ~arrival:2. in
  check_float "clamped to zero" 2. r;
  Alcotest.(check int) "violation counted" 1 (Sim.Jitter.violations j)

let test_jitter_violation_accounting () =
  (* A mixed request schedule: over-bound, under-zero, legal.  The
     counters must tally every violation exactly and track the worst
     excess over the whole run, not just the last one. *)
  let requests = ref [ 0.05; -0.02; 0.005; 0.03 ] in
  let policy =
    Sim.Jitter.Controller
      (fun _ ->
        match !requests with
        | d :: rest ->
            requests := rest;
            d
        | [] -> 0.)
  in
  let j = Sim.Jitter.create ~bound:0.01 ~rng:(Sim.Rng.create ~seed:1) policy in
  for i = 1 to 4 do
    ignore (release j ~arrival:(float_of_int i))
  done;
  Alcotest.(check int) "three violations" 3 (Sim.Jitter.violations j);
  check_float "worst excess is the 0.05 request" 0.04 (Sim.Jitter.worst_excess j);
  check_float "max requested" 0.05 (Sim.Jitter.max_requested j)

let test_jitter_no_violation_no_excess () =
  let j =
    Sim.Jitter.create ~bound:0.01 ~rng:(Sim.Rng.create ~seed:1)
      (Sim.Jitter.Constant 0.01)
  in
  for i = 1 to 10 do
    ignore (release j ~arrival:(float_of_int i))
  done;
  Alcotest.(check int) "bound-riding is legal" 0 (Sim.Jitter.violations j);
  check_float "no excess" 0. (Sim.Jitter.worst_excess j)

let test_jitter_create_validates () =
  let rng () = Sim.Rng.create ~seed:1 in
  Alcotest.check_raises "lo > hi"
    (Invalid_argument "Jitter.create: Uniform lo > hi") (fun () ->
      ignore
        (Sim.Jitter.create ~rng:(rng ())
           (Sim.Jitter.Uniform { lo = 0.02; hi = 0.01 })));
  Alcotest.check_raises "negative lo"
    (Invalid_argument "Jitter.create: Uniform lo must be >= 0") (fun () ->
      ignore
        (Sim.Jitter.create ~rng:(rng ())
           (Sim.Jitter.Uniform { lo = -0.01; hi = 0.01 })));
  Alcotest.check_raises "nan hi"
    (Invalid_argument "Jitter.create: Uniform bounds must be finite") (fun () ->
      ignore
        (Sim.Jitter.create ~rng:(rng ())
           (Sim.Jitter.Uniform { lo = 0.; hi = nan })));
  Alcotest.check_raises "infinite hi"
    (Invalid_argument "Jitter.create: Uniform bounds must be finite") (fun () ->
      ignore
        (Sim.Jitter.create ~rng:(rng ())
           (Sim.Jitter.Uniform { lo = 0.; hi = infinity })));
  Alcotest.check_raises "negative bound"
    (Invalid_argument "Jitter.create: bound must be non-negative") (fun () ->
      ignore (Sim.Jitter.create ~bound:(-0.5) ~rng:(rng ()) Sim.Jitter.No_jitter));
  (* Over-bound Uniform hi is a legal adversary: clamped and counted at
     release time, not rejected at construction. *)
  ignore
    (Sim.Jitter.create ~bound:0.01 ~rng:(rng ())
       (Sim.Jitter.Uniform { lo = 0.; hi = 0.05 }))

let prop_jitter_uniform_in_bounds =
  QCheck.Test.make ~name:"uniform jitter stays within [lo,hi] and never reorders"
    ~count:50
    QCheck.(pair small_int (float_range 0.001 0.05))
    (fun (seed, hi) ->
      let j =
        Sim.Jitter.create ~bound:hi ~rng:(Sim.Rng.create ~seed)
          (Sim.Jitter.Uniform { lo = 0.; hi })
      in
      let last = ref neg_infinity in
      let ok = ref true in
      for i = 1 to 100 do
        let arrival = float_of_int i *. 0.01 in
        let r = release j ~arrival in
        if r < arrival || r < !last then ok := false;
        last := r
      done;
      !ok && Sim.Jitter.violations j = 0)

(* ------------------------------------------------------------------ *)
(* Link                                                                *)
(* ------------------------------------------------------------------ *)

let test_rate_at_piecewise () =
  let r = Sim.Link.Piecewise [| (0., 100.); (1., 200.); (2., 0.) |] in
  check_float "seg0" 100. (Sim.Link.rate_at r 0.5);
  check_float "seg1" 200. (Sim.Link.rate_at r 1.5);
  check_float "seg2" 0. (Sim.Link.rate_at r 5.);
  check_float "before first" 100. (Sim.Link.rate_at r (-1.))

let test_transmit_end_constant () =
  check_float "constant" 2.
    (Sim.Link.transmit_end (Sim.Link.Constant 100.) ~start:1. ~bytes:100)

let test_transmit_end_across_segments () =
  (* 100 B/s for 1 s carries 100 B; then 200 B/s. 150 bytes from t=0:
     100 B by t=1, remaining 50 B at 200 B/s -> 0.25 s. *)
  let r = Sim.Link.Piecewise [| (0., 100.); (1., 200.) |] in
  check_float "across" 1.25 (Sim.Link.transmit_end r ~start:0. ~bytes:150)

let test_transmit_end_through_zero () =
  (* Link pauses on [1,2): transmission resumes after. *)
  let r = Sim.Link.Piecewise [| (0., 100.); (1., 0.); (2., 100.) |] in
  check_float "spans outage" 2.5 (Sim.Link.transmit_end r ~start:0.5 ~bytes:100)

let test_transmit_end_dead_link () =
  let r = Sim.Link.Piecewise [| (0., 0.) |] in
  Alcotest.(check bool) "infinite" true
    (Sim.Link.transmit_end r ~start:0. ~bytes:10 = infinity)

let mk_pkt ?(flow = 0) ?(size = 1000) seq =
  {
    Sim.Packet.flow;
    seq;
    size;
    sent_at = 0.;
    delivered_at_send = 0;
    app_limited = false;
    ce = false;
  }

let test_link_fifo_service () =
  let eq = Sim.Event_queue.create () in
  let link =
    Sim.Link.create ~eq ~rate:(Sim.Link.Constant 1000.) ~record_queue:true ()
  in
  let served = ref [] in
  Sim.Link.set_on_dequeue link (fun p -> served := p.Sim.Packet.seq :: !served);
  ignore (Sim.Link.enqueue link (mk_pkt 0));
  ignore (Sim.Link.enqueue link (mk_pkt 1));
  Sim.Event_queue.run eq;
  Alcotest.(check (list int)) "fifo order" [ 0; 1 ] (List.rev !served);
  check_float "service time" 2. (Sim.Event_queue.now eq);
  Alcotest.(check int) "delivered bytes" 2000 (Sim.Link.delivered_bytes link)

let test_link_drop_tail () =
  let eq = Sim.Event_queue.create () in
  let link =
    Sim.Link.create ~eq ~rate:(Sim.Link.Constant 1000.) ~buffer:2500
      ~record_queue:false ()
  in
  Sim.Link.set_on_dequeue link (fun _ -> ());
  Alcotest.(check bool) "first fits" true (Sim.Link.enqueue link (mk_pkt 0) = `Enqueued);
  Alcotest.(check bool) "second fits" true (Sim.Link.enqueue link (mk_pkt 1) = `Enqueued);
  Alcotest.(check bool) "third dropped" true (Sim.Link.enqueue link (mk_pkt 2) = `Dropped);
  Alcotest.(check int) "drop count" 1 (Sim.Link.drops link)

let test_link_queue_delay () =
  let eq = Sim.Event_queue.create () in
  let link =
    Sim.Link.create ~eq ~rate:(Sim.Link.Constant 1000.) ~record_queue:false ()
  in
  Sim.Link.set_on_dequeue link (fun _ -> ());
  ignore (Sim.Link.enqueue link (mk_pkt 0));
  ignore (Sim.Link.enqueue link (mk_pkt 1));
  check_float "two packets queued" 2. (Sim.Link.queue_delay link)

let test_link_counters_under_full_buffer () =
  (* Hammer a full buffer and check every counter: drops, dropped bytes,
     offered bytes, ECN marks, and the conservation identity the
     invariant monitor relies on. *)
  let eq = Sim.Event_queue.create () in
  let link =
    Sim.Link.create ~eq ~rate:(Sim.Link.Constant 1000.) ~buffer:3000
      ~ecn_threshold:1000 ~record_queue:false ()
  in
  Sim.Link.set_on_dequeue link (fun _ -> ());
  for seq = 0 to 9 do
    ignore (Sim.Link.enqueue link (mk_pkt seq))
  done;
  (* 3 admitted (3000-byte buffer), 7 dropped at the tail. *)
  Alcotest.(check int) "drops" 7 (Sim.Link.drops link);
  Alcotest.(check int) "dropped bytes" 7000 (Sim.Link.dropped_bytes link);
  Alcotest.(check int) "offered bytes" 10_000 (Sim.Link.offered_bytes link);
  Alcotest.(check int) "queued bytes" 3000 (Sim.Link.queued_bytes link);
  (* Arrivals strictly above the 1000-byte threshold get CE-marked: only
     the 3rd admitted packet saw a 2000-byte queue. *)
  Alcotest.(check int) "ce marks" 1 (Sim.Link.ce_marks link);
  Sim.Event_queue.run eq;
  Alcotest.(check int) "delivered bytes" 3000 (Sim.Link.delivered_bytes link);
  Alcotest.(check int) "conservation" (Sim.Link.offered_bytes link)
    (Sim.Link.delivered_bytes link + Sim.Link.dropped_bytes link
    + Sim.Link.queued_bytes link)

let test_link_set_buffer () =
  (* Shrinking below the occupancy never evicts; it only blocks new
     admissions until the queue drains below the new cap. *)
  let eq = Sim.Event_queue.create () in
  let link =
    Sim.Link.create ~eq ~rate:(Sim.Link.Constant 1000.) ~buffer:3000
      ~record_queue:false ()
  in
  Sim.Link.set_on_dequeue link (fun _ -> ());
  for seq = 0 to 2 do
    ignore (Sim.Link.enqueue link (mk_pkt seq))
  done;
  Alcotest.(check int) "full" 3000 (Sim.Link.queued_bytes link);
  Sim.Link.set_buffer link (Some 1000);
  Alcotest.(check bool) "no eviction" true (Sim.Link.queued_bytes link = 3000);
  Alcotest.(check bool) "admission blocked" true
    (Sim.Link.enqueue link (mk_pkt 3) = `Dropped);
  Alcotest.(check (option int)) "accessor" (Some 1000) (Sim.Link.buffer link);
  Alcotest.(check bool) "rejects negative" true
    (try Sim.Link.set_buffer link (Some (-1)); false
     with Invalid_argument _ -> true)

(* More link properties *)

let prop_link_conserves_bytes =
  QCheck.Test.make ~name:"link conserves bytes (in = out + queued + dropped)"
    ~count:100
    QCheck.(list_of_size Gen.(1 -- 30) (pair (float_range 0. 1.) (int_range 100 2000)))
    (fun arrivals ->
      let eq = Sim.Event_queue.create () in
      let link =
        Sim.Link.create ~eq ~rate:(Sim.Link.Constant 10_000.) ~buffer:5_000
          ~record_queue:false ()
      in
      let delivered = ref 0 in
      Sim.Link.set_on_dequeue link (fun p -> delivered := !delivered + p.Sim.Packet.size);
      let sent = ref 0 and dropped = ref 0 in
      let arrivals = List.sort (fun (a, _) (b, _) -> Float.compare a b) arrivals in
      List.iteri
        (fun i (t, size) ->
          Sim.Event_queue.schedule eq ~at:t (fun () ->
              sent := !sent + size;
              match Sim.Link.enqueue link (mk_pkt ~size i) with
              | `Dropped -> dropped := !dropped + size
              | `Enqueued -> ()))
        arrivals;
      Sim.Event_queue.run eq;
      (* After the queue drains completely: *)
      !sent = !delivered + !dropped && Sim.Link.queued_bytes link = 0)

let prop_transmit_end_consistent_with_rate =
  QCheck.Test.make
    ~name:"piecewise transmit_end delivers exactly the requested bytes" ~count:200
    QCheck.(triple (float_range 0. 5.) (int_range 1 100_000)
              (list_of_size Gen.(1 -- 5) (float_range 100. 10_000.)))
    (fun (start, bytes, seg_rates) ->
      (* Breakpoints at 1s intervals. *)
      let segs =
        Array.of_list (List.mapi (fun i r -> (float_of_int i, r)) seg_rates)
      in
      let rate = Sim.Link.Piecewise segs in
      let finish = Sim.Link.transmit_end rate ~start ~bytes in
      if not (Float.is_finite finish) then true
      else begin
        (* Numerically integrate the rate over [start, finish]. *)
        let n = 20_000 in
        let dt = (finish -. start) /. float_of_int n in
        let acc = ref 0. in
        for k = 0 to n - 1 do
          let t = start +. ((float_of_int k +. 0.5) *. dt) in
          acc := !acc +. (Sim.Link.rate_at rate t *. dt)
        done;
        Float.abs (!acc -. float_of_int bytes)
        < 0.01 *. Float.max 1. (float_of_int bytes)
      end)

(* Exact cross-check of [transmit_end] against [rate_at]: the rate is
   piecewise constant, so integrating it between consecutive cut points
   (breakpoints clipped to the interval), sampling each piece at its
   midpoint, is exact up to float rounding — no discretization error,
   unlike the sampled property above.  Rates include 0 so outages and the
   dead-tail/infinity branch are exercised. *)
let piecewise_integral rate segs ~t0 ~t1 =
  let cuts =
    Array.to_list (Array.map fst segs)
    |> List.filter (fun c -> c > t0 && c < t1)
    |> List.sort_uniq Float.compare
  in
  let rec go acc = function
    | a :: (b :: _ as rest) ->
        go (acc +. (Sim.Link.rate_at rate ((a +. b) /. 2.) *. (b -. a))) rest
    | _ -> acc
  in
  go 0. ((t0 :: cuts) @ [ t1 ])

let prop_transmit_end_exact_integral =
  QCheck.Test.make
    ~name:"piecewise transmit_end agrees with exact rate_at integral"
    ~count:500
    QCheck.(triple (float_range 0. 6.) (int_range 0 50_000)
              (list_of_size Gen.(1 -- 6)
                 (pair (float_range 0.1 2.) (int_range 0 3))))
    (fun (start, bytes, spec) ->
      (* Irregular breakpoints (cumulative gaps); rates drawn from a set
         containing 0 so zero-rate segments are common. *)
      let rates = [| 0.; 500.; 5_000.; 50_000. |] in
      let t = ref 0. in
      let segs =
        Array.of_list
          (List.map
             (fun (gap, ri) ->
               t := !t +. gap;
               (!t, rates.(ri)))
             spec)
      in
      let rate = Sim.Link.Piecewise segs in
      let finish = Sim.Link.transmit_end rate ~start ~bytes in
      let b = float_of_int bytes in
      if Float.is_finite finish then
        finish >= start
        && Float.abs (piecewise_integral rate segs ~t0:start ~t1:finish -. b)
           <= 1e-6 *. Float.max 1. b
      else begin
        (* [infinity] is only correct when the final segment's rate is 0
           and the finite prefix cannot carry the payload. *)
        let last = fst segs.(Array.length segs - 1) in
        let upto = Float.max last start in
        Sim.Link.rate_at rate (upto +. 1.) = 0.
        && piecewise_integral rate segs ~t0:start ~t1:upto < b
      end)

(* ------------------------------------------------------------------ *)
(* Threshold ECN marking                                               *)
(* ------------------------------------------------------------------ *)

let test_link_ecn_marking () =
  let eq = Sim.Event_queue.create () in
  let link =
    Sim.Link.create ~eq ~rate:(Sim.Link.Constant 1000.) ~ecn_threshold:1500
      ~record_queue:false ()
  in
  Sim.Link.set_on_dequeue link (fun _ -> ());
  let p0 = mk_pkt 0 and p1 = mk_pkt 1 and p2 = mk_pkt 2 in
  ignore (Sim.Link.enqueue link p0);
  ignore (Sim.Link.enqueue link p1);
  ignore (Sim.Link.enqueue link p2);
  Alcotest.(check bool) "first unmarked" false p0.Sim.Packet.ce;
  Alcotest.(check bool) "second unmarked (at threshold)" false p1.Sim.Packet.ce;
  Alcotest.(check bool) "third marked" true p2.Sim.Packet.ce;
  Alcotest.(check int) "mark counter" 1 (Sim.Link.ce_marks link)

(* ------------------------------------------------------------------ *)
(* DRR scheduling                                                      *)
(* ------------------------------------------------------------------ *)

let test_drr_rejects_bad_quantum () =
  let eq = Sim.Event_queue.create () in
  Alcotest.(check bool) "quantum 0 rejected" true
    (try
       ignore
         (Sim.Link.create ~eq ~rate:(Sim.Link.Constant 1.)
            ~discipline:(Sim.Link.Drr { quantum = 0 }) ~record_queue:false ());
       false
     with Invalid_argument _ -> true)

let test_drr_interleaves_backlogged_flows () =
  (* Two flows dump 10 packets each simultaneously; DRR must alternate
     service between them rather than draining flow 0 first. *)
  let eq = Sim.Event_queue.create () in
  let link =
    Sim.Link.create ~eq ~rate:(Sim.Link.Constant 1500.)
      ~discipline:(Sim.Link.Drr { quantum = 1500 }) ~record_queue:false ()
  in
  let order = ref [] in
  Sim.Link.set_on_dequeue link (fun p -> order := p.Sim.Packet.flow :: !order);
  for i = 0 to 9 do
    ignore (Sim.Link.enqueue link (mk_pkt ~flow:0 ~size:1500 i));
    ignore (Sim.Link.enqueue link (mk_pkt ~flow:1 ~size:1500 i))
  done;
  Sim.Event_queue.run eq;
  let order = List.rev !order in
  Alcotest.(check int) "all served" 20 (List.length order);
  (* In any window of 4 consecutive services, both flows appear. *)
  let arr = Array.of_list order in
  for i = 0 to Array.length arr - 4 do
    let window = Array.sub arr i 4 in
    Alcotest.(check bool) "interleaved" true
      (Array.exists (fun f -> f = 0) window && Array.exists (fun f -> f = 1) window)
  done

let test_drr_equal_service_unequal_demand () =
  (* A greedy flow and a modest flow: the modest flow's packets must not
     wait behind the greedy flow's whole backlog. *)
  let eq = Sim.Event_queue.create () in
  let link =
    Sim.Link.create ~eq ~rate:(Sim.Link.Constant 15000.)
      ~discipline:(Sim.Link.Drr { quantum = 1500 }) ~record_queue:false ()
  in
  let finish_time = Hashtbl.create 8 in
  Sim.Link.set_on_dequeue link (fun p ->
      Hashtbl.replace finish_time (p.Sim.Packet.flow, p.Sim.Packet.seq)
        (Sim.Event_queue.now eq));
  (* Greedy: 50 packets; modest: 2 packets, enqueued after the burst. *)
  for i = 0 to 49 do
    ignore (Sim.Link.enqueue link (mk_pkt ~flow:0 ~size:1500 i))
  done;
  for i = 0 to 1 do
    ignore (Sim.Link.enqueue link (mk_pkt ~flow:1 ~size:1500 i))
  done;
  Sim.Event_queue.run eq;
  let modest_done = Hashtbl.find finish_time (1, 1) in
  let greedy_done = Hashtbl.find finish_time (0, 49) in
  (* The modest flow's 2 packets finish within ~5 service slots, not after
     the greedy flow's 50. *)
  Alcotest.(check bool)
    (Printf.sprintf "modest at %.2fs long before greedy at %.2fs" modest_done
       greedy_done)
    true
    (modest_done < 0.6 && greedy_done > 4.9)

let test_drr_work_conserving () =
  (* One flow alone must get the full rate despite the scheduler. *)
  let eq = Sim.Event_queue.create () in
  let link =
    Sim.Link.create ~eq ~rate:(Sim.Link.Constant 1500.)
      ~discipline:(Sim.Link.Drr { quantum = 750 }) ~record_queue:false ()
  in
  let done_ = ref 0 in
  Sim.Link.set_on_dequeue link (fun _ -> incr done_);
  for i = 0 to 4 do
    ignore (Sim.Link.enqueue link (mk_pkt ~flow:3 ~size:1500 i))
  done;
  Sim.Event_queue.run eq;
  Alcotest.(check int) "all served" 5 !done_;
  Alcotest.(check (float 1e-6)) "at full rate" 5. (Sim.Event_queue.now eq)

(* ------------------------------------------------------------------ *)
(* Flow behaviors                                                      *)
(* ------------------------------------------------------------------ *)

let test_flow_rto_fires () =
  (* A link that dies after the first packets: the flow must declare the
     outstanding data lost via its retransmission timer and tell the CCA. *)
  let rate = Sim.Link.Piecewise [| (0., 1.5e5); (0.05, 0.) |] in
  let cfg =
    Sim.Network.config ~rate ~rm:0.02 ~duration:3.
      [ Sim.Network.flow (Reno.make ()) ]
  in
  let net = Sim.Network.run_config cfg in
  let f = (Sim.Network.flows net).(0) in
  Alcotest.(check bool) "losses recorded" true (Sim.Flow.lost_bytes f > 0);
  (* The flow keeps probing the dead link with its post-timeout window, so
     in-flight data is bounded by that one-segment window (plus the probe
     in the queue), not by the original flight. *)
  Alcotest.(check bool) "inflight collapsed to the timeout window" true
    (Sim.Flow.inflight f <= 2 * 1500)

let test_flow_initial_pacing_spreads_sends () =
  (* With initial pacing at the link rate, the queue should never build
     during the first flight. *)
  let rate = Sim.Units.mbps 12. in
  let run pacing =
    let spec =
      Sim.Network.flow ?initial_pacing:pacing (Const_cwnd.make ~cwnd_packets:1000. ())
    in
    let cfg =
      Sim.Network.config ~rate:(Sim.Link.Constant rate) ~rm:0.04 ~duration:0.5
        ~record_queue:true [ spec ]
    in
    let net = Sim.Network.run_config cfg in
    (* Initial pacing only covers the opening flight (until the first ACK
       at ~Rm), so compare queue peaks within that window. *)
    let qs =
      Sim.Series.window_values
        (Sim.Link.queue_series (Sim.Network.link net))
        ~t0:0. ~t1:0.03
    in
    Array.fold_left Float.max 0. qs
  in
  let burst_peak = run None in
  let paced_peak = run (Some rate) in
  Alcotest.(check bool)
    (Printf.sprintf "paced peak %.0f << burst peak %.0f" paced_peak burst_peak)
    true
    (paced_peak < burst_peak /. 10.)

let test_flow_dupack_loss_detection () =
  (* Drop exactly one packet mid-stream: packet-threshold detection must
     report one dup-ack loss, not a timeout. *)
  let losses = ref [] in
  let base = Reno.make () in
  let cca =
    { base with
      Cca.on_loss = (fun l -> losses := l :: !losses; base.Cca.on_loss l) }
  in
  let rate = Sim.Units.mbps 12. in
  let spec = Sim.Network.flow ~loss_rate:0.002 cca in
  let cfg =
    Sim.Network.config ~rate:(Sim.Link.Constant rate) ~rm:0.02 ~duration:5. [ spec ]
  in
  ignore (Sim.Network.run_config cfg);
  Alcotest.(check bool) "some losses" true (!losses <> []);
  Alcotest.(check bool) "all dupack, no timeout" true
    (List.for_all (fun (l : Cca.loss_info) -> l.kind = `Dupack) !losses);
  Alcotest.(check bool) "send times attached" true
    (List.for_all (fun (l : Cca.loss_info) -> l.lost_packets <> []) !losses)

let test_flow_ce_propagates () =
  (* ECN marks set by the link must reach the CCA via ack_info. *)
  let saw_ce = ref false in
  let base = Const_cwnd.make ~cwnd_packets:1000. () in
  let cca =
    { base with
      Cca.on_ack = (fun a -> if a.Cca.ecn_ce then saw_ce := true) }
  in
  let rate = Sim.Units.mbps 4. in
  let cfg =
    Sim.Network.config ~rate:(Sim.Link.Constant rate) ~ecn_threshold:3000 ~rm:0.02
      ~duration:2.
      [ Sim.Network.flow cca ]
  in
  ignore (Sim.Network.run_config cfg);
  Alcotest.(check bool) "CE echoed to sender" true !saw_ce

(* ------------------------------------------------------------------ *)
(* Units                                                               *)
(* ------------------------------------------------------------------ *)

let test_units_roundtrip () =
  check_float_eps 1e-9 "mbps" 12. (Sim.Units.to_mbps (Sim.Units.mbps 12.));
  check_float_eps 1e-9 "ms" 42. (Sim.Units.to_ms (Sim.Units.ms 42.));
  Alcotest.(check int) "bdp" 60000
    (Sim.Units.bdp_bytes ~rate:(Sim.Units.mbps 12.) ~rtt:0.04)

(* ------------------------------------------------------------------ *)
(* Network integration                                                 *)
(* ------------------------------------------------------------------ *)

let run_single ?buffer ?(duration = 20.) ?(rm = 0.04) ?(rate = Sim.Units.mbps 12.)
    ?jitter ?jitter_bound ?ack_policy ?loss_rate cca =
  let spec = Sim.Network.flow ?jitter ?jitter_bound ?ack_policy ?loss_rate cca in
  Sim.Network.run_config
    (Sim.Network.config ~rate:(Sim.Link.Constant rate) ?buffer ~rm ~duration [ spec ])

let test_network_reno_utilizes () =
  let rate = Sim.Units.mbps 12. in
  let buffer = Sim.Units.bdp_bytes ~rate ~rtt:0.04 in
  let net = run_single ~buffer (Reno.make ()) in
  let u = Sim.Network.utilization net () in
  Alcotest.(check bool) (Printf.sprintf "reno utilization %.2f > 0.8" u) true (u > 0.8)

let test_network_vegas_queue_target () =
  let net = run_single (Vegas.make ()) in
  let f = (Sim.Network.flows net).(0) in
  (* At 12 Mbit/s one packet takes 1 ms; Vegas keeps 2..4 packets queued,
     plus the packet's own transmission time in the RTT. *)
  let rtts = Sim.Series.window_values (Sim.Flow.rtt_series f) ~t0:15. ~t1:20. in
  let mx = Array.fold_left Float.max 0. rtts in
  let mn = Array.fold_left Float.min infinity rtts in
  Alcotest.(check bool) "rtt stable in [42,46] ms" true
    (mn >= 0.041 && mx <= 0.0461)

let test_network_rtt_floor () =
  (* No queueing: RTT can never fall below Rm + transmission time. *)
  let net = run_single (Const_cwnd.make ~cwnd_packets:2. ()) in
  let f = (Sim.Network.flows net).(0) in
  let rtts = Sim.Series.values (Sim.Flow.rtt_series f) in
  let mn = Array.fold_left Float.min infinity rtts in
  let tx = 1500. /. Sim.Units.mbps 12. in
  Alcotest.(check bool) "floor respected" true (mn >= 0.04 +. tx -. 1e-9)

let test_network_two_flows_share () =
  let rate = Sim.Units.mbps 12. in
  let buffer = Sim.Units.bdp_bytes ~rate ~rtt:0.04 in
  let cfg =
    Sim.Network.config ~rate:(Sim.Link.Constant rate) ~buffer ~rm:0.04 ~duration:60.
      [ Sim.Network.flow (Reno.make ()); Sim.Network.flow (Reno.make ()) ]
  in
  let net = Sim.Network.run_config cfg in
  let xs = Sim.Network.throughputs net () in
  let ratio = Float.max xs.(0) xs.(1) /. Float.min xs.(0) xs.(1) in
  Alcotest.(check bool)
    (Printf.sprintf "reno/reno ratio %.2f < 2" ratio)
    true (ratio < 2.)

let test_network_constant_jitter_inflates_rtt () =
  let net =
    run_single ~jitter:(Sim.Jitter.Constant 0.01) ~jitter_bound:0.02
      (Const_cwnd.make ~cwnd_packets:2. ())
  in
  let f = (Sim.Network.flows net).(0) in
  let rtts = Sim.Series.window_values (Sim.Flow.rtt_series f) ~t0:10. ~t1:20. in
  let mn = Array.fold_left Float.min infinity rtts in
  Alcotest.(check bool) "rtt >= rm + jitter" true (mn >= 0.05)

let test_network_random_loss_counted () =
  let net = run_single ~loss_rate:0.1 ~duration:10. (Const_cwnd.make ()) in
  Alcotest.(check bool) "losses happened" true ((Sim.Network.random_losses net).(0) > 0)

let test_network_delayed_ack_timeout_flush () =
  (* A 2-packet window with delayed ACKs of 4 would deadlock without the
     timeout flush: the receiver holds 2 ACKs < count, the sender stalls.
     The timeout must release them and keep the flow alive. *)
  let spec =
    Sim.Network.flow
      ~ack_policy:(Sim.Network.Delayed { count = 4; timeout = 0.05 })
      (Const_cwnd.make ~cwnd_packets:2. ())
  in
  let cfg =
    Sim.Network.config ~rate:(Sim.Link.Constant (Sim.Units.mbps 12.)) ~rm:0.04
      ~duration:5. [ spec ]
  in
  let net = Sim.Network.run_config cfg in
  let f = (Sim.Network.flows net).(0) in
  Alcotest.(check bool) "flow made progress" true (Sim.Flow.delivered_bytes f > 30_000)

let test_network_delayed_ack_batches () =
  (* With delayed ACKs of 4, the number of ACK events is about 1/4 the
     packets; cumulative delivered bytes must still match. *)
  let spec =
    Sim.Network.flow
      ~ack_policy:(Sim.Network.Delayed { count = 4; timeout = 0.5 })
      (Const_cwnd.make ~cwnd_packets:8. ())
  in
  let cfg =
    Sim.Network.config ~rate:(Sim.Link.Constant (Sim.Units.mbps 12.)) ~rm:0.04
      ~duration:10. [ spec ]
  in
  let net = Sim.Network.run_config cfg in
  let f = (Sim.Network.flows net).(0) in
  let acks = Sim.Series.length (Sim.Flow.rtt_series f) in
  let delivered_pkts = Sim.Flow.delivered_bytes f / 1500 in
  Alcotest.(check bool)
    (Printf.sprintf "acks %d ~ packets/4 %d" acks (delivered_pkts / 4))
    true
    (acks <= (delivered_pkts / 4) + 8)

let test_network_ack_aggregation_quantizes () =
  let period = 0.06 in
  let spec =
    Sim.Network.flow ~ack_policy:(Sim.Network.Aggregate { period })
      (Const_cwnd.make ~cwnd_packets:4. ())
  in
  let cfg =
    Sim.Network.config ~rate:(Sim.Link.Constant (Sim.Units.mbps 12.)) ~rm:0.04
      ~duration:10. [ spec ]
  in
  let net = Sim.Network.run_config cfg in
  let f = (Sim.Network.flows net).(0) in
  let times = Sim.Series.times (Sim.Flow.rtt_series f) in
  let on_grid t =
    let k = Float.round (t /. period) in
    Float.abs (t -. (k *. period)) < 1e-6
  in
  Alcotest.(check bool) "all acks on the grid" true (Array.for_all on_grid times)

let test_network_initial_queue_delays_first_rtt () =
  (* Phantom bytes create an initial standing queue. *)
  let spec = Sim.Network.flow (Const_cwnd.make ~cwnd_packets:1. ()) in
  let rate = Sim.Units.mbps 12. in
  let cfg =
    Sim.Network.config ~rate:(Sim.Link.Constant rate) ~rm:0.04 ~duration:5.
      ~initial_queue_bytes:15000 [ spec ]
  in
  let net = Sim.Network.run_config cfg in
  let f = (Sim.Network.flows net).(0) in
  match Sim.Series.first (Sim.Flow.rtt_series f) with
  | None -> Alcotest.fail "no rtt sample"
  | Some (_, rtt) ->
      (* 15000 B at 1.5e6 B/s = 10 ms of initial queueing. *)
      Alcotest.(check bool)
        (Printf.sprintf "first rtt %.4f >= 0.05" rtt)
        true (rtt >= 0.05)

let test_network_ack_policy_validation () =
  let mk policy =
    Sim.Network.config ~rate:(Sim.Link.Constant 1e6) ~rm:0.01 ~duration:1.
      [ Sim.Network.flow ~ack_policy:policy (Reno.make ()) ]
  in
  let rejects p = try ignore (mk p); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "delayed count 0" true
    (rejects (Sim.Network.Delayed { count = 0; timeout = 0.01 }));
  Alcotest.(check bool) "delayed timeout 0" true
    (rejects (Sim.Network.Delayed { count = 2; timeout = 0. }));
  Alcotest.(check bool) "delayed timeout nan" true
    (rejects (Sim.Network.Delayed { count = 2; timeout = Float.nan }));
  Alcotest.(check bool) "aggregate period 0" true
    (rejects (Sim.Network.Aggregate { period = 0. }));
  Alcotest.(check bool) "aggregate negative period" true
    (rejects (Sim.Network.Aggregate { period = -0.1 }));
  ignore (mk (Sim.Network.Delayed { count = 2; timeout = 0.01 }));
  ignore (mk (Sim.Network.Aggregate { period = 0.02 }));
  ignore (mk Sim.Network.Immediate)

(* Every number is checked NaN-safely and the error names the field.
   Without the checks a NaN duration ended the run at once with the
   clock at NaN, a NaN loss_rate ran lossless, a NaN initial_pacing was
   ignored, mss = 0 grew memory without bound, a NaN
   or zero Constant rate delivered nothing, NaN rm, extra_rm, t0 and
   start_time failed late without naming the field, and a NaN scheduler
   start let every later event pass the "before now" check.  Per-flow
   fields are checked by [flow] and again by [config], which also sees
   specs edited with record syntax. *)
let test_network_config_validation () =
  let good = Sim.Network.flow (Reno.make ()) in
  let cfg ?(rate = Sim.Link.Constant (Sim.Units.mbps 24.)) ?buffer
      ?ecn_threshold ?(rm = 0.02) ?t0 ?(duration = 2.) ?monitor_period
      ?initial_queue_bytes ?(flows = [ good ]) () =
    ignore
      (Sim.Network.config ~rate ?buffer ?ecn_threshold ~rm ?t0 ~duration
         ?monitor_period ?initial_queue_bytes flows)
  in
  let link ?buffer ?ecn_threshold () =
    ignore
      (Sim.Link.create ~eq:(Sim.Event_queue.create ())
         ~rate:(Sim.Link.Constant 1e6) ?buffer ?ecn_threshold
         ~record_queue:false ())
  in
  let rejects (name, fn, field, f) =
    match f () with
    | () -> Alcotest.failf "%s accepted" name
    | exception Invalid_argument msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %S names %s" name msg field)
          true
          (String.starts_with ~prefix:(fn ^ ": " ^ field) msg)
  in
  let config name field f = (name, "Network.config", field, f) in
  let per_flow =
    let open Sim.Network in
    [
      ( "start_time nan", "start_time",
        (fun c -> flow ~start_time:nan c),
        fun s -> { s with start_time = nan } );
      ( "start_time inf", "start_time",
        (fun c -> flow ~start_time:infinity c),
        fun s -> { s with start_time = infinity } );
      ( "extra_rm nan", "extra_rm",
        (fun c -> flow ~extra_rm:nan c),
        fun s -> { s with extra_rm = nan } );
      ( "extra_rm inf", "extra_rm",
        (fun c -> flow ~extra_rm:infinity c),
        fun s -> { s with extra_rm = infinity } );
      ( "extra_rm -1", "extra_rm",
        (fun c -> flow ~extra_rm:(-1.) c),
        fun s -> { s with extra_rm = -1. } );
      ( "jitter_bound nan", "jitter_bound",
        (fun c -> flow ~jitter_bound:nan c),
        fun s -> { s with jitter_bound = nan } );
      ( "jitter_bound -1", "jitter_bound",
        (fun c -> flow ~jitter_bound:(-1.) c),
        fun s -> { s with jitter_bound = -1. } );
      ( "ack timeout nan", "ack_policy",
        (fun c -> flow ~ack_policy:(Delayed { count = 2; timeout = nan }) c),
        fun s -> { s with ack_policy = Delayed { count = 2; timeout = nan } } );
      ( "loss_rate nan", "loss_rate",
        (fun c -> flow ~loss_rate:nan c),
        fun s -> { s with loss_rate = nan } );
      ( "loss_rate -0.1", "loss_rate",
        (fun c -> flow ~loss_rate:(-0.1) c),
        fun s -> { s with loss_rate = -0.1 } );
      ( "loss_rate 1", "loss_rate",
        (fun c -> flow ~loss_rate:1. c),
        fun s -> { s with loss_rate = 1. } );
      ("mss 0", "mss", (fun c -> flow ~mss:0 c), fun s -> { s with mss = 0 });
      ( "initial_pacing nan", "initial_pacing",
        (fun c -> flow ~initial_pacing:nan c),
        fun s -> { s with initial_pacing = Some nan } );
      ( "initial_pacing 0", "initial_pacing",
        (fun c -> flow ~initial_pacing:0. c),
        fun s -> { s with initial_pacing = Some 0. } );
      ( "initial_pacing inf", "initial_pacing",
        (fun c -> flow ~initial_pacing:infinity c),
        fun s -> { s with initial_pacing = Some infinity } );
      ( "size_bytes 0", "size_bytes",
        (fun c -> flow ~size_bytes:0 c),
        fun s -> { s with size_bytes = Some 0 } );
    ]
  in
  List.iter
    (fun (name, field, via_flow, via_record) ->
      rejects
        ( name ^ " (flow)", "Network.flow", field,
          fun () -> ignore (via_flow (Reno.make ())) );
      rejects
        (config (name ^ " (record)") field (fun () ->
             cfg ~flows:[ via_record good ] ())))
    per_flow;
  List.iter rejects
    [
      config "no flows" "flows" (fun () -> cfg ~flows:[] ());
      config "rate nan" "rate" (fun () ->
          cfg ~rate:(Sim.Link.Constant nan) ());
      config "rate 0" "rate" (fun () -> cfg ~rate:(Sim.Link.Constant 0.) ());
      config "rate -1" "rate" (fun () -> cfg ~rate:(Sim.Link.Constant (-1.)) ());
      config "rate inf" "rate" (fun () ->
          cfg ~rate:(Sim.Link.Constant infinity) ());
      config "buffer -1" "buffer" (fun () -> cfg ~buffer:(-1) ());
      config "ecn_threshold -5" "ecn_threshold" (fun () ->
          cfg ~ecn_threshold:(-5) ());
      ( "link buffer -1", "Link.create", "buffer",
        fun () -> link ~buffer:(-1) () );
      ( "link ecn_threshold -5", "Link.create", "ecn_threshold",
        fun () -> link ~ecn_threshold:(-5) () );
      config "duration nan" "duration" (fun () -> cfg ~duration:nan ());
      config "duration inf" "duration" (fun () -> cfg ~duration:infinity ());
      config "duration 0" "duration" (fun () -> cfg ~duration:0. ());
      config "rm nan" "rm" (fun () -> cfg ~rm:nan ());
      config "rm inf" "rm" (fun () -> cfg ~rm:infinity ());
      config "rm -0.1" "rm" (fun () -> cfg ~rm:(-0.1) ());
      config "t0 nan" "t0" (fun () -> cfg ~t0:nan ());
      config "t0 inf" "t0" (fun () -> cfg ~t0:infinity ());
      config "initial_queue_bytes -1" "initial_queue_bytes" (fun () ->
          cfg ~initial_queue_bytes:(-1) ());
      config "monitor_period nan" "monitor_period" (fun () ->
          cfg ~monitor_period:nan ());
      config "monitor_period 0" "monitor_period" (fun () ->
          cfg ~monitor_period:0. ());
      ( "scheduler start nan", "Event_queue.create", "start",
        fun () -> ignore (Sim.Event_queue.create ~start:nan ()) );
      ( "scheduler start inf", "Event_queue.create", "start",
        fun () -> ignore (Sim.Event_queue.create ~start:infinity ()) );
    ];
  (* A zero buffer and a zero ECN threshold stay legal. *)
  cfg ~buffer:0 ~ecn_threshold:0 ();
  link ~buffer:0 ~ecn_threshold:0 ();
  (* The boundaries stay legal and run: no propagation delay, no loss,
     the default unbounded jitter bound, a start before [t0] (clamped to
     it), and a Piecewise rate that pauses at 0. *)
  let net =
    Sim.Network.run_config
      (Sim.Network.config
         ~rate:
           (Sim.Link.Piecewise
              [| (0., Sim.Units.mbps 24.); (1.1, 0.); (1.2, Sim.Units.mbps 24.) |])
         ~rm:0. ~t0:1. ~duration:0.5
         [
           Sim.Network.flow ~start_time:0. ~loss_rate:0. ~extra_rm:0.01
             (Reno.make ());
         ])
  in
  Alcotest.(check bool) "boundary config delivers" true
    (Sim.Flow.delivered_bytes (Sim.Network.flows net).(0) > 0)

let test_network_deterministic () =
  let mk () =
    let rate = Sim.Units.mbps 12. in
    let buffer = Sim.Units.bdp_bytes ~rate ~rtt:0.04 in
    Sim.Network.run_config
      (Sim.Network.config ~rate:(Sim.Link.Constant rate) ~buffer ~rm:0.04
         ~duration:20. ~seed:9
         [
           Sim.Network.flow ~loss_rate:0.01 (Reno.make ());
           Sim.Network.flow (Cubic.make ());
         ])
  in
  let a = Sim.Network.throughputs (mk ()) () in
  let b = Sim.Network.throughputs (mk ()) () in
  check_float "flow0 identical" a.(0) b.(0);
  check_float "flow1 identical" a.(1) b.(1)

(* The state hash tells states apart.  The fuzzer's determinism oracle
   only checks that two hashes agree, which a constant hash would pass,
   so: two runs of one config hash equal at mid-horizon and at the
   horizon, another seed hashes differently, and so does the same run
   at mid-horizon against the horizon.  The 300 staggered flows keep
   hundreds of events pending, so their mid-run hash folds a deep
   heap; the two-flow case folds a handful. *)
let test_network_state_hash_separates () =
  let rate = Sim.Units.mbps 12. in
  let two_flows ~seed =
    Sim.Network.config ~rate:(Sim.Link.Constant rate) ~buffer:(48 * 1500)
      ~rm:0.04 ~seed ~duration:2.
      [
        Sim.Network.flow ~loss_rate:0.01
          ~jitter:(Sim.Jitter.Uniform { lo = 0.; hi = 0.01 })
          ~jitter_bound:0.02 (Reno.make ());
        Sim.Network.flow (Cubic.make ());
      ]
  in
  let staggered ~seed =
    Sim.Network.config
      ~rate:(Sim.Link.Constant (Sim.Units.mbps 48.))
      ~buffer:(48 * 1500) ~rm:0.04 ~seed ~duration:2.
      (List.init 300 (fun i ->
           Sim.Network.flow ~loss_rate:0.001 ~record_series:false
             ~start_time:(float_of_int i *. 0.003)
             (if i mod 2 = 0 then Reno.make () else Copa.make ())))
  in
  let hashes mk ~seed =
    let net = Sim.Network.build (mk ~seed) in
    Sim.Network.run_to net 1.;
    let mid = Sim.Network.state_hash net in
    (mid, Sim.Network.state_hash (Sim.Network.run net))
  in
  List.iter
    (fun (name, mk) ->
      let mid, final = hashes mk ~seed:1 in
      let mid', final' = hashes mk ~seed:1 in
      let other_mid, other_final = hashes mk ~seed:2 in
      Alcotest.(check string) (name ^ ": same config, same mid-run hash") mid
        mid';
      Alcotest.(check string) (name ^ ": same config, same final hash") final
        final';
      Alcotest.(check bool) (name ^ ": another seed, another mid-run hash")
        true (mid <> other_mid);
      Alcotest.(check bool) (name ^ ": another seed, another final hash") true
        (final <> other_final);
      Alcotest.(check bool) (name ^ ": mid-run hash differs from the horizon's")
        true (mid <> final))
    [ ("2 flows", two_flows); ("300 staggered", staggered) ]

let test_network_accessor_lengths () =
  let cfg =
    Sim.Network.config ~rate:(Sim.Link.Constant 1e6) ~rm:0.01 ~duration:1.
      [ Sim.Network.flow (Reno.make ()); Sim.Network.flow (Reno.make ());
        Sim.Network.flow (Reno.make ()) ]
  in
  let net = Sim.Network.run_config cfg in
  Alcotest.(check int) "flows" 3 (Array.length (Sim.Network.flows net));
  Alcotest.(check int) "jitters" 3 (Array.length (Sim.Network.jitters net));
  Alcotest.(check int) "random losses" 3 (Array.length (Sim.Network.random_losses net));
  Array.iter
    (fun n -> Alcotest.(check int) "no random losses configured" 0 n)
    (Sim.Network.random_losses net);
  Alcotest.(check int) "throughputs" 3
    (Array.length (Sim.Network.throughputs net ()))

(* Integration property: random small scenarios must respect physical
   invariants — capacity, nonnegative inflight, RTT floor. *)
let prop_network_physical_invariants =
  QCheck.Test.make ~name:"random scenarios respect capacity and RTT floor" ~count:25
    QCheck.(
      quad (int_range 0 3) (* cca selector *)
        (float_range 2. 24.) (* Mbit/s *)
        (float_range 0.005 0.08) (* rm *)
        (float_range 0. 0.01) (* jitter bound *))
    (fun (cca_i, mbps, rm, jit) ->
      let make_cca () =
        match cca_i with
        | 0 -> Reno.make ()
        | 1 -> Vegas.make ()
        | 2 -> Copa.make ()
        | _ -> Fast_tcp.make ()
      in
      let rate = Sim.Units.mbps mbps in
      let duration = 5. in
      let jitter =
        if jit > 0. then Some (Sim.Jitter.Uniform { lo = 0.; hi = jit }) else None
      in
      let cfg =
        Sim.Network.config ~rate:(Sim.Link.Constant rate)
          ~buffer:(4 * Sim.Units.bdp_bytes ~rate ~rtt:rm)
          ~rm ~duration
          [
            Sim.Network.flow ?jitter ~jitter_bound:jit (make_cca ());
            Sim.Network.flow (make_cca ());
          ]
      in
      let net = Sim.Network.run_config cfg in
      let flows = Sim.Network.flows net in
      let total_delivered =
        Array.fold_left (fun acc f -> acc + Sim.Flow.delivered_bytes f) 0 flows
      in
      (* Capacity: the link can serve at most rate * duration (+1 pkt). *)
      let capacity_ok = float_of_int total_delivered <= (rate *. duration) +. 1500. in
      let inflight_ok = Array.for_all (fun f -> Sim.Flow.inflight f >= 0) flows in
      let floor = rm +. (1500. /. rate) -. 1e-9 in
      let rtt_ok =
        Array.for_all
          (fun f ->
            Array.for_all (fun v -> v >= floor)
              (Sim.Series.values (Sim.Flow.rtt_series f)))
          flows
      in
      capacity_ok && inflight_ok && rtt_ok)

(* ------------------------------------------------------------------ *)
(* Event-queue handles                                                 *)
(* ------------------------------------------------------------------ *)

let test_eq_handle_reschedule () =
  let eq = Sim.Event_queue.create () in
  let fired = ref [] in
  let h = Sim.Event_queue.handle (fun () -> fired := "h" :: !fired) in
  Alcotest.(check bool) "idle" false (Sim.Event_queue.is_scheduled h);
  Sim.Event_queue.schedule_handle eq h ~at:5.0;
  Alcotest.(check bool) "scheduled" true (Sim.Event_queue.is_scheduled h);
  check_float "time" 5.0 (Sim.Event_queue.scheduled_time eq h);
  (* Moving an armed handle must not duplicate it. *)
  Sim.Event_queue.schedule_handle eq h ~at:2.0;
  Alcotest.(check int) "one entry" 1 (Sim.Event_queue.pending eq);
  Sim.Event_queue.schedule eq ~at:3.0 (fun () -> fired := "x" :: !fired);
  Sim.Event_queue.run eq;
  Alcotest.(check (list string)) "moved before x" [ "h"; "x" ] (List.rev !fired);
  Alcotest.(check bool) "idle after fire" false (Sim.Event_queue.is_scheduled h)

let test_eq_handle_cancel () =
  let eq = Sim.Event_queue.create () in
  let fired = ref [] in
  let h = Sim.Event_queue.handle (fun () -> fired := "h" :: !fired) in
  Sim.Event_queue.schedule_handle eq h ~at:1.0;
  Sim.Event_queue.schedule eq ~at:2.0 (fun () -> fired := "x" :: !fired);
  Sim.Event_queue.cancel eq h;
  Alcotest.(check bool) "idle after cancel" false (Sim.Event_queue.is_scheduled h);
  (* Physical deletion: the cancelled entry no longer counts as pending. *)
  Alcotest.(check int) "pending" 1 (Sim.Event_queue.pending eq);
  Sim.Event_queue.run eq;
  Alcotest.(check (list string)) "only x" [ "x" ] (List.rev !fired);
  check_float "idle scheduled_time" infinity (Sim.Event_queue.scheduled_time eq h)

let test_eq_handle_fifo_ties () =
  (* A moved handle takes a fresh sequence number, so it ties like a
     newly scheduled event: after every earlier-scheduled event at the
     same time. *)
  let eq = Sim.Event_queue.create () in
  let fired = ref [] in
  let h = Sim.Event_queue.handle (fun () -> fired := "h" :: !fired) in
  Sim.Event_queue.schedule_handle eq h ~at:1.0;
  Sim.Event_queue.schedule eq ~at:2.0 (fun () -> fired := "a" :: !fired);
  Sim.Event_queue.schedule_handle eq h ~at:2.0;
  Sim.Event_queue.schedule eq ~at:2.0 (fun () -> fired := "b" :: !fired);
  Sim.Event_queue.run eq;
  Alcotest.(check (list string)) "tie order" [ "a"; "h"; "b" ] (List.rev !fired)

let eq_fold eq =
  let buf = Buffer.create 64 in
  Sim.Event_queue.fold_state buf eq;
  Buffer.contents buf

(* Inside its own action a handle reads idle: [is_scheduled] false,
   [scheduled_time] infinity, not counted by [pending], not folded by
   [fold_state].  [Flow.sync_timer] and [Flow.maybe_send] re-arm a
   handle only when [scheduled_time] says it is not already due by the
   wanted time, so a stale time there would skip the re-arm and stop the
   timer.  The re-arms here go to the same instant, near, far and very
   far; three parked events stay pending throughout. *)
let test_eq_action_sees_idle_handle () =
  let offsets = [| 0.; 1e-6; 1e-4; 0.3; 600.; 1e8 |] and rounds = 30 in
  let eq = Sim.Event_queue.create () in
  let h = Sim.Event_queue.handle ignore in
  let fires = ref 0 and seen = ref [] in
  Sim.Event_queue.set_action h (fun () ->
      incr fires;
      seen :=
        ( Sim.Event_queue.is_scheduled h,
          Sim.Event_queue.scheduled_time eq h,
          Sim.Event_queue.pending eq,
          (* 3 header words, then one (time, seq) pair per entry *)
          (String.length (eq_fold eq) / 8) - 3 )
        :: !seen;
      let want =
        Sim.Event_queue.now eq +. offsets.(!fires mod Array.length offsets)
      in
      if !fires < rounds && not (Sim.Event_queue.scheduled_time eq h <= want)
      then Sim.Event_queue.schedule_handle eq h ~at:want);
  List.iter
    (fun at -> Sim.Event_queue.schedule eq ~at ignore)
    [ 1e12; 2e12; 3e12 ];
  Sim.Event_queue.schedule_handle eq h ~at:0.;
  Sim.Event_queue.run_until eq 1e11;
  Alcotest.(check int) "every re-arm taken" rounds !fires;
  List.iter
    (fun (sched, time, pending, folded) ->
      Alcotest.(check bool) "is_scheduled" false sched;
      check_float "scheduled_time" infinity time;
      Alcotest.(check int) "pending" 3 pending;
      Alcotest.(check int) "fold_state entries" (2 * 3) folded)
    !seen;
  Alcotest.(check int) "parked events left" 3 (Sim.Event_queue.pending eq)

exception Boom

(* An action that raises out of [run_until] leaves no held entry behind:
   [pending], [fold_state] and a later re-arm from outside behave as
   after a plain pop of the same event, here the same trace whose action
   returns.  The action raises only the first time it runs. *)
let test_eq_action_raises () =
  let build raises =
    let eq = Sim.Event_queue.create () in
    let log = ref [] in
    let h = Sim.Event_queue.handle ignore and raised = ref false in
    Sim.Event_queue.set_action h (fun () ->
        log := "h" :: !log;
        if raises && not !raised then begin
          raised := true;
          raise Boom
        end);
    List.iteri
      (fun k at ->
        Sim.Event_queue.schedule eq ~at (fun () ->
            log := string_of_int k :: !log))
      [ 0.5; 1.0; 1.0; 1.0001; 2.0; 1e9 ];
    Sim.Event_queue.schedule_handle eq h ~at:1.0;
    (eq, h, log)
  in
  let a, ha, la = build true and b, hb, lb = build false in
  (match Sim.Event_queue.run_until a 3. with
  | () -> Alcotest.fail "the action did not raise"
  | exception Boom -> ());
  while List.length !lb < List.length !la do
    ignore (Sim.Event_queue.step b)
  done;
  let same what =
    Alcotest.(check (list string)) (what ^ ": fired") !lb !la;
    check_float (what ^ ": now") (Sim.Event_queue.now b)
      (Sim.Event_queue.now a);
    Alcotest.(check int) (what ^ ": pending")
      (Sim.Event_queue.pending b) (Sim.Event_queue.pending a);
    Alcotest.(check bool) (what ^ ": is_scheduled")
      (Sim.Event_queue.is_scheduled hb)
      (Sim.Event_queue.is_scheduled ha);
    check_float (what ^ ": scheduled_time")
      (Sim.Event_queue.scheduled_time b hb)
      (Sim.Event_queue.scheduled_time a ha);
    Alcotest.(check string) (what ^ ": fold_state") (eq_fold b) (eq_fold a)
  in
  same "after the raise";
  Sim.Event_queue.schedule_handle a ha ~at:1.00005;
  Sim.Event_queue.schedule_handle b hb ~at:1.00005;
  same "after a re-arm from outside";
  Sim.Event_queue.run a;
  Sim.Event_queue.run b;
  same "run dry"

(* An action may arm its own handle in another queue and may step its
   own queue.  The other queue's id for the handle can equal the one its
   entry is held under here, which must not make this queue claim it;
   a nested step first drops the held entry, so the firing event does
   not run twice. *)
let test_eq_action_reentry () =
  let a = Sim.Event_queue.create () and b = Sim.Event_queue.create () in
  let log = ref [] and first = ref true in
  let h = Sim.Event_queue.handle ignore in
  Sim.Event_queue.set_action h (fun () ->
      log := "h" :: !log;
      if !first then begin
        first := false;
        Sim.Event_queue.schedule_handle b h ~at:2.;
        (match Sim.Event_queue.cancel a h with
        | () -> log := "a cancelled h" :: !log
        | exception Invalid_argument _ -> ());
        ignore (Sim.Event_queue.step a)
      end);
  Sim.Event_queue.schedule_handle a h ~at:1.;
  Sim.Event_queue.schedule a ~at:1.5 (fun () -> log := "x" :: !log);
  Sim.Event_queue.run a;
  Alcotest.(check (list string)) "h once, x nested" [ "h"; "x" ] (List.rev !log);
  Alcotest.(check (pair int int)) "pending" (0, 1)
    (Sim.Event_queue.pending a, Sim.Event_queue.pending b);
  check_float "armed in b" 2. (Sim.Event_queue.scheduled_time b h);
  Sim.Event_queue.run b;
  Alcotest.(check (list string)) "then h in b" [ "h"; "x"; "h" ] (List.rev !log)

(* ------------------------------------------------------------------ *)
(* Delay line                                                          *)
(* ------------------------------------------------------------------ *)

(* The correctness claim the per-flow delay lines rest on: delivery
   times and order are exactly those of scheduling every payload as its
   own event.  Pushes happen at increasing sim times with arbitrary
   (possibly non-monotone) due offsets, so the fallback path is
   exercised too.  With a monotone due schedule (fallbacks = 0 — the
   only regime Network uses, enforced by Jitter's clamp) the match must
   be exact, ties included.  A fallback event can legitimately order
   differently against a ring re-arm at the very same timestamp, so
   with fallbacks > 0 we require the same per-payload delivery times
   (order within a tie may differ). *)
let prop_delay_line_matches_naive =
  QCheck.Test.make
    ~name:"delay line delivers like naive per-packet scheduling" ~count:300
    QCheck.(list_of_size Gen.(0 -- 30) (pair (int_range 0 5) (int_range 0 3)))
    (fun steps ->
      let run use_line =
        let eq = Sim.Event_queue.create () in
        let log = ref [] in
        let line =
          Sim.Delay_line.create ~eq ~dummy:(-1) (fun k ->
              log := (Sim.Event_queue.now eq, k) :: !log)
        in
        let t = ref 0. in
        List.iteri
          (fun k (offset, gap) ->
            let push_at = !t in
            let due = push_at +. (float_of_int offset *. 0.1) in
            Sim.Event_queue.schedule eq ~at:push_at (fun () ->
                if use_line then Sim.Delay_line.push line ~due k
                else
                  Sim.Event_queue.schedule eq ~at:due (fun () ->
                      log := (Sim.Event_queue.now eq, k) :: !log));
            t := !t +. (float_of_int gap *. 0.1))
          steps;
        Sim.Event_queue.run eq;
        (List.rev !log, Sim.Delay_line.fallbacks line)
      in
      let line_log, fallbacks = run true in
      let naive_log, _ = run false in
      if fallbacks = 0 then line_log = naive_log
      else List.sort compare line_log = List.sort compare naive_log)

let test_delay_line_fallback_counted () =
  let eq = Sim.Event_queue.create () in
  let log = ref [] in
  let line =
    Sim.Delay_line.create ~eq ~dummy:(-1) (fun k ->
        log := (Sim.Event_queue.now eq, k) :: !log)
  in
  Sim.Delay_line.push line ~due:5.0 1;
  (* Non-monotone: would overtake payload 1 inside the ring. *)
  Sim.Delay_line.push line ~due:3.0 2;
  Alcotest.(check int) "fallbacks" 1 (Sim.Delay_line.fallbacks line);
  Alcotest.(check int) "pushes" 2 (Sim.Delay_line.pushes line);
  Sim.Event_queue.run eq;
  Alcotest.(check (list (pair (float 1e-9) int)))
    "delivered in time order" [ (3.0, 2); (5.0, 1) ] (List.rev !log)

let test_delay_line_one_pending_event () =
  let eq = Sim.Event_queue.create () in
  let line = Sim.Delay_line.create ~eq ~dummy:(-1) (fun _ -> ()) in
  for k = 0 to 99 do
    Sim.Delay_line.push line ~due:(float_of_int k) k
  done;
  Alcotest.(check int) "queued" 100 (Sim.Delay_line.length line);
  (* The whole backlog is represented by a single event-queue entry. *)
  Alcotest.(check int) "one event" 1 (Sim.Event_queue.pending eq);
  Sim.Event_queue.run eq;
  Alcotest.(check int) "drained" 0 (Sim.Delay_line.length line)

(* ------------------------------------------------------------------ *)
(* Source                                                              *)
(* ------------------------------------------------------------------ *)

let test_source_poisson_count () =
  (* A Poisson(rate) source over [0, T] generates ~rate*T arrivals;
     5 sigma = 5 sqrt(rate*T) bounds the count with false-positive
     probability < 1e-6. *)
  let eq = Sim.Event_queue.create () in
  let rng = Sim.Rng.create ~seed:5 in
  let rate = 500. and horizon = 20. in
  let src =
    Sim.Source.create ~eq ~rng ~arrivals:(Sim.Source.Poisson { rate })
      ~sizes:(Sim.Source.Fixed 1000) ~until:horizon
      ~send:(fun _ -> ())
      ()
  in
  Sim.Event_queue.run_until eq horizon;
  let expect = rate *. horizon in
  let slack = 5. *. sqrt expect in
  let n = float_of_int (Sim.Source.sent_packets src) in
  Alcotest.(check bool)
    (Printf.sprintf "count %g within %g +/- %g" n expect slack)
    true
    (Float.abs (n -. expect) <= slack);
  Alcotest.(check int) "bytes = 1000 * packets"
    (1000 * Sim.Source.sent_packets src)
    (Sim.Source.sent_bytes src)

(* ------------------------------------------------------------------ *)
(* Event-queue step hook                                               *)
(* ------------------------------------------------------------------ *)

let test_eq_step_hook_observes_every_step () =
  let eq = Sim.Event_queue.create () in
  let seen = ref [] in
  Sim.Event_queue.set_step_hook eq (Some (fun now -> seen := now :: !seen));
  List.iter
    (fun t -> Sim.Event_queue.schedule eq ~at:t (fun () -> ()))
    [ 3.; 1.; 2. ];
  Sim.Event_queue.run eq;
  Alcotest.(check (list (float 0.))) "hook saw the advanced clock, in order"
    [ 1.; 2.; 3. ] (List.rev !seen);
  (* Removing the hook stops observation; no stale closure fires. *)
  Sim.Event_queue.set_step_hook eq None;
  Sim.Event_queue.schedule eq ~at:4. (fun () -> ());
  Sim.Event_queue.run eq;
  Alcotest.(check int) "no observation after removal" 3 (List.length !seen)

(* ------------------------------------------------------------------ *)
(* Hot-path resource envelope                                          *)
(* ------------------------------------------------------------------ *)

let bdp_reno_config ~nflows =
  let rate = Sim.Units.mbps 12. in
  Sim.Network.config ~rate:(Sim.Link.Constant rate)
    ~buffer:(Sim.Units.bdp_bytes ~rate ~rtt:0.04) ~rm:0.04 ~duration:1.
    (List.init nflows (fun _ -> Sim.Network.flow (Reno.make ())))

(* With per-flow delay lines and preallocated timer handles, event-queue
   occupancy is O(flows + link), not O(packets in flight): each flow
   owns at most a data line + ACK line + 3 timers, the link one
   completion slot.  The old per-packet scheduler peaked at 44 entries
   on this exact run. *)
let test_network_event_queue_peak () =
  let net = Sim.Network.build (bdp_reno_config ~nflows:2) in
  let eq = Sim.Network.event_queue net in
  let peak = ref 0 in
  while Sim.Event_queue.now eq < 1.0 && Sim.Event_queue.step eq do
    peak := max !peak (Sim.Event_queue.pending eq)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "peak %d <= 16" !peak)
    true (!peak <= 16);
  Alcotest.(check int) "no delay-line fallbacks" 0
    (Sim.Network.delay_line_fallbacks net)

(* Flows with the same [rm + extra_rm] share one post-bottleneck data
   line that dispatches on [Packet.flow]; a flow with another delay gets
   its own.  Paused at several instants, each flow's in-propagation
   count must equal the bytes it has between link dequeue and receiver
   (the link's per-flow delivered bytes minus what the receiver got), no
   line may have fallen back to per-packet events, and the conservation
   chain built on those counts must hold, under FIFO and under DRR. *)
let test_network_shared_data_line () =
  List.iter
    (fun (name, discipline) ->
      let rate = Sim.Units.mbps 12. in
      let net =
        Sim.Network.build
          (Sim.Network.config ~rate:(Sim.Link.Constant rate) ~discipline
             ~buffer:(Sim.Units.bdp_bytes ~rate ~rtt:0.04) ~rm:0.03 ~duration:3.
             [
               Sim.Network.flow ~extra_rm:0.01 (Reno.make ());
               Sim.Network.flow ~start_time:0.2 ~extra_rm:0.01 (Cubic.make ());
               Sim.Network.flow ~start_time:0.1 ~extra_rm:0.05
                 ~jitter:(Sim.Jitter.Uniform { lo = 0.; hi = 0.01 })
                 ~jitter_bound:0.01 (Reno.make ());
             ])
      in
      let link = Sim.Network.link net in
      let seen_in_prop = Array.make 3 false in
      List.iter
        (fun time ->
          Sim.Network.run_to net time;
          let at = Printf.sprintf "%s t=%g" name time in
          Alcotest.(check int) (at ^ ": no delay-line fallbacks") 0
            (Sim.Network.delay_line_fallbacks net);
          let received = Sim.Network.received_bytes net in
          Array.iteri
            (fun i p ->
              if p > 0 then seen_in_prop.(i) <- true;
              Alcotest.(check int)
                (Printf.sprintf "%s: flow %d propagating bytes" at i)
                (Sim.Link.delivered_bytes_for link ~flow:i - received.(i))
                p)
            (Sim.Network.propagating_bytes net);
          List.iter
            (fun (v : Validate.Oracle.verdict) ->
              if not v.ok then
                Alcotest.failf "%s: %s on %s: expected %g, observed %g" at
                  v.oracle v.scenario v.expected v.observed)
            (Validate.Conservation.verdicts ~scenario:at net))
        [ 0.05; 0.25; 0.7; 1.3; 2.2; 3. ];
      Array.iteri
        (fun i seen ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: flow %d was caught in propagation" name i)
            true seen)
        seen_in_prop)
    [ ("fifo", Sim.Link.Fifo); ("drr", Sim.Link.Drr { quantum = 1500 }) ]

(* [spawn] checks its own numbers, refuses the networks whose per-flow
   state it cannot grow (a fault plan's per-flow arrays, the monitor's
   per-flow audit), and recycles a slot only for a flow of the slot's
   segment size. *)
let test_network_spawn_rejects () =
  let net ?faults ?monitor_period () =
    Sim.Network.build
      (Sim.Network.config ~rate:(Sim.Link.Constant 1e6) ~rm:0.01 ~duration:1.
         ?faults ?monitor_period
         [ Sim.Network.flow (Reno.make ()) ])
  in
  let spawn ?(mss = 1500) ?(size_bytes = 1500) n =
    Sim.Network.spawn n
      ~cca:(fun ~slot:_ ~prev:_ -> Cca.instance_of (Reno.make ()))
      ~jitter:(Sim.Jitter.create ~rng:(Sim.Rng.create ~seed:1) Sim.Jitter.No_jitter)
      ~mss ~size_bytes ~on_complete:ignore
  in
  let rejects name prefix f =
    match f () with
    | _ -> Alcotest.failf "%s accepted" name
    | exception Invalid_argument msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %S" name msg)
          true
          (String.starts_with ~prefix:("Network.spawn: " ^ prefix) msg)
  in
  rejects "faults" "the network has a fault plan" (fun () ->
      spawn
        (net
           ~faults:(Sim.Fault.plan [ Sim.Fault.Link_blackout { t0 = 0.5; t1 = 0.6 } ])
           ()));
  rejects "monitor" "the network has an invariant monitor" (fun () ->
      spawn (net ~monitor_period:0.1 ()));
  rejects "mss 0" "mss" (fun () -> spawn ~mss:0 (net ()));
  rejects "size_bytes 0" "size_bytes" (fun () -> spawn ~size_bytes:0 (net ()));
  let n = net () in
  let first = spawn n in
  Alcotest.(check int) "the spawned flow takes a new slot" 1
    (Sim.Flow.id first);
  Sim.Network.run_to n 0.5;
  Alcotest.(check bool) "the spawned flow completed" true
    (Sim.Flow.completed first);
  rejects "mss of the recycled slot" "mss differs" (fun () ->
      spawn ~mss:1000 n);
  Alcotest.(check int) "the drained slot is recycled" 1
    (Sim.Flow.id (spawn n))

(* Allocation budget: the 1 s Reno run must stay under 80 minor words
   per delivered packet (measured ~32-45 after the allocation-light
   rewrite; the pre-rewrite hot path cost ~166).  Bytecode boxes
   differently, so the budget only binds on the native backend. *)
let test_network_minor_words_budget () =
  match Sys.backend_type with
  | Sys.Native ->
      let cfg = bdp_reno_config ~nflows:1 in
      ignore (Sim.Network.run_config cfg) (* warm up *);
      let w0 = Gc.minor_words () in
      let net = Sim.Network.run_config cfg in
      let minor = Gc.minor_words () -. w0 in
      let pkts = Sim.Flow.delivered_bytes (Sim.Network.flows net).(0) / 1500 in
      let per_pkt = minor /. float_of_int pkts in
      Alcotest.(check bool)
        (Printf.sprintf "%.1f minor words/packet <= 80 over %d packets" per_pkt
           pkts)
        true
        (pkts > 500 && per_pkt <= 80.)
  | Sys.Bytecode | Sys.Other _ -> ()

(* ------------------------------------------------------------------ *)
(* Series readers across chunk boundaries                              *)
(* ------------------------------------------------------------------ *)

(* Rows per storage chunk (series.mli).  The lengths straddle chunk
   boundaries: empty, one row, one short of a chunk, exactly one, one
   past it, and several chunks. *)
let series_chunk = 2048

let series_lengths =
  let c = series_chunk in
  [ 0; 1; 5; c - 1; c; c + 1; 2 * c; (3 * c) + 7 ]

(* [n] rows (time, a, b, c).  Time steps are 0, 0.25 or 1, so runs of
   duplicate timestamps occur, and values are multiples of 0.25 in
   [-5, 5), so extrema tie. *)
let series_rows ~n ~seed =
  let st = Random.State.make [| seed |] in
  let t = ref (Random.State.float st 2.) in
  let v () = float_of_int (Random.State.int st 40 - 20) *. 0.25 in
  Array.init n (fun _ ->
      t := !t +. [| 0.; 0.25; 1. |].(Random.State.int st 3);
      let a = v () in
      let b = v () in
      (!t, a, b, v ()))

(* Windows for a case: random ones from [fracs] (fractions of the
   recorded span, a little past both ends, inverted when drawn that
   way), point windows at the sample times around each chunk boundary,
   and windows whose ends sit on either side of a boundary. *)
let series_windows ts fracs =
  let n = Array.length ts in
  let lo = if n = 0 then 0. else ts.(0) and hi = if n = 0 then 1. else ts.(n - 1) in
  let at f = lo +. (f *. (hi -. lo +. 1.)) in
  let edges =
    List.filter
      (fun i -> i >= 0 && i < n)
      (List.concat_map
         (fun k -> [ (k * series_chunk) - 1; k * series_chunk; (k * series_chunk) + 1 ])
         [ 0; 1; 2; 3 ]
      @ [ n - 1 ])
  in
  List.map (fun (a, b) -> (at a, at b)) fracs
  @ List.map (fun i -> (ts.(i), ts.(i))) edges
  @ List.concat_map
      (fun i -> if i + 2 < n then [ (ts.(i), ts.(i + 2)) ] else [])
      edges

(* Every reader's answers to every query, floats by bit pattern, as one
   string: two implementations agree iff the strings are equal. *)
type series_readers = {
  r_length : int;
  r_times : float array;
  r_values : float array;
  r_first : (float * float) option;
  r_last : (float * float) option;
  r_state : string;
  r_value_at : float -> float option;
  r_window : float -> float -> (float * float) list;
  r_window_values : float -> float -> float array;
  r_min_max_in : float -> float -> (float * float) option;
  r_mean_in : float -> float -> float option;
  r_integral : float -> float -> float;
  r_resample : float -> float -> float -> (float * float) array;
}

let series_state s =
  let b = Buffer.create 64 in
  Sim.Series.fold_state b s;
  Buffer.contents b

let readers_of_series s =
  let open Sim.Series in
  {
    r_length = length s;
    r_times = times s;
    r_values = values s;
    r_first = first s;
    r_last = last s;
    r_state = series_state s;
    r_value_at = value_at s;
    r_window = (fun t0 t1 -> window s ~t0 ~t1);
    r_window_values = (fun t0 t1 -> window_values s ~t0 ~t1);
    r_min_max_in = (fun t0 t1 -> min_max_in s ~t0 ~t1);
    r_mean_in = (fun t0 t1 -> mean_in s ~t0 ~t1);
    r_integral = (fun t0 t1 -> integral s ~t0 ~t1);
    r_resample = (fun t0 t1 dt -> resample s ~t0 ~t1 ~dt);
  }

(* The readers by brute force over plain arrays. *)
let naive_readers ~name ts vs =
  let n = Array.length ts in
  let idx t0 t1 = List.filter (fun i -> t0 <= ts.(i) && ts.(i) <= t1) (List.init n Fun.id) in
  let value_at q =
    let r = ref None in
    Array.iteri (fun i t -> if t <= q then r := Some vs.(i)) ts;
    !r
  in
  let state =
    let b = Buffer.create 64 in
    Sim.Statebuf.s b name;
    Sim.Statebuf.i b n;
    Array.iteri (fun i t -> Sim.Statebuf.f b t; Sim.Statebuf.f b vs.(i)) ts;
    Buffer.contents b
  in
  {
    r_length = n;
    r_times = Array.copy ts;
    r_values = Array.copy vs;
    r_first = (if n = 0 then None else Some (ts.(0), vs.(0)));
    r_last = (if n = 0 then None else Some (ts.(n - 1), vs.(n - 1)));
    r_state = state;
    r_value_at = value_at;
    r_window = (fun t0 t1 -> List.map (fun i -> (ts.(i), vs.(i))) (idx t0 t1));
    r_window_values = (fun t0 t1 -> Array.of_list (List.map (fun i -> vs.(i)) (idx t0 t1)));
    r_min_max_in =
      (fun t0 t1 ->
        match List.map (fun i -> vs.(i)) (idx t0 t1) with
        | [] -> None
        | h :: l -> Some (List.fold_left Float.min h l, List.fold_left Float.max h l));
    r_mean_in =
      (fun t0 t1 ->
        match List.map (fun i -> vs.(i)) (idx t0 t1) with
        | [] -> None
        | l -> Some (List.fold_left ( +. ) 0. l /. float_of_int (List.length l)));
    r_integral =
      (fun t0 t1 ->
        if t1 <= t0 || n = 0 then 0.
        else begin
          let v = ref (Option.value (value_at t0) ~default:0.) in
          let acc = ref 0. and cursor = ref t0 in
          Array.iteri
            (fun i t ->
              if t0 < t && t < t1 then begin
                acc := !acc +. (!v *. (t -. !cursor));
                cursor := t;
                v := vs.(i)
              end)
            ts;
          !acc +. (!v *. (t1 -. !cursor))
        end);
    r_resample =
      (fun t0 t1 dt ->
        if n = 0 then invalid_arg "resample: empty";
        let k = int_of_float (Float.floor ((t1 -. t0) /. dt)) + 1 in
        if k <= 0 then [||]
        else
          Array.init k (fun j ->
              let q = t0 +. (float_of_int j *. dt) in
              (q, Option.value (value_at q) ~default:vs.(0))));
  }

let series_answers r windows =
  let b = Buffer.create 4096 in
  let f = Sim.Statebuf.f b and i = Sim.Statebuf.i b in
  let pair (x, y) = f x; f y in
  let opt g = function None -> i 0 | Some x -> i 1; g x in
  let arr g a = i (Array.length a); Array.iter g a in
  i r.r_length;
  arr f r.r_times;
  arr f r.r_values;
  opt pair r.r_first;
  opt pair r.r_last;
  Sim.Statebuf.s b r.r_state;
  List.iter
    (fun (t0, t1) ->
      List.iter (fun q -> opt f (r.r_value_at q)) [ t0; t1; t0 -. 0.125; t1 +. 0.125 ];
      arr pair (Array.of_list (r.r_window t0 t1));
      arr f (r.r_window_values t0 t1);
      opt pair (r.r_min_max_in t0 t1);
      opt f (r.r_mean_in t0 t1);
      f (r.r_integral t0 t1);
      match r.r_resample t0 t1 ((Float.abs (t1 -. t0) /. 7.) +. 0.1) with
      | grid -> arr pair grid
      | exception Invalid_argument _ -> i (-1))
    windows;
  Buffer.contents b

let series_case_arb =
  QCheck.(
    triple (oneofl series_lengths) small_nat
      (list_of_size Gen.(1 -- 6) (pair (float_range (-0.1) 1.1) (float_range (-0.1) 1.1))))

let prop_series_window_queries_match_naive =
  QCheck.Test.make
    ~name:"series window queries match brute force" ~count:200 series_case_arb
    (fun (n, seed, fracs) ->
      let rows = series_rows ~n ~seed in
      let s = Sim.Series.create ~name:"s" () in
      Array.iter (fun (t, v, _, _) -> Sim.Series.add s ~time:t v) rows;
      let ts = Array.map (fun (t, _, _, _) -> t) rows in
      let vs = Array.map (fun (_, v, _, _) -> v) rows in
      let windows = series_windows ts fracs in
      series_answers (readers_of_series s) windows
      = series_answers (naive_readers ~name:"s" ts vs) windows)

let prop_series_group_matches_standalone =
  QCheck.Test.make
    ~name:"series group members answer like standalone series" ~count:40
    series_case_arb
    (fun (n, seed, fracs) ->
      let rows = series_rows ~n ~seed in
      let g = Sim.Series.group "a" "b" "c" in
      let solo = Array.init 3 (fun k -> Sim.Series.create ~name:[| "a"; "b"; "c" |].(k) ()) in
      Array.iter
        (fun (t, a, b, c) ->
          Sim.Series.add_row g ~time:t a b c;
          Array.iteri (fun k v -> Sim.Series.add solo.(k) ~time:t v) [| a; b; c |])
        rows;
      let ma, mb, mc = Sim.Series.members g in
      let windows = series_windows (Array.map (fun (t, _, _, _) -> t) rows) fracs in
      List.for_all2
        (fun m s ->
          series_answers (readers_of_series m) windows
          = series_answers (readers_of_series s) windows
          && Sim.Series.map Float.neg m = Sim.Series.map Float.neg s)
        [ ma; mb; mc ] (Array.to_list solo))

let test_series_group_rejects () =
  let raises f = try f (); false with Invalid_argument _ -> true in
  let g = Sim.Series.group "a" "b" "c" in
  let a, b, _ = Sim.Series.members g in
  Alcotest.(check bool) "add on a member raises" true
    (raises (fun () -> Sim.Series.add a ~time:0. 1.));
  Sim.Series.add_row g ~time:1. 1. 2. 3.;
  Alcotest.(check bool) "add after add_row raises" true
    (raises (fun () -> Sim.Series.add b ~time:2. 1.));
  Alcotest.(check bool) "decreasing add_row raises" true
    (raises (fun () -> Sim.Series.add_row g ~time:0.5 1. 2. 3.));
  Alcotest.(check int) "rows" 1 (Sim.Series.length b);
  Alcotest.(check (option (pair (float 0.) (float 0.)))) "member b" (Some (1., 2.))
    (Sim.Series.last b)

(* Storage is a function of the samples alone: the zero-filled chunk
   tails and the directory padding make two series built from the same
   samples equal under [=] and marshal to the same bytes, whatever was
   asked of either since (cached job payloads and [Theorem1]'s
   [analytic] comparison rely on it).  Between the two builds, freed
   non-zero floats give uninitialised chunks a chance to differ. *)
let test_series_equal_after_queries () =
  let rows = series_rows ~n:(series_chunk + 5) ~seed:3 in
  let build () =
    let s = Sim.Series.create ~name:"a" () in
    let g = Sim.Series.group "a" "b" "c" in
    Array.iter
      (fun (t, a, b, c) ->
        Sim.Series.add s ~time:t a;
        Sim.Series.add_row g ~time:t a b c)
      rows;
    (s, g)
  in
  let s1, g1 = build () in
  let a1, b1, c1 = Sim.Series.members g1 in
  let windows = series_windows (Array.map (fun (t, _, _, _) -> t) rows) [ (0.2, 0.7) ] in
  List.iter (fun x -> ignore (series_answers (readers_of_series x) windows)) [ s1; a1; b1; c1 ];
  ignore (Sys.opaque_identity (Array.init 64 (fun _ -> Array.make series_chunk 1.5)));
  Gc.full_major ();
  let s2, g2 = build () in
  let _, b2, _ = Sim.Series.members g2 in
  ignore (Sim.Series.window_values b2 ~t0:0. ~t1:1e9);
  let marshal x = Marshal.to_string x [] in
  Alcotest.(check bool) "standalone =" true (s1 = s2);
  Alcotest.(check string) "standalone Marshal" (marshal s1) (marshal s2);
  Alcotest.(check bool) "group =" true (g1 = g2);
  Alcotest.(check string) "group Marshal" (marshal g1) (marshal g2);
  Alcotest.(check bool) "round trip" true
    ((Marshal.from_string (marshal g1) 0 : Sim.Series.group) = g2)

(* Direct major-heap words per append ([major_words - promoted_words]):
   chunks are allocated straight into the major heap, two columns for a
   series (2 words per sample plus the chunk directories; doubling
   arrays paid 4.2) and four for a group of three.  Bytecode boxes
   differently, so the budget only binds on the native backend. *)
let test_series_append_major_budget () =
  match Sys.backend_type with
  | Sys.Native ->
      let n = 1_000_000 in
      let direct f =
        let s0 = Gc.quick_stat () in
        f ();
        let s1 = Gc.quick_stat () in
        (s1.Gc.major_words -. s1.Gc.promoted_words
         -. (s0.Gc.major_words -. s0.Gc.promoted_words))
        /. float_of_int n
      in
      let s = Sim.Series.create () in
      let per_sample =
        direct (fun () ->
            for i = 0 to n - 1 do
              Sim.Series.add s ~time:(float_of_int i) 1.
            done)
      in
      let g = Sim.Series.group "a" "b" "c" in
      let per_row =
        direct (fun () ->
            for i = 0 to n - 1 do
              Sim.Series.add_row g ~time:(float_of_int i) 1. 2. 3.
            done)
      in
      ignore (Sys.opaque_identity (s, g));
      Alcotest.(check bool)
        (Printf.sprintf "%.2f major words/sample <= 2.5" per_sample)
        true (per_sample <= 2.5);
      Alcotest.(check bool)
        (Printf.sprintf "%.2f major words/group row <= 4.5" per_row)
        true (per_row <= 4.5)
  | Sys.Bytecode | Sys.Other _ -> ()

(* ------------------------------------------------------------------ *)
(* Million-flow scale                                                  *)
(* ------------------------------------------------------------------ *)

let test_eq_peak_100k_flows () =
  (* The census workload shape at full scale: 100k sized flows armed in
     one queue.  Build is O(n); the queue's population equals the flow
     count exactly (one start event each), and the first slice of the
     run executes without disturbing the clock contract. *)
  let n = 100_000 in
  let specs =
    List.init n (fun i ->
        Sim.Network.flow
          ~start_time:(float_of_int i *. 1e-4)
          ~record_series:false ~size_bytes:3000
          (Const_cwnd.make ~cwnd_packets:2. ()))
  in
  let cfg =
    Sim.Network.config
      ~rate:(Sim.Link.Constant (Sim.Units.mbps 96.))
      ~rm:0.01 ~duration:20. specs
  in
  let net = Sim.Network.build cfg in
  let eq = Sim.Network.event_queue net in
  Alcotest.(check int) "one pending start event per flow" n
    (Sim.Event_queue.pending eq);
  Sim.Network.run_to net 0.05;
  Alcotest.(check bool) "early starts executed, rest pending" true
    (Sim.Event_queue.pending eq > n / 2);
  check_float "clock at slice horizon" 0.05 (Sim.Event_queue.now eq)

(* ------------------------------------------------------------------ *)
(* Integer-id registry: reference model, id reuse, misuse              *)
(* ------------------------------------------------------------------ *)

(* A naive reference scheduler: pending events in a list, the next one
   found by a linear scan for the least (time, seq).  Labels 0-7 are
   handles; one-shot events get labels from 100 up, those scheduled by
   an action from 1000 up. *)
module Ref_sched = struct
  type t = {
    mutable evs : (float * int * int) list; (* (time, seq, label) *)
    mutable seq : int;
    mutable now : float;
  }

  let create () = { evs = []; seq = 0; now = 0. }
  let remove m label = m.evs <- List.filter (fun (_, _, l) -> l <> label) m.evs

  let add m ~at label =
    m.evs <- (at, m.seq, label) :: m.evs;
    m.seq <- m.seq + 1

  let arm m ~at label =
    remove m label;
    add m ~at label

  let time_of m label =
    match List.find_opt (fun (_, _, l) -> l = label) m.evs with
    | Some (at, _, _) -> at
    | None -> infinity

  let next m =
    List.fold_left
      (fun best ((t, s, _) as e) ->
        match best with
        | Some (bt, bs, _) when bt < t || (bt = t && bs < s) -> best
        | _ -> Some e)
      None m.evs

  (* Pop the next event if it is due by [horizon]; its label, or None. *)
  let pop m ~horizon =
    match next m with
    | Some (t, s, l) when t <= horizon ->
        m.evs <- List.filter (fun (_, s', _) -> s' <> s) m.evs;
        m.now <- t;
        Some l
    | _ -> None
end

(* Offsets from [now]: a tiny set, so events tie, and a wide one from a
   millisecond to 1e8 s. *)
let ref_offsets =
  [| 0.; 0.; 1e-6; 1e-4; 1e-4; 3e-4; 1e-3; 1e-3;
     0.3; 1.7; 30.; 600.; 2e4; 3e5; 5e6; 1e8 |]

let show_ref_op (op, hi, ti) =
  let name =
    match op with
    | 0 | 1 -> "schedule"
    | 2 | 3 | 4 -> Printf.sprintf "arm h%d" hi
    | 5 -> Printf.sprintf "cancel h%d" hi
    | 6 | 7 -> "step"
    | _ -> "run_until"
  in
  Printf.sprintf "%s +%g" name ref_offsets.(ti)

(* What a firing handle's action does to the queue, besides logging.  The
   actions take these from one shared list, one per firing, until it runs
   out; the reference model takes them from its own copy as it pops. *)
let show_reaction (kind, j, ti) =
  let name =
    match kind with
    | 0 -> "re-arm self"
    | 1 -> Printf.sprintf "cancel h%d" j
    | 2 -> Printf.sprintf "arm h%d" j
    | 3 -> "schedule"
    | 4 -> "cancel self, re-arm self"
    | 5 -> "re-arm self, cancel self"
    | _ -> "nothing"
  in
  Printf.sprintf "%s +%g" name ref_offsets.(ti)

let react_queue eq handles ~self ~label ~one_shot (kind, j, ti) =
  let at = Sim.Event_queue.now eq +. ref_offsets.(ti) in
  match kind with
  | 0 -> Sim.Event_queue.schedule_handle eq handles.(self) ~at
  | 1 -> Sim.Event_queue.cancel eq handles.(j)
  | 2 -> Sim.Event_queue.schedule_handle eq handles.(j) ~at
  | 3 -> Sim.Event_queue.schedule eq ~at (fun () -> one_shot label)
  | 4 ->
      Sim.Event_queue.cancel eq handles.(self);
      Sim.Event_queue.schedule_handle eq handles.(self) ~at
  | 5 ->
      Sim.Event_queue.schedule_handle eq handles.(self) ~at;
      Sim.Event_queue.cancel eq handles.(self)
  | _ -> ()

let react_model m ~self ~label (kind, j, ti) =
  let at = m.Ref_sched.now +. ref_offsets.(ti) in
  match kind with
  | 0 | 4 -> Ref_sched.arm m ~at self
  | 1 -> Ref_sched.remove m j
  | 2 -> Ref_sched.arm m ~at j
  | 3 -> Ref_sched.add m ~at label
  | 5 -> Ref_sched.remove m self
  | _ -> ()

(* Run one trace on the queue and on the reference model side by side,
   comparing after every operation: what fired and in which order, the
   clock, [pending], and [is_scheduled] / [scheduled_time] of every
   handle.  Each firing also records what its action saw: the clock,
   [pending], and its own handle's [is_scheduled] / [scheduled_time],
   which must read idle.  Returns the first divergence. *)
let ref_divergence (reactions, ops) =
  let eq = Sim.Event_queue.create () in
  let m = Ref_sched.create () in
  let fired = ref [] in
  let handles = Array.init 8 (fun _ -> Sim.Event_queue.handle ignore) in
  (* (label, now, pending, (is_scheduled, scheduled_time)) per firing *)
  let seen label self =
    ( label,
      Sim.Event_queue.now eq,
      Sim.Event_queue.pending eq,
      (match self with
      | Some h -> Sim.Event_queue.(is_scheduled h, scheduled_time eq h)
      | None -> (false, infinity)) )
  in
  let fire_one_shot label = fired := seen label None :: !fired in
  let real_rs = ref (List.mapi (fun k r -> (1000 + k, r)) reactions) in
  let model_rs = ref !real_rs in
  let take rs =
    match !rs with
    | [] -> None
    | r :: rest ->
        rs := rest;
        Some r
  in
  Array.iteri
    (fun i h ->
      Sim.Event_queue.set_action h (fun () ->
          fired := seen i (Some h) :: !fired;
          match take real_rs with
          | Some (label, r) ->
              react_queue eq handles ~self:i ~label ~one_shot:fire_one_shot r
          | None -> ()))
    handles;
  let expect = ref [] in
  let model_pop ~horizon =
    match Ref_sched.pop m ~horizon with
    | None -> false
    | Some l ->
        expect :=
          (l, m.Ref_sched.now, List.length m.Ref_sched.evs, (false, infinity))
          :: !expect;
        (if l < 8 then
           match take model_rs with
           | Some (label, r) -> react_model m ~self:l ~label r
           | None -> ());
        true
  in
  let check k op =
    let got = List.rev !fired and want = List.rev !expect in
    fired := [];
    expect := [];
    let bad fmt =
      Printf.ksprintf
        (fun s -> Some (Printf.sprintf "op %d (%s): %s" k (show_ref_op op) s))
        fmt
    in
    let show l =
      String.concat ";"
        (List.map
           (fun (label, now, pending, (sched, time)) ->
             Printf.sprintf "%d@%g(pending %d%s)" label now pending
               (if sched || Float.is_finite time then
                  Printf.sprintf ", reads queued at %g" time
                else ""))
           l)
    in
    if got <> want then bad "fired [%s], reference [%s]" (show got) (show want)
    else if Sim.Event_queue.now eq <> m.Ref_sched.now then
      bad "now %g, reference %g" (Sim.Event_queue.now eq) m.Ref_sched.now
    else if Sim.Event_queue.pending eq <> List.length m.Ref_sched.evs then
      bad "pending %d, reference %d" (Sim.Event_queue.pending eq)
        (List.length m.Ref_sched.evs)
    else
      let rec handle_ok i =
        if i = Array.length handles then None
        else
          let want = Ref_sched.time_of m i in
          let got = Sim.Event_queue.scheduled_time eq handles.(i) in
          if Sim.Event_queue.is_scheduled handles.(i) <> Float.is_finite want
          then bad "h%d is_scheduled disagrees" i
          else if got <> want then
            bad "h%d scheduled_time %g, reference %g" i got want
          else handle_ok (i + 1)
      in
      handle_ok 0
  in
  let rec go k = function
    | [] -> None
    | ((op, hi, ti) as o) :: rest -> (
        let at = Sim.Event_queue.now eq +. ref_offsets.(ti) in
        (match op with
        | 0 | 1 ->
            let label = 100 + k in
            Sim.Event_queue.schedule eq ~at (fun () -> fire_one_shot label);
            Ref_sched.add m ~at label
        | 2 | 3 | 4 ->
            Sim.Event_queue.schedule_handle eq handles.(hi) ~at;
            Ref_sched.arm m ~at hi
        | 5 ->
            Sim.Event_queue.cancel eq handles.(hi);
            Ref_sched.remove m hi
        | 6 | 7 ->
            ignore (Sim.Event_queue.step eq);
            ignore (model_pop ~horizon:infinity)
        | _ ->
            Sim.Event_queue.run_until eq at;
            while model_pop ~horizon:at do () done;
            m.Ref_sched.now <- Float.max m.Ref_sched.now at);
        match check k o with None -> go (k + 1) rest | d -> d)
  in
  go 0 ops

let prop_eq_matches_reference =
  QCheck.Test.make ~name:"event queue matches a naive reference scheduler"
    ~count:200
    QCheck.(
      make
        ~print:(fun (reactions, ops) ->
          Printf.sprintf "reactions [%s]; ops [%s]"
            (String.concat "; " (List.map show_reaction reactions))
            (String.concat "; " (List.map show_ref_op ops)))
        Gen.(
          pair
            (list_size (0 -- 40)
               (triple (int_range 0 6) (int_range 0 7) (int_range 0 15)))
            (list_size (0 -- 120)
               (triple (int_range 0 8) (int_range 0 7) (int_range 0 15)))))
    (fun trace ->
      match ref_divergence trace with
      | None -> true
      | Some d -> QCheck.Test.fail_reportf "%s" d)

(* The census's depth: the full E19 cells peak at up to 2 022 pending
   events (std Vegas at 20 ms jitter; 1 827 in the heavy Reno cell), far
   past the handful the reference property above keeps queued.  [n]
   handles, each armed once up front, re-arm themselves from their own
   actions (most of the time) and, now and then, cancel or move another
   handle or schedule a one-shot; between steps the test itself cancels,
   moves and arms handles and schedules one-shots too.  Times sit on a
   grid of 2^-10 s with offsets of a few ticks, so dozens of events
   share each instant and only the sequence number orders them.  A
   reference that keeps every handle's (time, seq) in arrays and finds
   the next event by a linear scan checks, after every operation, what
   fired, the clock, [pending] and every handle's [scheduled_time]; each
   firing also checks that its own handle reads idle and uncounted. *)
let eq_deep_divergence ~n seed =
  let st = Random.State.make [| seed |] in
  let tick = 1. /. 1024. in
  let ticks = [| 0; 0; 1; 1; 2; 3; 5; 8; 13; 40; 1000 |] in
  let offset () =
    float_of_int ticks.(Random.State.int st (Array.length ticks)) *. tick
  in
  let eq = Sim.Event_queue.create () in
  (* The reference: a handle's (time, seq), [infinity] when idle, and
     the one-shots by label (from [n] up). *)
  let mtime = Array.make n infinity and mseq = Array.make n 0 in
  let shots = Hashtbl.create 64 in
  let seq = ref 0 and mnow = ref 0. and labels = ref n in
  let stamp () =
    let s = !seq in
    incr seq;
    s
  in
  let marm i at =
    mtime.(i) <- at;
    mseq.(i) <- stamp ()
  in
  let mpending () =
    Array.fold_left (fun c t -> if Float.is_finite t then c + 1 else c) 0 mtime
    + Hashtbl.length shots
  in
  (* (label, pending and own handle's state as seen at the firing) *)
  let fired = ref None in
  (* reactions of the firing action, replayed on the reference after it
     pops the same event, newest first *)
  let todo = ref [] in
  let one_shot () =
    let label = !labels in
    incr labels;
    let at = Sim.Event_queue.now eq +. offset () in
    Sim.Event_queue.schedule eq ~at (fun () ->
        fired := Some (label, Sim.Event_queue.pending eq, false, infinity));
    (label, at)
  in
  let handles = Array.init n (fun _ -> Sim.Event_queue.handle ignore) in
  Array.iteri
    (fun i h ->
      Sim.Event_queue.set_action h (fun () ->
          fired :=
            Some
              ( i,
                Sim.Event_queue.pending eq,
                Sim.Event_queue.is_scheduled h,
                Sim.Event_queue.scheduled_time eq h );
          let rearm () =
            if Random.State.int st 100 < 95 then begin
              let at = Sim.Event_queue.now eq +. offset () in
              Sim.Event_queue.schedule_handle eq h ~at;
              todo := (fun () -> marm i at) :: !todo
            end
          in
          let side () =
            let j = Random.State.int st n in
            match Random.State.int st 30 with
            | 0 ->
                Sim.Event_queue.cancel eq handles.(j);
                todo := (fun () -> mtime.(j) <- infinity) :: !todo
            | 1 ->
                let at = Sim.Event_queue.now eq +. offset () in
                Sim.Event_queue.schedule_handle eq handles.(j) ~at;
                todo := (fun () -> marm j at) :: !todo
            | 2 ->
                let label, at = one_shot () in
                todo :=
                  (fun () -> Hashtbl.replace shots label (at, stamp ()))
                  :: !todo
            | _ -> ()
          in
          if Random.State.bool st then begin
            rearm ();
            side ()
          end
          else begin
            side ();
            rearm ()
          end))
    handles;
  (* Pop the reference's least (time, seq): its label. *)
  let mpop () =
    let best = ref (-1) and bt = ref infinity and bs = ref max_int in
    let consider label t s =
      if t < !bt || (t = !bt && s < !bs) then begin
        best := label;
        bt := t;
        bs := s
      end
    in
    Array.iteri
      (fun i t -> if Float.is_finite t then consider i t mseq.(i))
      mtime;
    Hashtbl.iter (fun label (t, s) -> consider label t s) shots;
    let l = !best in
    if l >= 0 then begin
      if l < n then mtime.(l) <- infinity else Hashtbl.remove shots l;
      mnow := !bt
    end;
    l
  in
  let check () =
    let bad fmt = Printf.ksprintf Option.some fmt in
    if Sim.Event_queue.now eq <> !mnow then
      bad "now %g, reference %g" (Sim.Event_queue.now eq) !mnow
    else if Sim.Event_queue.pending eq <> mpending () then
      bad "pending %d, reference %d" (Sim.Event_queue.pending eq) (mpending ())
    else
      let rec handle_ok i =
        if i = n then None
        else
          let got = Sim.Event_queue.scheduled_time eq handles.(i) in
          if
            Sim.Event_queue.is_scheduled handles.(i)
            <> Float.is_finite mtime.(i)
          then bad "h%d is_scheduled disagrees" i
          else if got <> mtime.(i) then
            bad "h%d scheduled_time %g, reference %g" i got mtime.(i)
          else handle_ok (i + 1)
      in
      handle_ok 0
  in
  for i = 0 to n - 1 do
    let at = float_of_int (Random.State.int st 64) *. tick in
    Sim.Event_queue.schedule_handle eq handles.(i) ~at;
    marm i at
  done;
  let rec go k =
    if k = 3 * n then None
    else
      let what, d =
        match Random.State.int st 20 with
        | 0 ->
            let j = Random.State.int st n in
            Sim.Event_queue.cancel eq handles.(j);
            mtime.(j) <- infinity;
            (Printf.sprintf "cancel h%d" j, None)
        | 1 ->
            let j = Random.State.int st n in
            let at = Sim.Event_queue.now eq +. offset () in
            Sim.Event_queue.schedule_handle eq handles.(j) ~at;
            marm j at;
            (Printf.sprintf "arm h%d" j, None)
        | 2 ->
            let label, at = one_shot () in
            Hashtbl.replace shots label (at, stamp ());
            ("schedule", None)
        | _ ->
            let before = mpending () in
            fired := None;
            todo := [];
            let ran = Sim.Event_queue.step eq in
            let want = mpop () in
            List.iter (fun f -> f ()) (List.rev !todo);
            ( "step",
              match !fired with
              | None when not ran && want < 0 -> None
              | None -> Some (Printf.sprintf "nothing fired, reference %d" want)
              | Some (label, _, _, _) when label <> want ->
                  Some (Printf.sprintf "%d fired, reference %d" label want)
              | Some (_, pending, sched, time) ->
                  if pending <> before - 1 then
                    Some
                      (Printf.sprintf "%d saw pending %d, reference %d" want
                         pending (before - 1))
                  else if sched || Float.is_finite time then
                    Some (Printf.sprintf "h%d reads queued in its action" want)
                  else None )
      in
      match (match d with None -> check () | d -> d) with
      | None -> go (k + 1)
      | Some s -> Some (Printf.sprintf "op %d (%s): %s" k what s)
  in
  go 0

let prop_eq_deep_matches_reference =
  QCheck.Test.make ~name:"event queue matches the reference at census depth"
    ~count:4
    QCheck.(make ~print:string_of_int Gen.(0 -- 1_000_000))
    (fun seed ->
      match eq_deep_divergence ~n:2_560 seed with
      | None -> true
      | Some d -> QCheck.Test.fail_reportf "%s" d)

(* Ids are recycled: 100 000 one-shot schedule/step cycles with at most 8
   events pending leave the queue about as large as after the first
   thousand: the registry and the heap stay at 16 slots.  A registry that
   issued a fresh id per insertion would add some 200 000 words. *)
let test_eq_recycles_ids () =
  let eq = Sim.Event_queue.create () in
  let fired = ref 0 in
  let cycle k =
    let at = Sim.Event_queue.now eq +. (float_of_int (k mod 8) *. 1e-3) in
    Sim.Event_queue.schedule eq ~at (fun () -> incr fired);
    if Sim.Event_queue.pending eq >= 8 then ignore (Sim.Event_queue.step eq)
  in
  for k = 0 to 999 do
    cycle k
  done;
  let words () = Obj.reachable_words (Obj.repr eq) in
  let warm = words () in
  for k = 1000 to 100_999 do
    cycle k
  done;
  let final = words () in
  Alcotest.(check bool)
    (Printf.sprintf "reachable words %d after 101k cycles, %d after 1k" final
       warm)
    true
    (final <= warm + 10_000);
  Alcotest.(check int) "at most 8 pending" 7 (Sim.Event_queue.pending eq);
  Alcotest.(check int) "every popped event fired" (101_000 - 7) !fired

(* Misuse raises [Invalid_argument] naming what is wrong, and leaves both
   queues intact.  Before ids, [run_until nan] set the clock to NaN (an
   event scheduled at [now +. delay] then failed as "non-finite time"), and
   cancelling queue A's handle through queue B deleted B's own root and
   dropped its pending count to 0. *)
let test_eq_misuse_rejected () =
  let net () =
    Sim.Network.build
      (Sim.Network.config ~rate:(Sim.Link.Constant (Sim.Units.mbps 12.))
         ~rm:0.02 ~duration:1. [ Sim.Network.flow (Reno.make ()) ])
  in
  let cases =
    [
      ( "run_until nan", "Event_queue.run_until: horizon is NaN",
        fun (a, _, _, _, _) -> Sim.Event_queue.run_until a nan );
      ( "run_to nan", "Network.run_to: time is NaN",
        fun (_, _, _, _, n) -> Sim.Network.run_to n nan );
      ( "cancel another queue's handle", "Event_queue.cancel: handle is queued in another queue",
        fun (_, b, h, _, _) -> Sim.Event_queue.cancel b h );
      ( "move another queue's handle",
        "Event_queue.schedule_handle: handle is queued in another queue",
        fun (_, b, h, _, _) -> Sim.Event_queue.schedule_handle b h ~at:0.5 );
      ( "time of another queue's handle",
        "Event_queue.scheduled_time: handle is queued in another queue",
        fun (_, b, h, _, _) -> ignore (Sim.Event_queue.scheduled_time b h) );
      ( "set_action on a queued handle", "Event_queue.set_action: handle is queued",
        fun (_, _, h, _, _) -> Sim.Event_queue.set_action h ignore );
    ]
  in
  List.iter
    (fun (name, message, misuse) ->
      let a = Sim.Event_queue.create () and b = Sim.Event_queue.create () in
      let fired = ref [] in
      let h = Sim.Event_queue.handle (fun () -> fired := "h" :: !fired) in
      let g = Sim.Event_queue.handle (fun () -> fired := "g" :: !fired) in
      Sim.Event_queue.schedule_handle a h ~at:1.;
      Sim.Event_queue.schedule_handle b g ~at:2.;
      let n = net () in
      (match misuse (a, b, h, g, n) with
      | () -> Alcotest.failf "%s accepted" name
      | exception Invalid_argument msg ->
          Alcotest.(check string) (name ^ ": message") message msg);
      check_float (name ^ ": a's clock") 0. (Sim.Event_queue.now a);
      check_float (name ^ ": network clock") 0. (Sim.Network.now n);
      Alcotest.(check (pair int int)) (name ^ ": pending") (1, 1)
        (Sim.Event_queue.pending a, Sim.Event_queue.pending b);
      check_float (name ^ ": h's time in a") 1. (Sim.Event_queue.scheduled_time a h);
      check_float (name ^ ": g's time in b") 2. (Sim.Event_queue.scheduled_time b g);
      Sim.Event_queue.run a;
      Sim.Event_queue.run b;
      Alcotest.(check (list string)) (name ^ ": both fire") [ "h"; "g" ]
        (List.rev !fired))
    cases;
  (* A popped or cancelled handle is idle and may move to another queue. *)
  let a = Sim.Event_queue.create () and b = Sim.Event_queue.create () in
  let h = Sim.Event_queue.handle ignore in
  Sim.Event_queue.schedule_handle a h ~at:1.;
  Sim.Event_queue.cancel a h;
  Sim.Event_queue.schedule_handle b h ~at:1.;
  Sim.Event_queue.run b;
  Sim.Event_queue.schedule_handle a h ~at:1.;
  Alcotest.(check (pair int int)) "idle handle re-armed elsewhere" (1, 0)
    (Sim.Event_queue.pending a, Sim.Event_queue.pending b)

let test_flow_table_memory_bounded () =
  (* 10k idle flows in one shared table must cost a bounded number of
     heap words each.  The old eager 1024-slot outstanding rings alone
     were ~2k words per flow; the 16-slot rings plus the
     structure-of-arrays table keep the whole flow a few hundred. *)
  let n = 10_000 in
  let eq = Sim.Event_queue.create () in
  let table = Sim.Flow.Table.create ~capacity:n () in
  Gc.full_major ();
  let before = (Gc.stat ()).Gc.live_words in
  let flows =
    Array.init n (fun i ->
        Sim.Flow.create ~eq ~id:i
          ~cca:(Const_cwnd.make ~cwnd_packets:2. ())
          ~start_time:5. ~record_series:false ~table
          ~transmit:(fun _ -> ())
          ())
  in
  Gc.full_major ();
  let after = (Gc.stat ()).Gc.live_words in
  let per_flow = (after - before) / n in
  Alcotest.(check bool)
    (Printf.sprintf "%d live words per idle flow (bound 1000)" per_flow)
    true (per_flow <= 1000);
  ignore (Sys.opaque_identity flows)

(* Census footprint: one standard E19 cell (columnar Reno, 20 ms ACK
   jitter, the constants of [Experiments.Exp_census]) at 100 000 flows.
   The live-words delta while the result is held, over the population,
   says a million-flow census fits one machine because quiesced flows
   cost tens of bytes, not a struct of Series; the goodput column alone
   is 8 bytes/flow.  Measured 8.0 bytes/flow, every flow completed. *)
let test_census_memory_bounded () =
  let n = 100_000 in
  let mss = Cca.default_mss in
  let rate = Sim.Units.mbps 480. and xm = float_of_int (10 * mss) in
  let cfg =
    {
      Sim.Population.n;
      duration = Float.max 5. (float_of_int n *. 3. *. xm /. (0.7 *. rate *. 0.6));
      arrival_frac = 0.6;
      rate;
      buffer = None;
      rm = 0.02;
      mss;
      jitter_d = 0.02;
      seed = 42;
      key = Printf.sprintf "census/std/reno/jit=20ms/n=%d" n;
      alpha = 1.5;
      xm;
      size_cap = 10_000_000;
    }
  in
  let cols = Columns.create ~nfields:Reno.nfields () in
  let cca ~slot:_ ~prev =
    match prev with
    | Some i -> (
        match i.Cca.reset with
        | Some r ->
            r ();
            i
        | None -> assert false)
    | None -> Reno.make_in cols
  in
  Gc.compact ();
  let base = (Gc.stat ()).Gc.live_words in
  let r = Sim.Population.run ~cca cfg in
  Gc.full_major ();
  let bytes_per_flow =
    float_of_int (((Gc.stat ()).Gc.live_words - base) * (Sys.word_size / 8))
    /. float_of_int n
  in
  Printf.printf "census: %.1f bytes/flow, %d of %d flows completed\n"
    bytes_per_flow r.Sim.Population.completed n;
  Alcotest.(check bool)
    (Printf.sprintf "%.1f bytes/flow <= 200" bytes_per_flow)
    true (bytes_per_flow <= 200.);
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d flows completed" r.Sim.Population.completed n)
    true
    (r.Sim.Population.completed > n / 2);
  ignore (Sys.opaque_identity r)

(* The invariant monitor must stay cheap.  [overhead_ratio ~plain ~layered]
   times single runs of the two arms in 31 rounds, with a major GC
   before each run, and returns the median of the per-round ratios
   layered / plain.  A round runs the arms in the order A B B A and
   sums each arm's two runs, so a speed that drifts linearly within the
   round weighs on both arms alike; the next round swaps which arm is A,
   so neither arm always runs first.  The clock is the process's CPU
   time: [dune runtest] runs the ten test executables at once on a
   shared 2-vCPU host, and wall time then counts the slices other
   processes took, which moved the ratio by tens of percent.  The
   scenario is a fast link with a short RTT (192 Mbit/s, 10 ms, single
   Reno, no series, 2 s): an audit's price scales with the live state
   it walks, the run's with the packets it simulates, so the ratio is a
   property of the layer rather than of an idle simulation. *)
let overhead_ratio ~plain ~layered =
  plain ();
  layered ();
  let time f =
    Gc.full_major ();
    let t0 = Sys.time () in
    f ();
    Sys.time () -. t0
  in
  let rounds = 31 in
  let ratios =
    Array.init rounds (fun i ->
        let a, b = if i mod 2 = 0 then (plain, layered) else (layered, plain) in
        let ta1 = time a in
        let tb1 = time b in
        let tb2 = time b in
        let ta2 = time a in
        let ta = ta1 +. ta2 and tb = tb1 +. tb2 in
        if i mod 2 = 0 then tb /. ta else ta /. tb)
  in
  Array.sort Float.compare ratios;
  ratios.(rounds / 2)

let overhead_config ?monitor_period () =
  let rate = Sim.Units.mbps 192. in
  Sim.Network.config ~rate:(Sim.Link.Constant rate)
    ~buffer:(Sim.Units.bdp_bytes ~rate ~rtt:0.01) ~rm:0.01 ~duration:2.
    ?monitor_period
    [ Sim.Network.flow ~record_series:false (Reno.make ()) ]

(* Invariant-monitor overhead <= 10%: the same run auditing every 10 ms
   of simulated time (clock, queue, jitter and every conservation
   identity) from the scheduler's step hook.  Measured -1 % to 7 %,
   alone or beside a full [dune runtest]. *)
let test_monitor_overhead () =
  let audits = ref 0 in
  let run monitor_period () =
    let net = Sim.Network.run_config (overhead_config ?monitor_period ()) in
    match Sim.Network.invariant net with
    | Some inv -> audits := !audits + Sim.Invariant.checks_run inv
    | None -> ()
  in
  let ratio =
    overhead_ratio ~plain:(run None) ~layered:(run (Some 0.01))
  in
  Printf.printf "monitor overhead ratio %.4f\n" ratio;
  Alcotest.(check bool) "audits ran" true (!audits > 0);
  Alcotest.(check bool)
    (Printf.sprintf "monitor overhead %.1f%% <= 10%%" (100. *. (ratio -. 1.)))
    true (ratio <= 1.10)

let test_network_sized_flow_completes () =
  let size = 15_000 in
  let cfg =
    Sim.Network.config
      ~rate:(Sim.Link.Constant (Sim.Units.mbps 12.))
      ~rm:0.02 ~duration:5.
      [ Sim.Network.flow ~size_bytes:size (Reno.make ()) ]
  in
  let net = Sim.Network.run_config cfg in
  let f = (Sim.Network.flows net).(0) in
  Alcotest.(check bool) "completed" true (Sim.Flow.completed f);
  Alcotest.(check int) "delivered its size" size (Sim.Flow.delivered_bytes f);
  (match Sim.Flow.completion_time f with
  | Some ct ->
      Alcotest.(check bool) "finished early" true (ct < 1.);
      let g = (Sim.Network.goodputs net).(0) in
      Alcotest.(check bool) "goodput over own lifetime" true
        (g > float_of_int size /. 1.)
  | None -> Alcotest.fail "no completion time");
  (* Completion quiesces the flow: no timers left re-arming forever. *)
  Alcotest.(check int) "event queue drained" 0
    (Sim.Event_queue.pending (Sim.Network.event_queue net));
  (* A small churning population: eight sized flows arriving over the
     run, with the census's Poisson gaps and Pareto(1.5) sizes. *)
  let master = Sim.Rng.create ~seed:7 in
  let arrivals = Sim.Rng.stream master ~label:"test/churn/arrivals" in
  let sizes = Sim.Rng.stream master ~label:"test/churn/sizes" in
  let t = ref 0. in
  let specs =
    List.init 8 (fun _ ->
        t := !t +. Sim.Rng.exponential arrivals ~mean:0.15;
        let size =
          min 10_000_000 (int_of_float (Sim.Rng.pareto sizes ~alpha:1.5 ~xm:15_000.))
        in
        Sim.Network.flow ~start_time:(Float.min !t 1.2) ~record_series:false
          ~size_bytes:size (Reno.make ()))
  in
  let churn =
    Sim.Network.run_config
      (Sim.Network.config
         ~rate:(Sim.Link.Constant (Sim.Units.mbps 480.))
         ~rm:0.02 ~seed:7 ~duration:2. specs)
  in
  Alcotest.(check bool) "8-flow churn completes" true
    (Array.for_all Sim.Flow.completed (Sim.Network.flows churn))

(* Scripted window driver for the outstanding ring: a stub CCA whose
   window we resize by hand, ACKs delivered oldest-first on command.
   Every ACK triggers sends synchronously, so op sequences walk the ring
   head (min_out) and tail (next_seq) through arbitrary phases of the
   16-slot initial capacity — growth must relocate a live wrapped window
   without corrupting it. *)
let prop_flow_ring_growth_conservation =
  QCheck.Test.make
    ~name:"outstanding ring survives growth at any wrap phase" ~count:100
    QCheck.(list_of_size Gen.(1 -- 150) (int_range 0 3))
    (fun ops ->
      let mss = 1500 in
      let eq = Sim.Event_queue.create () in
      let cw = ref (float_of_int (4 * mss)) in
      let base = Const_cwnd.make ~cwnd_packets:4. ~mss () in
      let cca = { base with Cca.cwnd = (fun () -> !cw) } in
      let sent = Queue.create () in
      let flow =
        Sim.Flow.create ~eq ~id:0 ~cca ~start_time:0. ~record_series:false
          ~transmit:(fun p -> Queue.push p sent)
          ()
      in
      Sim.Event_queue.run_until eq 0.;
      let ok = ref true in
      let check () =
        ok :=
          !ok
          && Sim.Flow.inflight flow = Sim.Flow.outstanding_bytes flow
          && Sim.Flow.sent_bytes flow
             = Sim.Flow.delivered_bytes flow + Sim.Flow.inflight flow
      in
      List.iter
        (fun op ->
          (match op with
          | 0 | 1 ->
              (* grow the window one segment: pushes next_seq across the
                 capacity boundary while min_out sits anywhere *)
              cw := !cw +. float_of_int mss;
              if not (Queue.is_empty sent) then
                Sim.Flow.receive_ack_one flow (Queue.pop sent)
          | 2 -> cw := Float.max (float_of_int mss) (!cw -. float_of_int mss)
          | _ ->
              if not (Queue.is_empty sent) then
                Sim.Flow.receive_ack_one flow (Queue.pop sent));
          check ())
        ops;
      (* Drain: close the window first — the stream is infinite, so with
         any window open each ACK would trigger a fresh send and the
         queue would never empty — then ack everything outstanding. *)
      cw := 0.;
      while not (Queue.is_empty sent) do
        Sim.Flow.receive_ack_one flow (Queue.pop sent);
        check ()
      done;
      !ok && Sim.Flow.inflight flow = 0)

let test_ratio_summary () =
  let s = Sim.Stats.ratio_summary [| 1.; 2.; 4.; 0. |] in
  Alcotest.(check int) "total" 4 s.Sim.Stats.total;
  Alcotest.(check int) "starved" 1 s.Sim.Stats.starved;
  check_float "p50 over live ratios" 2. s.Sim.Stats.p50;
  check_float "max ratio" 4. s.Sim.Stats.max_ratio;
  let even = Sim.Stats.ratio_summary [| 5.; 5.; 5. |] in
  Alcotest.(check int) "none starved" 0 even.Sim.Stats.starved;
  check_float "fair p99" 1. even.Sim.Stats.p99;
  let dead = Sim.Stats.ratio_summary [| 0.; 0. |] in
  Alcotest.(check int) "all starved" 2 dead.Sim.Stats.starved;
  check_float "quantiles zeroed, not inf" 0. dead.Sim.Stats.p99;
  check_float "max zeroed, not inf" 0. dead.Sim.Stats.max_ratio

let test_ratio_summary_rejects () =
  let raises f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "empty" true
    (raises (fun () -> Sim.Stats.ratio_summary [||]));
  Alcotest.(check bool) "negative" true
    (raises (fun () -> Sim.Stats.ratio_summary [| 1.; -2. |]));
  Alcotest.(check bool) "nan" true
    (raises (fun () -> Sim.Stats.ratio_summary [| nan |]));
  Alcotest.(check bool) "infinite rate" true
    (raises (fun () -> Sim.Stats.ratio_summary [| infinity |]))

let prop_ratio_summary_finite =
  QCheck.Test.make ~name:"ratio summary never emits inf or nan" ~count:300
    QCheck.(list_of_size Gen.(1 -- 40) (float_range 0. 1e9))
    (fun xs ->
      let s = Sim.Stats.ratio_summary (Array.of_list xs) in
      List.for_all Float.is_finite
        [ s.Sim.Stats.p50; s.Sim.Stats.p90; s.Sim.Stats.p99; s.Sim.Stats.max_ratio ]
      && s.Sim.Stats.starved <= s.Sim.Stats.total)

let test_rng_pareto () =
  let g = Sim.Rng.create ~seed:7 in
  let xm = 10. and alpha = 1.5 in
  let n = 20_000 in
  let draws = Array.init n (fun _ -> Sim.Rng.pareto g ~alpha ~xm) in
  Alcotest.(check bool) "all >= xm" true (Array.for_all (fun x -> x >= xm) draws);
  (* The heavy tail makes the sample mean unreliable; the median is
     xm * 2^(1/alpha) and concentrates fast. *)
  let med = Sim.Stats.median draws in
  let expect = xm *. Float.exp (Float.log 2. /. alpha) in
  Alcotest.(check bool)
    (Printf.sprintf "median %.3f within 5%% of %.3f" med expect)
    true
    (Float.abs (med -. expect) /. expect < 0.05);
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "bad alpha" true
    (raises (fun () -> Sim.Rng.pareto g ~alpha:0. ~xm));
  Alcotest.(check bool) "bad xm" true
    (raises (fun () -> Sim.Rng.pareto g ~alpha ~xm:(-1.)))

(* ------------------------------------------------------------------ *)
(* In-place ratio summary                                              *)
(* ------------------------------------------------------------------ *)

(* Independent oracle: the pre-columnar implementation (filtered copy of
   the live rates, {!Stats.percentile} per quantile).  The in-place path
   must reproduce it bit for bit. *)
let ratio_summary_oracle xs =
  let n = Array.length xs in
  let mx = Array.fold_left Float.max 0. xs in
  let live =
    Array.of_list (List.filter (fun x -> x > 0.) (Array.to_list xs))
  in
  let starved = n - Array.length live in
  if Array.length live = 0 then
    {
      Sim.Stats.total = n;
      starved;
      p50 = 0.;
      p90 = 0.;
      p99 = 0.;
      max_ratio = 0.;
    }
  else begin
    let ratios = Array.map (fun x -> mx /. x) live in
    let q p = Sim.Stats.percentile ratios p in
    {
      Sim.Stats.total = n;
      starved;
      p50 = q 50.;
      p90 = q 90.;
      p99 = q 99.;
      max_ratio =
        Float.max 1. (Array.fold_left Float.max neg_infinity ratios);
    }
  end

(* Rates for the oracle comparison: short lists of distinct rates;
   arrays of up to a few thousand rates over a few levels (many ties, so
   the selection partitions deep) with zeros in runs; and mostly
   starved arrays with one or two live rates. *)
let ratio_rates =
  let open QCheck.Gen in
  let short =
    list_size (1 -- 60) (oneof [ float_range 0. 1e9; return 0. ])
    >|= Array.of_list
  in
  let tied =
    list_size (1 -- 12) (float_range 1e-3 1e9) >>= fun levels ->
    let levels = Array.of_list levels in
    let run =
      oneof
        [
          (1 -- 40) >|= (fun k -> Array.make k 0.);
          (1 -- 150) >>= fun k -> array_repeat k (oneofa levels);
        ]
    in
    list_size (1 -- 30) run >|= Array.concat
  in
  let sparse =
    (1 -- 3000) >>= fun n ->
    list_size (1 -- 2) (pair (0 -- (n - 1)) (float_range 1e-3 1e9))
    >|= fun live ->
    let a = Array.make n 0. in
    List.iter (fun (i, x) -> a.(i) <- x) live;
    a
  in
  QCheck.make
    ~print:(fun a ->
      Printf.sprintf "%d rates: %s" (Array.length a)
        QCheck.Print.(array float a))
    (frequency [ (2, short); (2, tied); (1, sparse) ])

let prop_ratio_summary_in_place_matches =
  QCheck.Test.make
    ~name:"in-place ratio summary matches the copying oracle bit for bit"
    ~count:750 ratio_rates
    (fun a ->
      let got = Sim.Stats.ratio_summary_in_place (Array.copy a) in
      let via_copy = Sim.Stats.ratio_summary a in
      let expect = ratio_summary_oracle a in
      let beq x y = Int64.bits_of_float x = Int64.bits_of_float y in
      let same s1 s2 =
        s1.Sim.Stats.total = s2.Sim.Stats.total
        && s1.Sim.Stats.starved = s2.Sim.Stats.starved
        && beq s1.Sim.Stats.p50 s2.Sim.Stats.p50
        && beq s1.Sim.Stats.p90 s2.Sim.Stats.p90
        && beq s1.Sim.Stats.p99 s2.Sim.Stats.p99
        && beq s1.Sim.Stats.max_ratio s2.Sim.Stats.max_ratio
      in
      same got expect && same via_copy expect)

(* Degenerate inputs exercised directly against the in-place variant:
   the qcheck oracle above covers the bulk distribution, but the edge
   cases (empty, singleton, all-equal, all-starved, rejects) deserve
   named assertions that fail individually. *)
let test_ratio_summary_in_place_degenerate () =
  let raises f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "empty raises" true
    (raises (fun () -> Sim.Stats.ratio_summary_in_place [||]));
  let single = Sim.Stats.ratio_summary_in_place [| 3.5 |] in
  Alcotest.(check int) "single total" 1 single.Sim.Stats.total;
  Alcotest.(check int) "single starved" 0 single.Sim.Stats.starved;
  check_float "single p50" 1. single.Sim.Stats.p50;
  check_float "single p99" 1. single.Sim.Stats.p99;
  check_float "single max" 1. single.Sim.Stats.max_ratio;
  let equal = Sim.Stats.ratio_summary_in_place (Array.make 17 2.25) in
  Alcotest.(check int) "all-equal starved" 0 equal.Sim.Stats.starved;
  check_float "all-equal p50" 1. equal.Sim.Stats.p50;
  check_float "all-equal p99" 1. equal.Sim.Stats.p99;
  check_float "all-equal max" 1. equal.Sim.Stats.max_ratio;
  let dead = Sim.Stats.ratio_summary_in_place [| 0.; 0.; 0. |] in
  Alcotest.(check int) "all-starved count" 3 dead.Sim.Stats.starved;
  check_float "all-starved quantiles zeroed" 0. dead.Sim.Stats.p99;
  check_float "all-starved max zeroed" 0. dead.Sim.Stats.max_ratio;
  Alcotest.(check bool) "nan raises" true
    (raises (fun () -> Sim.Stats.ratio_summary_in_place [| 1.; nan |]));
  Alcotest.(check bool) "negative raises" true
    (raises (fun () -> Sim.Stats.ratio_summary_in_place [| -1. |]));
  Alcotest.(check bool) "infinite raises" true
    (raises (fun () -> Sim.Stats.ratio_summary_in_place [| 1.; infinity |]))

(* ------------------------------------------------------------------ *)
(* Population engine                                                   *)
(* ------------------------------------------------------------------ *)

(* Scaled-down census cell: same shape as E19 (Poisson arrivals over the
   front of the run, Pareto sizes, one bottleneck) but small enough for
   the test suite. *)
let population_cfg ?(n = 1500) ?(seed = 11) ?(key = "test/pop")
    ?(jitter_d = 0.) () =
  let mss = 1500 in
  let rate = 7.5e6 (* 60 Mbit/s *) in
  let load = 0.7 and arrival_frac = 0.6 in
  let xm = float_of_int (10 * mss) in
  let mean_size = 3. *. xm in
  let duration =
    float_of_int n *. mean_size /. (load *. rate *. arrival_frac)
  in
  {
    Sim.Population.n;
    duration;
    arrival_frac;
    rate;
    buffer = Some 262_144;
    rm = 0.02;
    mss;
    jitter_d;
    seed;
    key;
    alpha = 1.5;
    xm;
    size_cap = 1_000_000;
  }

let boxed_reno ~slot:_ ~prev:_ = Cca.instance_of (Reno.make ())

let goodputs_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
       a b

let test_population_recycles_slots () =
  let cfg = population_cfg () in
  let r = Sim.Population.run ~cca:boxed_reno cfg in
  Alcotest.(check int) "spawned = n" cfg.Sim.Population.n r.Sim.Population.spawned;
  Alcotest.(check bool)
    "most flows complete" true
    (r.Sim.Population.completed > cfg.Sim.Population.n / 2);
  (* The point of the engine: resources scale with peak concurrency.
     Each slot owns one flow-table row for life, so the slot bound is
     also the table's. *)
  Alcotest.(check bool)
    (Printf.sprintf "slots (%d) well below n" r.Sim.Population.slots)
    true
    (r.Sim.Population.slots < cfg.Sim.Population.n / 4);
  Alcotest.(check bool)
    "slots cover peak concurrency" true
    (r.Sim.Population.slots >= r.Sim.Population.peak_active);
  Alcotest.(check bool)
    "event queue bounded by concurrency" true
    (r.Sim.Population.peak_pending < 4096);
  Alcotest.(check int) "no delay-line fallbacks" 0 r.Sim.Population.fallbacks;
  Alcotest.(check bool)
    "goodputs finite and non-negative" true
    (Array.for_all
       (fun g -> Float.is_finite g && g >= 0.)
       r.Sim.Population.goodputs);
  Alcotest.(check bool)
    "someone made progress" true
    (Array.exists (fun g -> g > 0.) r.Sim.Population.goodputs)

(* Every float field is checked NaN-safely and named.  Unchecked, a NaN
   [jitter_d] runs as if it were 0 and a NaN [rm] fails late inside the
   ACK delay line. *)
let test_population_rejects_bad_config () =
  let base = population_cfg ~n:10 () in
  let rejects (name, field, cfg) =
    match Sim.Population.run ~cca:boxed_reno cfg with
    | _ -> Alcotest.failf "%s accepted" name
    | exception Invalid_argument msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %S names %s" name msg field)
          true
          (String.starts_with ~prefix:("Population.run: " ^ field) msg)
  in
  List.iter rejects
    Sim.Population.
      [
        ("n 0", "n", { base with n = 0 });
        ("duration nan", "duration", { base with duration = nan });
        ("duration inf", "duration", { base with duration = infinity });
        ("duration 0", "duration", { base with duration = 0. });
        ("arrival_frac nan", "arrival_frac", { base with arrival_frac = nan });
        ("arrival_frac 1.5", "arrival_frac", { base with arrival_frac = 1.5 });
        ("rate nan", "rate", { base with rate = nan });
        ("rate inf", "rate", { base with rate = infinity });
        ("rate 0", "rate", { base with rate = 0. });
        ("buffer -1", "buffer", { base with buffer = Some (-1) });
        ("rm nan", "rm", { base with rm = nan });
        ("rm inf", "rm", { base with rm = infinity });
        ("rm -1", "rm", { base with rm = -1. });
        ("mss 0", "mss", { base with mss = 0 });
        ("jitter_d nan", "jitter_d", { base with jitter_d = nan });
        ("jitter_d inf", "jitter_d", { base with jitter_d = infinity });
        ("jitter_d -1", "jitter_d", { base with jitter_d = -1. });
        ("alpha nan", "alpha", { base with alpha = nan });
        ("alpha 0", "alpha", { base with alpha = 0. });
        ("xm nan", "xm", { base with xm = nan });
        ("xm inf", "xm", { base with xm = infinity });
        ("size_cap below mss", "size_cap", { base with size_cap = 1000 });
      ];
  (* The boundary values stay legal. *)
  ignore
    (Sim.Population.run ~cca:boxed_reno
       { base with rm = 0.; jitter_d = 0.; arrival_frac = 1.; buffer = None })

(* The goodput column is allocated without a fill: every flow writes its
   own entry once, at completion or in the horizon sweep, and [run]
   raises unless all n were written.  With [arrival_frac] = 1 the last
   arrival lands on the horizon itself and is scored by the sweep over
   a zero lifetime. *)
let test_population_small_n_goodputs () =
  List.iter
    (fun n ->
      let cfg = { (population_cfg ~n ()) with Sim.Population.arrival_frac = 1. } in
      let r = Sim.Population.run ~cca:boxed_reno cfg in
      Alcotest.(check int) (Printf.sprintf "n=%d: one goodput per flow" n) n
        (Array.length r.Sim.Population.goodputs);
      Array.iteri
        (fun i g ->
          Alcotest.(check bool)
            (Printf.sprintf "n=%d: goodput %d = %g finite and >= 0" n i g)
            true
            (Float.is_finite g && g >= 0.))
        r.Sim.Population.goodputs)
    [ 1; 2; 5; 40 ]

let test_population_deterministic () =
  let cfg = population_cfg ~n:800 ~jitter_d:0.02 () in
  let r1 = Sim.Population.run ~cca:boxed_reno cfg in
  let r2 = Sim.Population.run ~cca:boxed_reno cfg in
  Alcotest.(check bool)
    "goodputs bit-identical across runs" true
    (goodputs_equal r1.Sim.Population.goodputs r2.Sim.Population.goodputs);
  Alcotest.(check int)
    "completed equal" r1.Sim.Population.completed r2.Sim.Population.completed

(* System-level trace equivalence: a whole census population driven by
   columnar recycled CCA instances produces bit-identical goodputs to one
   driven by fresh instances of the boxed reference implementations in
   [Cca_oracle] — per slot, alternating CCA kinds to exercise the
   mixed-cell matrix. *)
let test_population_columnar_equivalence () =
  let cfg = population_cfg ~n:800 ~key:"test/pop-col" ~jitter_d:0.02 () in
  let boxed ~slot ~prev:_ =
    Cca.instance_of
      (if slot mod 2 = 0 then Cca_oracle.reno () else Cca_oracle.copa ())
  in
  let reno_cols = Columns.create ~nfields:Reno.nfields () in
  let copa_cols = Columns.create ~nfields:Copa.nfields () in
  let columnar ~slot ~prev =
    match prev with
    | Some i ->
        (match i.Cca.reset with
        | Some r -> r ()
        | None -> Alcotest.fail "columnar instance lost its reset");
        i
    | None ->
        if slot mod 2 = 0 then Reno.make_in reno_cols
        else Copa.make_in copa_cols
  in
  let rb = Sim.Population.run ~cca:boxed cfg in
  let rc = Sim.Population.run ~cca:columnar cfg in
  Alcotest.(check bool)
    "columnar goodputs bit-identical to boxed" true
    (goodputs_equal rb.Sim.Population.goodputs rc.Sim.Population.goodputs);
  Alcotest.(check int)
    "completed equal" rb.Sim.Population.completed rc.Sim.Population.completed;
  Alcotest.(check bool)
    "arena rows bounded by slots" true
    (Columns.rows reno_cols + Columns.rows copa_cols
    <= rb.Sim.Population.slots)

(* The census engine against the engine it replaced
   ([Population_oracle], its own link, delay lines and slot store): on
   random small cells, whatever the load, buffer, jitter, CCA and seed,
   the same population must give bit-identical goodputs and the same
   completions, concurrency, event-queue peak, slot count and fallbacks.
   The event-queue peak pins the event schedule, not just the results. *)
let columnar_factory kind =
  let recycle (i : Cca.instance) =
    match i.Cca.reset with Some r -> r (); i | None -> assert false
  in
  match kind with
  | `Reno ->
      let cols = Columns.create ~nfields:Reno.nfields () in
      fun ~slot:_ ~prev ->
        (match prev with Some i -> recycle i | None -> Reno.make_in cols)
  | `Copa ->
      let cols = Columns.create ~nfields:Copa.nfields () in
      fun ~slot:_ ~prev ->
        (match prev with Some i -> recycle i | None -> Copa.make_in cols)
  | `Vegas ->
      let cols = Columns.create ~nfields:Vegas.nfields () in
      fun ~slot:_ ~prev ->
        (match prev with Some i -> recycle i | None -> Vegas.make_in cols)

let census_cell =
  let open QCheck.Gen in
  let* n = int_range 1 400 in
  let* load = float_range 0.5 1.6 in
  let* buffer = opt (int_range 5 40) in
  let* jitter_ms = frequency [ (1, return 0.); (2, float_range 1. 30.) ] in
  let* kind = oneofl [ `Reno; `Copa; `Vegas ] in
  let* seed = int_bound 1_000_000 in
  let mss = 1500 and rate = 7.5e6 in
  let xm = float_of_int (10 * mss) in
  return
    ( kind,
      {
        Sim.Population.n;
        duration = float_of_int n *. 3. *. xm /. (load *. rate *. 0.6);
        arrival_frac = 0.6;
        rate;
        buffer = Option.map (fun p -> p * mss) buffer;
        rm = 0.02;
        mss;
        jitter_d = jitter_ms *. 1e-3;
        seed;
        key = "test/census-oracle";
        alpha = 1.5;
        xm;
        size_cap = 1_000_000;
      } )

let print_census_cell (kind, (c : Sim.Population.config)) =
  Printf.sprintf "%s n=%d duration=%g buffer=%s jitter_d=%g seed=%d"
    (match kind with `Reno -> "reno" | `Copa -> "copa" | `Vegas -> "vegas")
    c.n c.duration
    (match c.buffer with None -> "inf" | Some b -> string_of_int b)
    c.jitter_d c.seed

let prop_population_matches_oracle =
  QCheck.Test.make ~name:"census on Network matches the old engine" ~count:150
    (QCheck.make ~print:print_census_cell census_cell)
    (fun (kind, cfg) ->
      let lib = Sim.Population.run ~cca:(columnar_factory kind) cfg in
      let ref_ = Population_oracle.run ~cca:(columnar_factory kind) cfg in
      let fields (r : Sim.Population.result) =
        [ r.completed; r.peak_active; r.peak_pending; r.slots; r.fallbacks ]
      in
      if not (goodputs_equal lib.goodputs ref_.goodputs) then
        QCheck.Test.fail_report "goodputs differ";
      if fields lib <> fields ref_ then
        QCheck.Test.fail_reportf
          "completed/peak_active/peak_pending/slots/fallbacks %s <> %s"
          (String.concat "/" (List.map string_of_int (fields lib)))
          (String.concat "/" (List.map string_of_int (fields ref_)));
      true)

(* An overloaded cell with an unbounded buffer: queueing outgrows the
   200 ms minimum RTO, so short flows complete on spurious timeouts
   with packets still queued.  Their slots must wait for those packets'
   ACKs before the next flow takes them.  Freed at completion instead,
   slots are recycled early and these three cells need fewer of them
   than the old engine. *)
let test_population_recycles_drained_slots () =
  List.iter
    (fun seed ->
      let mss = 1500 and rate = 7.5e6 and n = 400 and load = 1.6 in
      let xm = float_of_int (10 * mss) in
      let cfg =
        {
          Sim.Population.n;
          duration = float_of_int n *. 3. *. xm /. (load *. rate *. 0.6);
          arrival_frac = 0.6;
          rate;
          buffer = None;
          rm = 0.02;
          mss;
          jitter_d = 0.;
          seed;
          key = "test/census-overload";
          alpha = 1.5;
          xm;
          size_cap = 1_000_000;
        }
      in
      let lib = Sim.Population.run ~cca:(columnar_factory `Reno) cfg in
      let ref_ = Population_oracle.run ~cca:(columnar_factory `Reno) cfg in
      Alcotest.(check int) (Printf.sprintf "seed %d: slots" seed) ref_.slots
        lib.slots;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: goodputs bit-identical" seed)
        true
        (goodputs_equal lib.goodputs ref_.goodputs))
    [ 13; 41; 80 ]

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "sim"
    [
      ( "event_queue",
        [
          Alcotest.test_case "ordering" `Quick test_eq_ordering;
          Alcotest.test_case "fifo ties" `Quick test_eq_fifo_ties;
          Alcotest.test_case "past rejected" `Quick test_eq_past_rejected;
          Alcotest.test_case "nested" `Quick test_eq_nested_scheduling;
          Alcotest.test_case "run_until excludes future" `Quick
            test_eq_run_until_excludes_future;
          Alcotest.test_case "handle reschedule" `Quick test_eq_handle_reschedule;
          Alcotest.test_case "handle cancel" `Quick test_eq_handle_cancel;
          Alcotest.test_case "handle fifo ties" `Quick test_eq_handle_fifo_ties;
          Alcotest.test_case "action sees its handle idle" `Quick
            test_eq_action_sees_idle_handle;
          Alcotest.test_case "action raises" `Quick test_eq_action_raises;
          Alcotest.test_case "action re-entry" `Quick test_eq_action_reentry;
          Alcotest.test_case "step hook" `Quick
            test_eq_step_hook_observes_every_step;
          Alcotest.test_case "pop and cancel release closures" `Quick
            test_eq_releases_closures;
          qt prop_eq_stable_order;
          qt prop_eq_matches_reference;
          qt prop_eq_deep_matches_reference;
          Alcotest.test_case "ids recycled" `Quick test_eq_recycles_ids;
          Alcotest.test_case "misuse rejected" `Quick test_eq_misuse_rejected;
          Alcotest.test_case "peak at 100k flows" `Slow test_eq_peak_100k_flows;
        ] );
      ( "delay_line",
        [
          Alcotest.test_case "fallback counted" `Quick
            test_delay_line_fallback_counted;
          Alcotest.test_case "one pending event" `Quick
            test_delay_line_one_pending_event;
          qt prop_delay_line_matches_naive;
        ] );
      ( "source",
        [ Alcotest.test_case "poisson count" `Quick test_source_poisson_count ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "stream order independent" `Quick
            test_rng_stream_order_independent;
          Alcotest.test_case "stream labels decorrelated" `Quick
            test_rng_stream_labels_decorrelated;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "pareto" `Quick test_rng_pareto;
          Alcotest.test_case "bool probability" `Quick test_rng_bool_probability;
          qt prop_rng_float_range;
          Alcotest.test_case "pinned stream" `Quick test_rng_pinned_stream;
          Alcotest.test_case "minor words budget" `Quick
            test_rng_minor_words_budget;
        ] );
      ( "stats",
        [
          Alcotest.test_case "online" `Quick test_online_stats;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "percentile single" `Quick test_percentile_single;
          Alcotest.test_case "percentile invalid" `Quick test_percentile_invalid;
          Alcotest.test_case "jain" `Quick test_jain;
          Alcotest.test_case "max min ratio" `Quick test_max_min_ratio;
          Alcotest.test_case "online empty is nan" `Quick test_online_empty_is_nan;
          Alcotest.test_case "online singleton" `Quick test_online_singleton;
          Alcotest.test_case "max min ratio rejects negative" `Quick
            test_max_min_ratio_rejects_negative;
          Alcotest.test_case "ratio summary" `Quick test_ratio_summary;
          Alcotest.test_case "ratio summary rejects" `Quick
            test_ratio_summary_rejects;
          Alcotest.test_case "ratio summary in place degenerate" `Quick
            test_ratio_summary_in_place_degenerate;
          qt prop_jain_bounds;
          qt prop_online_matches_batch_mean;
          qt prop_ratio_summary_finite;
          qt prop_ratio_summary_in_place_matches;
        ] );
      ( "series",
        [
          Alcotest.test_case "value_at" `Quick test_series_value_at;
          Alcotest.test_case "rejects decreasing" `Quick test_series_rejects_decreasing;
          Alcotest.test_case "integral" `Quick test_series_integral;
          Alcotest.test_case "window" `Quick test_series_window;
          Alcotest.test_case "degenerate windows" `Quick
            test_series_degenerate_windows;
          Alcotest.test_case "resample" `Quick test_series_resample;
          Alcotest.test_case "map" `Quick test_series_map;
          Alcotest.test_case "first last" `Quick test_series_first_last;
          qt prop_series_integral_additive;
          qt prop_series_window_queries_match_naive;
          qt prop_series_group_matches_standalone;
          Alcotest.test_case "group rejects" `Quick test_series_group_rejects;
          Alcotest.test_case "equal after queries" `Quick
            test_series_equal_after_queries;
          Alcotest.test_case "append major-heap budget" `Quick
            test_series_append_major_budget;
        ] );
      ( "jitter",
        [
          Alcotest.test_case "constant" `Quick test_jitter_constant;
          Alcotest.test_case "trace policy" `Quick test_jitter_trace_policy;
          Alcotest.test_case "no reorder" `Quick test_jitter_no_reorder;
          Alcotest.test_case "clamps and counts" `Quick test_jitter_clamps_and_counts;
          Alcotest.test_case "negative clamped" `Quick test_jitter_negative_clamped;
          Alcotest.test_case "violation accounting" `Quick
            test_jitter_violation_accounting;
          Alcotest.test_case "bound riding legal" `Quick
            test_jitter_no_violation_no_excess;
          Alcotest.test_case "create validates" `Quick test_jitter_create_validates;
          qt prop_jitter_uniform_in_bounds;
        ] );
      ( "link",
        [
          Alcotest.test_case "rate_at piecewise" `Quick test_rate_at_piecewise;
          Alcotest.test_case "transmit constant" `Quick test_transmit_end_constant;
          Alcotest.test_case "transmit across segments" `Quick
            test_transmit_end_across_segments;
          Alcotest.test_case "transmit through zero" `Quick
            test_transmit_end_through_zero;
          Alcotest.test_case "dead link" `Quick test_transmit_end_dead_link;
          Alcotest.test_case "fifo service" `Quick test_link_fifo_service;
          Alcotest.test_case "drop tail" `Quick test_link_drop_tail;
          Alcotest.test_case "queue delay" `Quick test_link_queue_delay;
          Alcotest.test_case "counters under full buffer" `Quick
            test_link_counters_under_full_buffer;
          Alcotest.test_case "set_buffer" `Quick test_link_set_buffer;
          QCheck_alcotest.to_alcotest prop_link_conserves_bytes;
          QCheck_alcotest.to_alcotest prop_transmit_end_consistent_with_rate;
          QCheck_alcotest.to_alcotest prop_transmit_end_exact_integral;
        ] );
      ( "aqm",
        [
          Alcotest.test_case "link marking" `Quick test_link_ecn_marking;
        ] );
      ( "drr",
        [
          Alcotest.test_case "bad quantum" `Quick test_drr_rejects_bad_quantum;
          Alcotest.test_case "interleaves" `Quick test_drr_interleaves_backlogged_flows;
          Alcotest.test_case "unequal demand" `Quick test_drr_equal_service_unequal_demand;
          Alcotest.test_case "work conserving" `Quick test_drr_work_conserving;
        ] );
      ( "flow",
        [
          Alcotest.test_case "rto fires" `Quick test_flow_rto_fires;
          Alcotest.test_case "initial pacing" `Quick test_flow_initial_pacing_spreads_sends;
          Alcotest.test_case "dupack detection" `Quick test_flow_dupack_loss_detection;
          Alcotest.test_case "ce propagates" `Quick test_flow_ce_propagates;
          Alcotest.test_case "table memory bounded" `Quick
            test_flow_table_memory_bounded;
          Alcotest.test_case "census memory bounded" `Slow
            test_census_memory_bounded;
          qt prop_flow_ring_growth_conservation;
        ] );
      ( "units",
        [
          Alcotest.test_case "roundtrip" `Quick test_units_roundtrip;
          Alcotest.test_case "extras" `Quick test_units_extras;
        ] );
      ( "network",
        [
          Alcotest.test_case "reno utilizes" `Quick test_network_reno_utilizes;
          Alcotest.test_case "vegas queue target" `Quick test_network_vegas_queue_target;
          Alcotest.test_case "rtt floor" `Quick test_network_rtt_floor;
          Alcotest.test_case "two reno share" `Quick test_network_two_flows_share;
          Alcotest.test_case "constant jitter inflates rtt" `Quick
            test_network_constant_jitter_inflates_rtt;
          Alcotest.test_case "random loss counted" `Quick test_network_random_loss_counted;
          Alcotest.test_case "delayed acks batch" `Quick test_network_delayed_ack_batches;
          Alcotest.test_case "delayed ack timeout flush" `Quick
            test_network_delayed_ack_timeout_flush;
          Alcotest.test_case "ack aggregation quantizes" `Quick
            test_network_ack_aggregation_quantizes;
          Alcotest.test_case "initial queue" `Quick
            test_network_initial_queue_delays_first_rtt;
          Alcotest.test_case "config validation" `Quick test_network_config_validation;
          Alcotest.test_case "ack policy validation" `Quick
            test_network_ack_policy_validation;
          Alcotest.test_case "deterministic" `Quick test_network_deterministic;
          Alcotest.test_case "state hash separates states" `Quick
            test_network_state_hash_separates;
          Alcotest.test_case "accessor lengths" `Quick test_network_accessor_lengths;
          Alcotest.test_case "sized flow completes" `Quick
            test_network_sized_flow_completes;
          Alcotest.test_case "shared data line" `Quick
            test_network_shared_data_line;
          Alcotest.test_case "spawn rejects" `Quick test_network_spawn_rejects;
          Alcotest.test_case "event queue stays small" `Quick
            test_network_event_queue_peak;
          Alcotest.test_case "minor-words budget" `Quick
            test_network_minor_words_budget;
          Alcotest.test_case "monitor overhead" `Slow test_monitor_overhead;
          qt prop_network_physical_invariants;
        ] );
      ( "population",
        [
          Alcotest.test_case "recycles slots" `Quick
            test_population_recycles_slots;
          Alcotest.test_case "deterministic" `Quick test_population_deterministic;
          Alcotest.test_case "small n goodputs" `Quick
            test_population_small_n_goodputs;
          Alcotest.test_case "columnar equivalence" `Quick
            test_population_columnar_equivalence;
          Alcotest.test_case "rejects bad config" `Quick
            test_population_rejects_bad_config;
          qt prop_population_matches_oracle;
          Alcotest.test_case "recycles only drained slots" `Quick
            test_population_recycles_drained_slots;
        ] );
    ]

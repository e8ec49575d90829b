(* fluid-census: Fluid.Census cells of 200 000 flows (the E19 census runs
   a million; the flow count only sets the horizon) for reno/copa/vegas
   at 0 and 20 ms of jitter, plus the full E14 sweep on the fluid and hybrid
   backends.  No packet layer runs here apart from the hybrid's packet
   windows.  The seed is the census population seed; the E14 sweeps have
   no random input. *)

open Harness
module S = Scenario_e14

let name = "fluid-census"
let multipliers, e14_duration = S.params ~quick:false
let n = 200_000
let laws = [ "reno"; "copa"; "vegas" ]
let jitters = [ 0.; 0.02 ]
let cells = List.concat_map (fun law -> List.map (fun j -> (law, j)) jitters) laws
let load = 0.7
let duration = W_census.duration_for ~load n

let law_of = function
  | "reno" -> Ccac.Model.reno_fluid
  | "copa" -> Ccac.Model.copa_fluid ()
  | "vegas" -> Ccac.Model.vegas_fluid ()
  | other -> invalid_arg other

let census_config ~seed ~wrap (law, jitter_d) =
  Fluid.Census.config
    ~key:
      (Printf.sprintf "census/std/%s/jit=%gms/n=%d/backend=fluid" law
         (jitter_d *. 1e3) n)
    ~seed ~n ~duration ~arrival_frac:W_census.arrival_frac ~rate:W_census.rate
    ~rm:W_census.rm ~mss:(float_of_int W_census.mss) ~jitter_d
    ~alpha:W_census.alpha ~xm:W_census.xm
    ~size_cap:(float_of_int W_census.size_cap)
    (wrap (law_of law))

let sim_s =
  (duration *. float_of_int (List.length cells)) +. (2. *. S.sim_s ~quick:false)

let flows = n * List.length cells

let setup ~seed =
  let stop (law : Ccac.Model.fluid) =
    { law with f_init = (fun ~mss:_ -> raise Setup_done) }
  in
  let census =
    List.fold_left
      (fun a cell ->
        let cfg = census_config ~seed ~wrap:stop cell in
        a +. setup_until_first_call (fun () -> ignore (Fluid.Census.run cfg)))
      0. cells
  in
  let sweeps =
    snd
      (Ledger.time (fun () ->
           List.iter
             (fun m ->
               ignore (Fluid.Engine.create (S.fluid_config S.plain ~duration:e14_duration ~m));
               ignore (S.hybrid_config S.plain ~duration:e14_duration ~m))
             multipliers))
  in
  census +. sweeps

(* V6 tolerance: one byte plus a part per million of the offered load. *)
let conserved ~offered err = err <= 1. +. (1e-6 *. offered)

let check_census cell (r : Fluid.Census.result) s =
  let law, j = cell in
  let id = Printf.sprintf "fluid census %s jit=%gms" law (j *. 1e3) in
  check (id ^ ": byte conservation within the V6 tolerance")
    (conserved ~offered:r.offered_bytes r.conservation_error);
  check (id ^ ": well-formed summary")
    (s.Sim.Stats.total = n && Float.is_finite s.Sim.Stats.p99);
  digest_floats
    [ fi r.completed; fi s.Sim.Stats.starved; s.Sim.Stats.p50; s.Sim.Stats.p90;
      s.Sim.Stats.p99; s.Sim.Stats.max_ratio; fi r.peak_active; fi r.steps ]

let check_fluid_run eng =
  check "fluid E14: byte conservation within the V6 tolerance"
    (conserved ~offered:(Fluid.Engine.offered_total eng)
       (Fluid.Engine.conservation_error eng))

let check_hybrid_run (r : Fluid.Hybrid.result) =
  check "hybrid E14: chained byte ledger within 1 byte per handoff"
    (r.Fluid.Hybrid.conservation_error <= float_of_int r.Fluid.Hybrid.handoffs)

let finish ~seed ~census ~fluid ~hybrid =
  check_reference "fluid census summaries" ~seed ~expected:Reference.fluid_census
    (String.concat "/" census);
  check_digest "fluid E14 ratio curve" ~expected:Reference.e14_fluid
    (digest_floats fluid);
  check_digest "hybrid E14 ratio curve" ~expected:Reference.e14_hybrid
    (digest_floats hybrid);
  S.check_boundary "fluid E14 curve" multipliers fluid;
  S.check_boundary "hybrid E14 curve" multipliers hybrid;
  String.concat "/" (census @ [ digest_floats fluid; digest_floats hybrid ])

(* One pass.  [w] wraps the closures; [sp] times each top-level call
   under a layer name.  With [measure_live], the census cells also report
   the heap bytes their results hold (measured outside every span). *)
let run ~seed ~(w : S.wrap) ~(sp : spans) ~measure_live ~sample =
  let live = ref 0. in
  let census =
    List.map
      (fun cell ->
        sample ();
        let cfg = census_config ~seed ~wrap:w.law cell in
        let base = if measure_live then live_bytes () else 0. in
        let r = sp.span "census" (fun () -> Fluid.Census.run cfg) in
        let s =
          sp.span "summary" (fun () ->
              Sim.Stats.ratio_summary_in_place r.Fluid.Census.goodputs)
        in
        if measure_live then live := !live +. (live_bytes () -. base);
        (r, check_census cell r s))
      cells
  in
  sample ();
  let fluid =
    List.map
      (fun m ->
        let eng =
          sp.span "fluid" (fun () ->
              Fluid.Engine.run_config (S.fluid_config w ~duration:e14_duration ~m))
        in
        check_fluid_run eng;
        (eng, S.fluid_ratio eng))
      multipliers
  in
  sample ();
  let hybrid =
    List.map
      (fun m ->
        let r =
          sp.span "hybrid" (fun () -> Fluid.Hybrid.run (S.hybrid_config w ~duration:e14_duration ~m))
        in
        check_hybrid_run r;
        (r, S.hybrid_ratio r))
      multipliers
  in
  let digest =
    finish ~seed ~census:(List.map snd census) ~fluid:(List.map snd fluid)
      ~hybrid:(List.map snd hybrid)
  in
  (List.map fst census, List.map fst fluid, List.map fst hybrid, digest, !live)

(* Once per process, outside the timed passes. *)
let builders_match_experiment =
  lazy
    (S.check_against_experiment ~quick:false ~backend:Fluid.Backend.Fluid
       (S.fluid_point S.plain);
     S.check_against_experiment ~quick:false ~backend:Fluid.Backend.Hybrid
       (S.hybrid_point S.plain))

let pass ~seed ~sample =
  Lazy.force builders_match_experiment;
  let sp, total = span_table () in
  let _, _, _, digest, live =
    run ~seed ~w:S.plain ~sp ~measure_live:true ~sample
  in
  { wall = total (); digest; sim_s; flows; live_bytes = live }

let traced ~seed =
  let l = Ledger.create () in
  let tbl, total = span_table () in
  let census_setup = ref 0. and census_words = ref 0. in
  (* Census runs also close their set-up at the first law init, and
     count their allocation. *)
  let sp =
    {
      span =
        (fun name f ->
          if name <> "census" then tbl.span name f
          else begin
            Ledger.arm l;
            let w0 = Gc.minor_words () in
            let t0 = Ledger.now_ns () in
            let r = tbl.span name f in
            census_words := !census_words +. (Gc.minor_words () -. w0);
            census_setup :=
              !census_setup +. Ledger.secs (l.Ledger.first_call - t0);
            r
          end);
    }
  in
  let (census, fluid, hybrid, digest, _), wall =
    Ledger.time (fun () -> run ~seed ~w:(S.traced l) ~sp ~measure_live:false ~sample:ignore)
  in
  Ledger.close_packet_window l (Ledger.now_ns ());
  let spent name = total ~name () in
  let census_steps =
    List.fold_left (fun a r -> a + r.Fluid.Census.steps) 0 census
  in
  let steps =
    census_steps + List.fold_left (fun a e -> a + Fluid.Engine.steps e) 0 fluid
  in
  let law = Ledger.law_s l and cca = Ledger.cca_s l in
  let jitter = Ledger.jitter_s l in
  let max_of f xs = List.fold_left (fun a x -> Float.max a (f x)) 0. xs in
  let engine_s = spent "census" -. !census_setup +. spent "fluid" in
  {
    t_pass = { wall; digest; sim_s; flows; live_bytes = 0. };
    layers =
      Layers.cca l ~wall
      @ Layers.jitter l
      @ [
          m "fluid.steps" "count" (fi steps);
          m "fluid.ns_per_step" "ns" (ratio (engine_s *. 1e9) (fi steps));
          m "fluid.law_updates" "count" (fi l.Ledger.law_updates);
          m "fluid.law_ns" "ns" (Layers.per_call law l.Ledger.law_updates);
          m "fluid.law_frac" "ratio" (law /. wall);
          m "fluid.peak_active" "count"
            (max_of (fun r -> fi r.Fluid.Census.peak_active) census);
          m "fluid.conservation_error_bytes" "bytes"
            (Float.max
               (max_of (fun r -> r.Fluid.Census.conservation_error) census)
               (max_of Fluid.Engine.conservation_error fluid));
          m "fluid.minor_words_per_step" "words"
            (ratio !census_words (fi census_steps));
          m "hybrid.handoffs" "count"
            (fi (List.fold_left (fun a r -> a + r.Fluid.Hybrid.handoffs) 0 hybrid));
          m "hybrid.packet_sim_frac" "ratio"
            (ratio (Ledger.secs l.Ledger.packet_ns) (spent "hybrid"));
          m "hybrid.packet_cca_builds" "count" (fi l.Ledger.packet_cca_builds);
          m "hybrid.ledger_error_bytes" "bytes"
            (max_of (fun r -> r.Fluid.Hybrid.conservation_error) hybrid);
        ];
    self_s =
      [ ("fluid.setup", !census_setup); ("fluid.law", law); ("jitter", jitter);
        ("cca", cca);
        ( "fluid.engine",
          spent "census" -. !census_setup +. spent "fluid" +. spent "hybrid"
          -. law -. jitter -. cca );
        ("summary", spent "summary") ];
  }

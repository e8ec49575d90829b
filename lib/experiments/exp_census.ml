(* The starvation census: a churning population of finite flows per
   (variant, CCA, jitter) cell.  Arrivals are Poisson over the first 60%
   of the horizon, sizes are Pareto(alpha = 1.5) — most flows a few
   segments, a few elephants — and each flow's rate is its goodput over
   its own lifetime.  The cell's verdict is a {!Sim.Stats.ratio_summary}:
   finite throughput-ratio quantiles plus an explicit starved count,
   never an infinite ratio.

   Cells run on {!Sim.Population}: a slot pool sized by peak concurrency
   streams the whole population through recycled flows and columnar
   (arena-row) CCA state, which is what lets the full census put one
   million flows through one machine.  Jobs are silent — each cell's
   JSON line and the report table are printed by the merge in the parent
   — so -j 1 and forked runs are byte-identical. *)

type cell = {
  variant : string; (* "std" | "heavy" *)
  cca_name : string;
  backend : string; (* "packet" | "fluid" | "hybrid" *)
  jitter_ms : float;
  flows : int;
  completed : int;
  summary : Sim.Stats.ratio_summary;
  peak_pending : int;
  peak_active : int;
  slots : int;
  fallbacks : int;
}

let mss = Cca.default_mss
let rate = Sim.Units.mbps 480.
let rm = 0.02
let arrival_frac = 0.6
let alpha = 1.5
let xm = float_of_int (10 * mss)
let size_cap = 10_000_000
let jitter_d = 0.02

(* Pareto(1.5) mean is 3 xm; the cap only trims the far tail, so this
   closed form is an adequate sizing heuristic, not an identity. *)
let mean_size = alpha /. (alpha -. 1.) *. xm

let duration_for ~load n =
  Float.max 5. (float_of_int n *. mean_size /. (load *. rate *. arrival_frac))

(* The standard census offers 70% load against an unbounded buffer; the
   starvation-heavy variant overdrives a 20-packet buffer at 140% load,
   so drops — not just latecomer disadvantage — shape the distribution. *)
type variant = {
  v_name : string;
  v_load : float;
  v_buffer : int option;
  v_n_full : int;
}

let std = { v_name = "std"; v_load = 0.7; v_buffer = None; v_n_full = 1_000_000 }

let heavy =
  { v_name = "heavy"; v_load = 1.4; v_buffer = Some (20 * mss);
    v_n_full = 250_000 }

let population v ~quick = if quick then 250 else v.v_n_full

(* One arena per cell: every flow incarnation of the cell lives in (and
   returns to) the same flat float rows.  [prev] is always resettable
   here because a cell is single-CCA. *)
let columnar_factory cca_name =
  let recycle i =
    match i.Cca.reset with Some r -> r (); i | None -> assert false
  in
  match cca_name with
  | "copa" ->
      let cols = Columns.create ~nfields:Copa.nfields () in
      fun ~slot:_ ~prev ->
        (match prev with Some i -> recycle i | None -> Copa.make_in cols)
  | "reno" ->
      let cols = Columns.create ~nfields:Reno.nfields () in
      fun ~slot:_ ~prev ->
        (match prev with Some i -> recycle i | None -> Reno.make_in cols)
  | "vegas" ->
      let cols = Columns.create ~nfields:Vegas.nfields () in
      fun ~slot:_ ~prev ->
        (match prev with Some i -> recycle i | None -> Vegas.make_in cols)
  | name -> invalid_arg ("census: no columnar factory for " ^ name)

let cell_key ~variant ~cca_name ~backend ~jitter_d ~n =
  Printf.sprintf "census/%s/%s/jit=%gms/n=%d/backend=%s" variant.v_name
    cca_name (jitter_d *. 1e3) n
    (Fluid.Backend.to_string backend)

let run_cell_packet ~variant ~cca_name ~backend ~jitter_d ~n ~seed =
  let key = cell_key ~variant ~cca_name ~backend ~jitter_d ~n in
  let cfg =
    {
      Sim.Population.n;
      duration = duration_for ~load:variant.v_load n;
      arrival_frac;
      rate;
      buffer = variant.v_buffer;
      rm;
      mss;
      jitter_d;
      seed;
      key;
      alpha;
      xm;
      size_cap;
    }
  in
  let r = Sim.Population.run ~cca:(columnar_factory cca_name) cfg in
  (* In place: the goodput column is ours and n can be 10^6 — no sorted
     copies. *)
  let summary = Sim.Stats.ratio_summary_in_place r.Sim.Population.goodputs in
  {
    variant = variant.v_name;
    cca_name;
    backend = Fluid.Backend.to_string backend;
    jitter_ms = jitter_d *. 1e3;
    flows = n;
    completed = r.Sim.Population.completed;
    summary;
    peak_pending = r.Sim.Population.peak_pending;
    peak_active = r.Sim.Population.peak_active;
    slots = r.Sim.Population.slots;
    fallbacks = r.Sim.Population.fallbacks;
  }

(* The fluid census: same population law (identical labeled Rng streams
   would be ideal, but the fluid census draws its own streams under the
   cell key, so the workload is statistically — not sample-for-sample —
   the same).  Per-flow law state is admitted/released with the flow, so
   peak concurrent state rows play the role the slot pool plays on the
   packet side; the event-queue column has no fluid analogue and
   reports as zero. *)
let run_cell_fluid ~variant ~cca_name ~backend ~jitter_d ~n ~seed =
  let key = cell_key ~variant ~cca_name ~backend ~jitter_d ~n in
  let r =
    Fluid.Census.run
      (Fluid.Census.config ~key ~seed ~n
         ~duration:(duration_for ~load:variant.v_load n)
         ~arrival_frac ~rate
         ?buffer:(Option.map float_of_int variant.v_buffer)
         ~rm ~mss:(float_of_int mss) ~jitter_d ~alpha ~xm
         ~size_cap:(float_of_int size_cap) (Ccac.Model.fluid_of_name cca_name))
  in
  if r.Fluid.Census.conservation_error > 1. +. (1e-6 *. r.Fluid.Census.offered_bytes)
  then
    failwith
      (Printf.sprintf "census %s: fluid conservation error %.1f B" key
         r.Fluid.Census.conservation_error);
  let summary = Sim.Stats.ratio_summary_in_place r.Fluid.Census.goodputs in
  {
    variant = variant.v_name;
    cca_name;
    backend = Fluid.Backend.to_string backend;
    jitter_ms = jitter_d *. 1e3;
    flows = n;
    completed = r.Fluid.Census.completed;
    summary;
    peak_pending = 0;
    peak_active = r.Fluid.Census.peak_active;
    slots = r.Fluid.Census.peak_active;
    fallbacks = 0;
  }

let run_cell ~variant ~cca_name ~backend ~jitter_d ~n ~seed =
  match backend with
  | Fluid.Backend.Packet ->
      run_cell_packet ~variant ~cca_name ~backend ~jitter_d ~n ~seed
  | Fluid.Backend.Fluid | Fluid.Backend.Hybrid ->
      (* The census has no discontinuity schedule to hand a hybrid
         switcher, so both non-packet backends run the pure fluid
         census. *)
      run_cell_fluid ~variant ~cca_name ~backend ~jitter_d ~n ~seed

let cells =
  [
    (std, "copa", 0.);
    (std, "copa", jitter_d);
    (std, "reno", 0.);
    (std, "reno", jitter_d);
    (std, "vegas", 0.);
    (std, "vegas", jitter_d);
    (heavy, "copa", 0.);
    (heavy, "reno", 0.);
  ]

(* One JSON line per cell; every numeric field is finite by construction
   ({!Sim.Stats.ratio_summary} never emits [inf]).  Printed by the merge,
   not the job, so a cached cell replays the same bytes. *)
let print_cell c =
  Printf.printf
    "census {\"variant\":\"%s\",\"cca\":\"%s\",\"backend\":\"%s\",\
     \"jitter_ms\":%g,\"flows\":%d,\
     \"completed\":%d,\"starved\":%d,\"ratio_p50\":%.6g,\"ratio_p90\":%.6g,\
     \"ratio_p99\":%.6g,\"ratio_max\":%.6g,\"slots\":%d,\"peak_active\":%d}\n"
    c.variant c.cca_name c.backend c.jitter_ms c.flows c.completed
    c.summary.Sim.Stats.starved c.summary.Sim.Stats.p50 c.summary.Sim.Stats.p90
    c.summary.Sim.Stats.p99 c.summary.Sim.Stats.max_ratio c.slots c.peak_active

let rows_of_cells cs =
  List.map
    (fun c ->
      print_cell c;
      let s = c.summary in
      let heavy = c.variant = "heavy" in
      Report.row ~id:"E19"
        ~label:
          (Printf.sprintf "census[%s] %s jitter=%gms (%d flows%s)" c.variant
             c.cca_name c.jitter_ms c.flows
             (if c.backend = "packet" then "" else ", " ^ c.backend))
        ~paper:
          (if heavy then
             "sec. 3.2: under overload with shallow buffers, starvation is \
              the common case, not the tail"
           else
             "sec. 3.2: workloads starve a subset of flows; report the \
              distribution, not a single max/min ratio")
        ~measured:
          (Printf.sprintf
             "completed %d/%d, starved %d, ratio p50/p90/p99 = \
              %.2f/%.2f/%.2f, max %.2f, slots %d, peak events %d"
             c.completed c.flows s.Sim.Stats.starved s.Sim.Stats.p50
             s.Sim.Stats.p90 s.Sim.Stats.p99 s.Sim.Stats.max_ratio c.slots
             c.peak_pending)
        ~ok:
          (s.Sim.Stats.total = c.flows
          && Float.is_finite s.Sim.Stats.p99
          && Float.is_finite s.Sim.Stats.max_ratio
          && c.fallbacks = 0
          && c.slots <= c.flows
          (* The overdriven cell cannot promise completions, only a
             well-formed distribution; the standard cell must drain. *)
          && (heavy || c.completed > c.flows / 2)))
    cs

let plan ~quick ~backend =
  let jobs =
    List.map
      (fun (variant, cca_name, jitter_d) ->
        let n = population variant ~quick in
        let key = cell_key ~variant ~cca_name ~backend ~jitter_d ~n in
        Runner.Job.create ~key (fun () ->
            run_cell ~variant ~cca_name ~backend ~jitter_d ~n ~seed:42))
      cells
  in
  let merge payloads =
    rows_of_cells (List.map (fun b -> (Runner.Job.decode b : cell)) payloads)
  in
  (jobs, merge)

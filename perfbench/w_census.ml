(* census-churn: Sim.Population at the E19 census constants.  A standard
   cell (columnar Reno, 20 ms ACK jitter, 70% load, unbounded buffer)
   large enough to allocate the timer wheel and recycle slots, plus a
   heavy cell (140% load into a 20-packet buffer) that drives the same
   Link/Flow code through drops, losses and RTO probes.  The seed is the
   population seed: arrivals, sizes and jitter all derive from it. *)

open Harness

let name = "census-churn"
let mss = Cca.default_mss
let rate = Sim.Units.mbps 480.
let rm = 0.02
let arrival_frac = 0.6
let alpha = 1.5
let xm = float_of_int (10 * mss)
let size_cap = 10_000_000
let mean_size = alpha /. (alpha -. 1.) *. xm

let duration_for ~load n =
  Float.max 5. (float_of_int n *. mean_size /. (load *. rate *. arrival_frac))

type cell = {
  variant : string;
  load : float;
  buffer : int option;
  n : int;
  jitter_d : float;
}

let cells =
  [
    { variant = "std"; load = 0.7; buffer = None; n = 25_000; jitter_d = 0.02 };
    { variant = "heavy"; load = 1.4; buffer = Some (20 * mss); n = 6_250;
      jitter_d = 0. };
  ]

let sim_s =
  List.fold_left (fun a c -> a +. duration_for ~load:c.load c.n) 0. cells

let flows = List.fold_left (fun a c -> a + c.n) 0 cells

(* Exp_census's cell key, so the reference seed reproduces its streams. *)
let config ~seed c =
  {
    Sim.Population.n = c.n;
    duration = duration_for ~load:c.load c.n;
    arrival_frac;
    rate;
    buffer = c.buffer;
    rm;
    mss;
    jitter_d = c.jitter_d;
    seed;
    key =
      Printf.sprintf "census/%s/reno/jit=%gms/n=%d/backend=packet" c.variant
        (c.jitter_d *. 1e3) c.n;
    alpha;
    xm;
    size_cap;
  }

(* One arena per cell; every incarnation of a slot resets its row in
   place. *)
let reno_factory () =
  let cols = Columns.create ~nfields:Reno.nfields () in
  fun ~slot:_ ~prev ->
    match prev with
    | Some i -> (
        match i.Cca.reset with
        | Some r ->
            r ();
            i
        | None -> invalid_arg "census: columnar Reno instance without reset")
    | None -> Reno.make_in cols

let setup ~seed =
  List.fold_left
    (fun a c ->
      let cfg = config ~seed c in
      a
      +. setup_until_first_call (fun () ->
             ignore
               (Sim.Population.run
                  ~cca:(fun ~slot:_ ~prev:_ -> raise Setup_done)
                  cfg)))
    0. cells

(* Checks every seed must pass, then the recorded reference. *)
let check_cell c (r : Sim.Population.result) (s : Sim.Stats.ratio_summary)
    =
  let id = "census " ^ c.variant in
  check (id ^ ": every flow spawned") (r.spawned = c.n && s.total = c.n);
  check (id ^ ": no delay-line fallbacks") (r.fallbacks = 0);
  check (id ^ ": finite ratio tail")
    (Float.is_finite s.p99 && Float.is_finite s.max_ratio);
  check (id ^ ": slots are recycled") (r.slots < c.n);
  if c.variant = "std" then
    check (id ^ ": the standard cell drains") (r.completed > c.n / 2)

let digest_cell (r : Sim.Population.result) (s : Sim.Stats.ratio_summary) =
  digest_floats
    [ fi r.completed; fi s.starved; s.p50; s.p90; s.p99; s.max_ratio ]

let finish ~seed parts =
  let d = String.concat "/" parts in
  check_reference "census completed/starved/summary" ~seed
    ~expected:Reference.census d;
  d

let pass ~seed ~sample =
  let digests = ref [] and live = ref 0. in
  let wall =
    List.fold_left
      (fun wall c ->
        sample ();
        let cfg = config ~seed c in
        let base = live_bytes () in
        let (r, s), dt =
          Ledger.time (fun () ->
              let r = Sim.Population.run ~cca:(reno_factory ()) cfg in
              (r, Sim.Stats.ratio_summary_in_place r.Sim.Population.goodputs))
        in
        live := !live +. (live_bytes () -. base);
        check_cell c r s;
        digests := digest_cell r s :: !digests;
        wall +. dt)
      0. cells
  in
  { wall; digest = finish ~seed (List.rev !digests); sim_s; flows;
    live_bytes = !live }

let traced ~seed =
  let l = Ledger.create () in
  let setup_s = ref 0. and loop_s = ref 0. and summary_s = ref 0. in
  let words = ref 0. in
  let slots = ref 0 and peak_active = ref 0 and peak_pending = ref 0 in
  let fallbacks = ref 0 in
  let digests, wall =
    Ledger.time (fun () ->
        List.map
          (fun c ->
            let cfg = config ~seed c in
            let factory = Ledger.wrap_factory l (reno_factory ()) in
            Ledger.arm l;
            let w0 = Gc.minor_words () in
            let t0 = Ledger.now_ns () in
            let r = Sim.Population.run ~cca:factory cfg in
            let t1 = Ledger.now_ns () in
            words := !words +. (Gc.minor_words () -. w0);
            setup_s := !setup_s +. Ledger.secs (l.Ledger.first_call - t0);
            loop_s := !loop_s +. Ledger.secs (t1 - l.Ledger.first_call);
            let s, dt =
              Ledger.time (fun () ->
                  Sim.Stats.ratio_summary_in_place r.Sim.Population.goodputs)
            in
            summary_s := !summary_s +. dt;
            check_cell c r s;
            slots := !slots + r.slots;
            peak_active := max !peak_active r.peak_active;
            peak_pending := max !peak_pending r.peak_pending;
            fallbacks := !fallbacks + r.fallbacks;
            digest_cell r s)
          cells)
  in
  let cca = Ledger.cca_s l and factory = Ledger.factory_s l in
  let self = !loop_s -. cca -. factory in
  let spawns = fi l.Ledger.factory_calls in
  let packets = fi l.Ledger.send_calls in
  {
    t_pass =
      { wall; digest = finish ~seed digests; sim_s; flows; live_bytes = 0. };
    layers =
      Layers.cca l ~wall
      @ [
          m "sim.self_frac" "ratio" (self /. wall);
          m "sim.minor_words_per_packet" "words" (ratio !words packets);
          m "event_queue.pending_peak" "count" (fi !peak_pending);
          (* The population keeps its event queue private; its peak
             pending count, sampled at spawns, above the default wheel
             threshold (256) proves the wheel was allocated. *)
          m "event_queue.wheel_allocated" "bool"
            (if !peak_pending > 256 then 1. else 0.);
          m "flow.sent_packets" "count" packets;
          m "flow.useful_frac" "ratio"
            (ratio (fi l.Ledger.acked_bytes) (fi l.Ledger.sent_bytes));
          m "flow.lost_packets" "count" (fi l.Ledger.lost_packets);
          m "flow.stall_probes" "count" (fi l.Ledger.timeouts);
          m "delay_line.fallbacks" "count" (fi !fallbacks);
          m "population.spawns" "count" spawns;
          m "population.recycle_frac" "ratio" (ratio (fi l.Ledger.recycles) spawns);
          m "population.slots" "count" (fi !slots);
          m "population.peak_active" "count" (fi !peak_active);
          m "population.peak_pending" "count" (fi !peak_pending);
          m "population.factory_ns" "ns" (Layers.per_call factory l.Ledger.factory_calls);
          m "population.summary_s" "s" !summary_s;
          m "population.minor_words_per_flow" "words" (ratio !words (fi flows));
        ];
    self_s =
      [ ("population.setup", !setup_s); ("population.factory", factory);
        ("cca", cca); ("sim", self); ("population.summary", !summary_s) ];
  }

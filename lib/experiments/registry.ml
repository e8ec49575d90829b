type plan = {
  jobs : Runner.Job.t list;
  merge : bytes list -> Report.row list;
}

type experiment = {
  key : string;
  title : string;
  plan : quick:bool -> backend:Fluid.Backend.t -> plan;
}

let merge_solo key = function
  | [ b ] -> (Runner.Job.decode b : Report.row list)
  | payloads ->
      invalid_arg
        (Printf.sprintf "Registry: experiment %s expected 1 payload, got %d" key
           (List.length payloads))

(* Experiments that have not been decomposed into per-simulation jobs run
   as one job each: the whole [run] executes inside the job (its prints
   are captured and replayed by the pool) and the rows come back as the
   payload.  A packet-only experiment ignores the simulation backend —
   it is the same computation under any [--backend], so its cache key
   stays backend-free and caches naturally across backend selections. *)
let solo key run =
  let plan ~quick ~backend:_ =
    let job =
      Runner.Job.create
        ~key:(Printf.sprintf "%s/quick=%b" key quick)
        (fun () -> run ~quick)
    in
    { jobs = [ job ]; merge = merge_solo key }
  in
  plan

(* Backend-aware solo experiments: the backend changes the computation,
   so it must be part of the cache key — a cached packet run must never
   satisfy a [--backend fluid] request. *)
let solo_backend key run =
  let plan ~quick ~backend =
    let job =
      Runner.Job.create
        ~key:
          (Printf.sprintf "%s/quick=%b/backend=%s" key quick
             (Fluid.Backend.to_string backend))
        (fun () -> run ~quick ~backend)
    in
    { jobs = [ job ]; merge = merge_solo key }
  in
  plan

(* Experiments whose jobs carry raw measurements: the merge rebuilds the
   rows (and prints any experiment-specific tables) in the parent. *)
let planned plan_fn ~quick ~backend:_ =
  let jobs, merge = plan_fn ~quick in
  { jobs; merge }

(* As [planned], for experiments ported to the fluid/hybrid backends:
   the planner receives the backend and embeds it in every job key. *)
let planned_backend plan_fn ~quick ~backend =
  let jobs, merge = plan_fn ~quick ~backend in
  { jobs; merge }

let all =
  [
    { key = "fig1"; title = "Figure 1: ideal-path delay convergence";
      plan = solo "fig1" (fun ~quick -> Exp_fig1.run ~quick ()) };
    { key = "fig3"; title = "Figures 2-3: rate-delay maps";
      plan = solo "fig3" (fun ~quick -> Exp_fig3.run ~quick ()) };
    { key = "copa"; title = "E1-E2: Copa min-RTT poisoning (sec. 5.1)";
      plan = solo "copa" (fun ~quick -> Exp_copa.run ~quick ()) };
    { key = "bbr"; title = "E3-E4: BBR starvation and +alpha ablation (sec. 5.2)";
      plan = solo "bbr" (fun ~quick -> Exp_bbr.run ~quick ()) };
    { key = "vivace"; title = "E5: PCC Vivace ACK aggregation (sec. 5.3)";
      plan = solo "vivace" (fun ~quick -> Exp_vivace.run ~quick ()) };
    { key = "fig7"; title = "Figure 7: Reno/Cubic delayed-ACK unfairness";
      plan = solo "fig7" (fun ~quick -> Exp_fig7.run ~quick ()) };
    { key = "allegro"; title = "E6: PCC Allegro random loss (sec. 5.4)";
      plan = solo "allegro" (fun ~quick -> Exp_allegro.run ~quick ()) };
    { key = "theorem1"; title = "E7 + Figures 4-6: Theorem 1 construction";
      plan = solo "theorem1" (fun ~quick -> Exp_theorem1.run ~quick ()) };
    { key = "theorem2"; title = "E8-E9: Theorems 2-3 constructions";
      plan = solo "theorem2" (fun ~quick -> Exp_theorem2.run ~quick ()) };
    { key = "alg1"; title = "E10-E11: Algorithm 1 and the figure of merit (sec. 6.3)";
      plan = solo "alg1" (fun ~quick -> Exp_alg1.run ~quick ()) };
    { key = "ccac"; title = "E12: bounded model checking (appendix C)";
      plan = solo "ccac" (fun ~quick -> Exp_ccac.run ~quick ()) };
    { key = "ecn"; title = "E13: explicit signaling avoids starvation (sec. 6.4)";
      plan = solo "ecn" (fun ~quick -> Exp_ecn.run ~quick ()) };
    { key = "threshold"; title = "E14: starvation ratio vs jitter (the Theorem 1 boundary)";
      plan = planned_backend Exp_threshold.plan };
    { key = "isolation"; title = "E15: DRR isolation vs the shared FIFO (conclusion)";
      plan = solo "isolation" (fun ~quick -> Exp_isolation.run ~quick ()) };
    { key = "robustness"; title = "E16: seed robustness of the headline ratios";
      plan = planned Exp_robustness.plan };
    { key = "matrix"; title = "E17: cross-CCA summary matrix";
      plan = planned Exp_matrix.plan };
    { key = "faults"; title = "E18: fault-scenario matrix (recovery + invariants)";
      plan = planned Exp_faults.plan };
    { key = "census"; title = "E19: starvation census over a churning flow population";
      plan = planned_backend Exp_census.plan };
    { key = "validate"; title = "V1-V6: validation oracles (queueing, conservation, equilibria, metamorphic, fuzz, fluid backend)";
      plan =
        solo_backend "validate" (fun ~quick ~backend ->
            Exp_validate.run ~quick ~backend ()) };
  ]

(* Experiments reachable by key but kept out of [all]: [selftest-fail]
   exists so the exit-code contract (quarantine => non-zero exit) can be
   asserted end to end against the real binary. *)
let failing_run ~quick:_ : Report.row list =
  failwith "selftest-fail: deliberate failure"

let hidden =
  [
    { key = "selftest-fail"; title = "hidden: deliberately failing job";
      plan = solo "selftest-fail" failing_run };
  ]

let find key = List.find_opt (fun e -> e.key = key) (all @ hidden)
let keys () = List.map (fun e -> e.key) all

(* One place owns the "unknown key" contract: the error names what
   would have worked — a typo should cost one read, not a trip to
   `repro list`. *)
let select = function
  | [] -> Ok all
  | wanted ->
      let missing = List.filter (fun k -> find k = None) wanted in
      if missing <> [] then
        Error
          (Printf.sprintf "unknown experiment(s): %s\navailable: %s"
             (String.concat ", " missing)
             (String.concat ", " (keys ())))
      else Ok (List.filter_map find wanted)

let rec take_drop n = function
  | rest when n = 0 -> ([], rest)
  | [] -> invalid_arg "Registry: fewer results than jobs"
  | x :: rest ->
      let taken, left = take_drop (n - 1) rest in
      (x :: taken, left)

let run_selection ?(quick = false) ?(sim_backend = Fluid.Backend.Packet)
    ?(workers = 1) ?cache ?(policy = Runner.Supervise.default_policy)
    ?(allow_failures = false) experiments =
  let plans =
    List.map (fun e -> (e, e.plan ~quick ~backend:sim_backend)) experiments
  in
  let jobs = List.concat_map (fun (_, p) -> p.jobs) plans in
  let outcomes, stats = Runner.Supervise.run ~workers ~policy ?cache jobs in
  (* The merge layer needs every payload, so a quarantined job is a hard
     failure unless [allow_failures] — but only after the rest of the
     matrix completed (and cached), so a re-run only re-executes the
     stragglers. *)
  let results =
    List.map2
      (fun j outcome ->
        match outcome with
        | Runner.Supervise.Done { out; payload } -> (out, Some payload)
        | Runner.Supervise.Quarantined { reason; _ } ->
            if allow_failures then begin
              Printf.eprintf "runner: job %s quarantined: %s\n"
                (Runner.Job.key j) reason;
              ("", None)
            end
            else
              raise (Runner.Pool.Job_failed { key = Runner.Job.key j; reason }))
      jobs outcomes
  in
  (* Replay each experiment's captured stdout in job order, then merge and
     print its table: the byte stream is the same whether the jobs ran
     serially, in parallel, or straight out of the cache.  An experiment
     with a quarantined job (allow_failures only) is skipped whole: its
     merge never sees a partial payload list. *)
  let rows, _ =
    List.fold_left
      (fun (acc, remaining) (e, p) ->
        let mine, rest = take_drop (List.length p.jobs) remaining in
        if List.exists (fun (_, payload) -> payload = None) mine then begin
          Printf.eprintf
            "runner: experiment %s skipped (quarantined job)\n" e.key;
          (acc, rest)
        end
        else begin
          List.iter (fun (out, _) -> print_string out) mine;
          let rows =
            p.merge (List.filter_map snd mine)
          in
          Report.print_rows ~title:e.title rows;
          (acc @ rows, rest)
        end)
      ([], results) plans
  in
  (rows, stats)

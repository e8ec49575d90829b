(* Parallel reproduction driver.

   Runs the experiment suite through the Runner pool: simulations fan out
   across forked workers, results merge deterministically, and a
   content-addressed cache under --cache-dir makes re-runs of an unchanged
   binary free.  Output on stdout is byte-identical for every -j level and
   for cached re-runs; the pool's counters go to stderr so the streams can
   be diffed independently.

   The matrix always runs supervised (Runner.Supervise: deadlines,
   retries, quarantine).  Each completed job lands in the cache as it
   finishes, so a run killed mid-matrix is finished by running the same
   command again: it replays the cached jobs and executes only the rest.
   --selftest-shrink and --replay exercise the failing-scenario
   minimizer end to end; --export writes the figure series as CSV. *)

open Cmdliner

let keys_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT"
         ~doc:"Experiment keys to run, or the single word $(b,list) to \
               print every available key and exit.")

let all_arg =
  Arg.(value & flag & info [ "all" ] ~doc:"Run every experiment.")

let quick_arg =
  Arg.(value & flag & info [ "quick" ]
         ~doc:"Short durations and fewer seeds (CI scale).")

let jobs_arg =
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Worker processes. 1 runs serially in-process; 0 or negative \
               means one per core.")

let backend_arg =
  let backend_conv =
    Arg.conv
      ( (fun s ->
          Result.map_error (fun m -> `Msg m) (Fluid.Backend.of_string s)),
        fun ppf b -> Format.pp_print_string ppf (Fluid.Backend.to_string b) )
  in
  Arg.(value & opt backend_conv Fluid.Backend.Packet
       & info [ "backend" ] ~docv:"BACKEND"
           ~doc:"Simulation substrate for backend-aware experiments \
                 (threshold, census, validate): $(b,packet) (the \
                 event-driven simulator), $(b,fluid) (fixed-step \
                 discretised fluid model; orders of magnitude faster), or \
                 $(b,hybrid) (fluid far from discontinuities, packet-level \
                 windows around them).  Cache keys incorporate the \
                 backend, so results never cross substrates.  Packet-only \
                 experiments ignore this flag.")

let no_cache_arg =
  Arg.(value & flag & info [ "no-cache" ]
         ~doc:"Re-simulate everything; neither read nor write the run cache \
               (a killed run then cannot be finished from it, and no \
               failure records are written).")

let cache_dir_arg =
  Arg.(value & opt string "_cache" & info [ "cache-dir" ] ~docv:"DIR"
         ~doc:"Run-cache directory.")

let check_arg =
  Arg.(value & flag & info [ "check" ]
         ~doc:"Exit 2 unless every report row holds the paper's shape.")

(* A numeric converter that rejects values outside [ok]; cmdliner then
   exits 124 naming the flag.  NaN fails every comparison, so it is
   rejected by the same test. *)
let checked conv ~ok ~what =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ ->
        Error (`Msg (Printf.sprintf "invalid value '%s', must be %s" s what))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let deadline_arg =
  let secs =
    checked Arg.float ~what:"a finite number of seconds > 0"
      ~ok:(fun d -> d > 0. && Float.is_finite d)
  in
  Arg.(value & opt (some secs) None & info [ "deadline" ] ~docv:"SECS"
         ~doc:"Per-attempt wall-clock deadline for each job.  Jobs then \
               run on forked workers, one at $(b,-j 1).")

let max_attempts_arg =
  Arg.(value & opt (checked int ~ok:(fun n -> n >= 1) ~what:">= 1") 3
       & info [ "max-attempts" ] ~docv:"N"
         ~doc:"Supervised attempts per job before it is quarantined.")

let selftest_shrink_arg =
  Arg.(value & opt (some string) None
       & info [ "selftest-shrink" ] ~docv:"DIR"
         ~doc:"Ignore the experiment arguments: run a scenario that \
               deliberately trips an invariant, auto-shrink it, write the \
               reproducer and a summary under $(docv), and exit 0 iff the \
               minimized scenario has at most 2 flows and at most 1 fault \
               event while still tripping the same check.")

let replay_arg =
  Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"FILE"
         ~doc:"Load a reproducer written by --selftest-shrink (or by the \
               shrinker) and re-run it; exit 0 iff it still trips the \
               recorded invariant check.")

let allow_failures_arg =
  Arg.(value & flag & info [ "allow-failures" ]
         ~doc:"Do not fail the run when a job is quarantined: skip the \
               owning experiment (notice on stderr) and exit 0.  Without \
               this flag any quarantined or retry-exhausted job exits 3.")

let fuzz_arg =
  Arg.(value & opt (some (checked int ~ok:(fun n -> n >= 0) ~what:">= 0")) None
       & info [ "fuzz" ] ~docv:"N"
         ~doc:"Ignore the experiment arguments: fuzz $(docv) generated \
               scenarios through every validation oracle (conservation, \
               determinism, rescale metamorphic + the invariant monitor). \
               Violations are shrunk, persisted as a replayable corpus \
               under the cache dir, and exit 4.")

let fuzz_seed_arg =
  Arg.(value & opt int 1 & info [ "fuzz-seed" ] ~docv:"SEED"
         ~doc:"Base seed for --fuzz: scenario $(i,i) of seed $(i,S) is a \
               pure function of (S, i), so a violating (seed, index) pair \
               reproduces anywhere.")

let export_arg =
  Arg.(value & opt (some string) None & info [ "export" ] ~docv:"DIR"
         ~doc:"Ignore the experiment arguments: write the numeric series \
               behind the paper's figures (Figures 1 and 3-7, E10, E14, \
               E17) as one CSV file each under $(docv), created if \
               missing.  Honours $(b,--quick).  Exits 1 if a file cannot \
               be written or the Theorem 1 construction behind Figures \
               4-6 fails.")

let select keys all =
  Experiments.Registry.select (if all then [] else keys)

(* `repro list`: the machine-checked inventory.  One key per line so the
   smoke test (and shell completion) can round-trip every key through
   `plan` without parsing a table. *)
let list_keys () =
  List.iter print_endline (Experiments.Registry.keys ())

(* --------------------------------------------------------------------- *)
(* Shrinker self-test and replay                                          *)
(* --------------------------------------------------------------------- *)

(* A scenario built to trip exactly one invariant deterministically: flow 0
   requests jitter up to 0.05 s against a declared bound of 0.02 s, so the
   monitor's jitter-bound check fires on the first audit after a clamped
   request.  Flow 1 and the two link faults are decoys the shrinker should
   strip away. *)
let selftest_config () =
  Sim.Network.config
    ~rate:(Sim.Link.Constant 1_500_000.)
    ~rm:0.05 ~seed:7 ~monitor_period:0.05 ~duration:4.0
    ~faults:
      (Sim.Fault.plan
         [
           Sim.Fault.Link_blackout { t0 = 1.0; t1 = 1.2 };
           Sim.Fault.Rate_step { at = 2.0; rate = 750_000. };
         ])
    [
      Sim.Network.flow
        ~jitter:(Sim.Jitter.Uniform { lo = 0.; hi = 0.05 })
        ~jitter_bound:0.02 (Reno.make ());
      Sim.Network.flow (Reno.make ());
    ]

let selftest_shrink dir =
  Runner.Cache.mkdir_p dir;
  let cfg = selftest_config () in
  let before = Validate.Shrink.trips cfg in
  (match before with
  | [] ->
      prerr_endline "selftest-shrink: scenario unexpectedly clean";
      exit 1
  | tally ->
      List.iter
        (fun (check, n) ->
          Printf.printf "selftest-shrink: initial run trips %s x%d\n" check n)
        tally);
  match Validate.Shrink.shrink cfg with
  | None ->
      prerr_endline "selftest-shrink: shrinker lost the violation";
      exit 1
  | Some r ->
      let flows = List.length r.Validate.Shrink.config.Sim.Network.flows in
      let faults =
        List.length
          (Sim.Fault.events r.Validate.Shrink.config.Sim.Network.faults)
      in
      let repro = Filename.concat dir "reproducer.bin" in
      Validate.Shrink.write_repro repro r;
      let summary =
        Printf.sprintf
          "{\n\
          \  \"check\": \"%s\",\n\
          \  \"flows\": %d,\n\
          \  \"fault_events\": %d,\n\
          \  \"duration\": %g,\n\
          \  \"violations\": %d,\n\
          \  \"runs\": %d\n\
           }\n"
          r.Validate.Shrink.check flows faults
          r.Validate.Shrink.config.Sim.Network.duration
          r.Validate.Shrink.violations r.Validate.Shrink.runs
      in
      Runner.Cache.write_atomic (Filename.concat dir "shrink.json") summary;
      print_endline (Validate.Shrink.describe r);
      Printf.printf "selftest-shrink: reproducer written to %s\n" repro;
      let ok =
        flows <= 2 && faults <= 1
        && List.mem_assoc r.Validate.Shrink.check before
      in
      if not ok then begin
        Printf.eprintf
          "selftest-shrink: FAILED (flows=%d faults=%d check=%s)\n" flows
          faults r.Validate.Shrink.check;
        exit 1
      end;
      print_endline "selftest-shrink: OK"

let replay file =
  match Validate.Shrink.load_repro file with
  | exception Validate.Shrink.Incompatible msg ->
      Printf.eprintf "replay: cannot load %s: %s\n" file msg;
      exit 1
  | r ->
      let tally = Validate.Shrink.trips r.Validate.Shrink.config in
      List.iter
        (fun (check, n) -> Printf.printf "replay: trips %s x%d\n" check n)
        tally;
      if List.mem_assoc r.Validate.Shrink.check tally then begin
        Printf.printf "replay: reproducer still trips %s\n"
          r.Validate.Shrink.check;
        exit 0
      end
      else begin
        Printf.eprintf "replay: reproducer no longer trips %s\n"
          r.Validate.Shrink.check;
        exit 1
      end

(* --------------------------------------------------------------------- *)
(* Scenario fuzzing                                                       *)
(* --------------------------------------------------------------------- *)

let fuzz ~seed ~n ~cache_dir =
  (* Made first, so a directory that cannot be made fails the run before
     any scenario does. *)
  let subdir = Filename.concat cache_dir (Printf.sprintf "fuzz-%d" seed) in
  Runner.Cache.mkdir_p subdir;
  let t0 = Unix.gettimeofday () in
  let report =
    Validate.Fuzz.run ~dir:cache_dir ~log:print_endline ~seed ~n ()
  in
  Printf.printf
    "fuzz: seed %d, %d scenarios, %d verdicts, %d violation(s), %.1f s\n" seed
    report.Validate.Fuzz.samples report.Validate.Fuzz.verdicts_checked
    (List.length report.Validate.Fuzz.violations)
    (Unix.gettimeofday () -. t0);
  Runner.Cache.write_atomic
    (Filename.concat subdir "report.json")
    (Validate.Fuzz.report_to_json report);
  Printf.printf "fuzz: report written to %s\n"
    (Filename.concat subdir "report.json");
  if report.Validate.Fuzz.violations <> [] then begin
    List.iter
      (fun v ->
        Printf.eprintf "fuzz: violation in %s%s\n" v.Validate.Fuzz.summary
          (match v.Validate.Fuzz.repro_path with
          | Some p -> Printf.sprintf " (reproducer: %s)" p
          | None -> ""))
      report.Validate.Fuzz.violations;
    exit 4
  end

(* --------------------------------------------------------------------- *)
(* Figure export                                                          *)
(* --------------------------------------------------------------------- *)

let export ~dir ~quick =
  match Experiments.Export.figures ~dir ~quick with
  | Ok paths -> List.iter (Printf.printf "wrote %s\n") paths
  | Error msg | (exception Sys_error msg) ->
      prerr_endline ("repro: export: " ^ msg);
      exit 1

(* --------------------------------------------------------------------- *)
(* Main driver                                                            *)
(* --------------------------------------------------------------------- *)

let main keys all quick jobs sim_backend no_cache cache_dir check deadline
    max_attempts selftest replay_file allow_failures fuzz_n fuzz_seed
    export_dir =
  (* The one handler for system-call failures that escape a mode: a
     directory that cannot be made (a path component is a regular file,
     permission is denied) names its path and exits 1, where cmdliner's
     catch-all would report an internal error and exit 125. *)
  try
    match (selftest, replay_file, fuzz_n, export_dir) with
    | Some dir, _, _, _ -> selftest_shrink dir
    | None, Some file, _, _ -> replay file
    | None, None, Some n, _ -> fuzz ~seed:fuzz_seed ~n ~cache_dir
    | None, None, None, Some dir -> export ~dir ~quick
    | None, None, None, None when keys = [ "list" ] && not all -> list_keys ()
    | None, None, None, None -> (
        match select keys all with
        | Error msg ->
            prerr_endline ("repro: " ^ msg);
            exit 1
        | Ok experiments ->
            let workers =
              if jobs <= 0 then Runner.Pool.default_workers () else jobs
            in
            let cache =
              if no_cache then None
              else Some (Runner.Cache.create ~dir:cache_dir ())
            in
            let policy =
              {
                Runner.Supervise.default_policy with
                deadline;
                max_attempts;
              }
            in
            let t0 = Unix.gettimeofday () in
            let rows, stats =
              try
                Experiments.Registry.run_selection ~quick ~sim_backend ~workers
                  ?cache ~policy ~allow_failures experiments
              with Runner.Pool.Job_failed { key; reason } ->
                (* Quarantine / exhausted retries: a distinct exit code so
                   CI can tell "simulator results drifted" (2) from "a job
                   would not complete" (3). *)
                Printf.eprintf
                  "repro: job %s failed permanently: %s\n\
                   repro: (use --allow-failures to downgrade to a skip)\n"
                  key reason;
                exit 3
            in
            let bad = List.filter (fun r -> not r.Experiments.Report.ok) rows in
            Printf.printf "\n%d/%d checks hold the paper's shape\n"
              (List.length rows - List.length bad)
              (List.length rows);
            Printf.eprintf
              "runner: %d jobs, %d cache hits, %d executed, %d respawns, %d \
               retried, %d quarantined, %d workers, %.1f s\n"
              stats.Runner.Pool.jobs stats.Runner.Pool.cache_hits
              stats.Runner.Pool.executed stats.Runner.Pool.respawns
              stats.Runner.Pool.retried stats.Runner.Pool.quarantined workers
              (Unix.gettimeofday () -. t0);
            if check && bad <> [] then exit 2)
  with Unix.Unix_error (err, _, path) ->
    prerr_endline ("repro: " ^ path ^ ": " ^ Unix.error_message err);
    exit 1

let cmd =
  let doc = "Parallel, cached reproduction of the paper's experiment suite" in
  Cmd.v
    (Cmd.info "repro" ~doc)
    Term.(
      const main $ keys_arg $ all_arg $ quick_arg $ jobs_arg $ backend_arg
      $ no_cache_arg $ cache_dir_arg $ check_arg $ deadline_arg
      $ max_attempts_arg $ selftest_shrink_arg $ replay_arg
      $ allow_failures_arg $ fuzz_arg $ fuzz_seed_arg $ export_arg)

let () = exit (Cmd.eval cmd)

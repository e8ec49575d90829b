(* suite-quick: every registered experiment in quick mode through
   Registry.run_selection (serial, one worker, packet backend), on a
   cold cache in a fresh directory, then a warm re-run that must replay
   every job from that cache.  This is what reproducing the paper costs a
   user, and the only workload where Runner, Cache, Registry, Core and
   Ccac.Search do real work.  The suite has no random input: every seed
   runs the same jobs. *)

open Harness
module R = Experiments.Registry

let name = "suite-quick"

let fresh_dir =
  let k = ref 0 in
  fun tag ->
    incr k;
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "perfbench-%s-%d-%d" tag (Unix.getpid ()) !k)
    in
    Unix.mkdir d 0o700;
    d

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_stdout_to path f =
  flush stdout;
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stdout in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f

let experiments () =
  match R.select [] with Ok es -> es | Error e -> failwith e

let add (a : Runner.Pool.stats) (b : Runner.Pool.stats) =
  {
    Runner.Pool.jobs = a.jobs + b.jobs;
    cache_hits = a.cache_hits + b.cache_hits;
    executed = a.executed + b.executed;
    respawns = a.respawns + b.respawns;
    retried = a.retried + b.retried;
    quarantined = a.quarantined + b.quarantined;
    resumed = a.resumed + b.resumed;
  }

(* One run of the whole suite, one [run_selection] per experiment: run
   serially that is the same work and the same bytes as a single call over
   all of them, and lets [between] run (untimed) between experiments.
   Stdout goes to a file and comes back as a digest; the time is the sum
   of the calls. *)
let run_suite ~dir ~cache ~between exps =
  let out = Filename.concat dir "stdout" in
  let zero =
    { Runner.Pool.jobs = 0; cache_hits = 0; executed = 0; respawns = 0;
      retried = 0; quarantined = 0; resumed = 0 }
  in
  let rows, stats, spent =
    with_stdout_to out (fun () ->
        List.fold_left
          (fun (rows, stats, spent) e ->
            between ();
            let (r, s), dt =
              Ledger.time (fun () ->
                  R.run_selection ~quick:true ~workers:1 ~cache [ e ])
            in
            (rows @ r, add stats s, spent +. dt))
          ([], zero, 0.) exps)
  in
  ((rows, stats, Digest.to_hex (Digest.file out)), spent)

(* Set-up: the experiment plans (job lists and merges) and the cold
   cache, up to the first job. *)
let setup ~seed:_ =
  let dir = fresh_dir "setup" in
  let (), dt =
    Ledger.time (fun () ->
        ignore (Runner.Cache.create ~dir:(Filename.concat dir "cache") ());
        List.iter
          (fun e -> ignore (e.R.plan ~quick:true ~backend:Fluid.Backend.Packet))
          (experiments ()))
  in
  rm_rf dir;
  dt

let check_runs ~cold:(rows, (stats : Runner.Pool.stats), digest)
    ~warm:(warm_rows, (warm : Runner.Pool.stats), warm_digest) =
  check "suite: every report row holds the paper's shape"
    (rows <> [] && List.for_all (fun r -> r.Experiments.Report.ok) rows);
  check_digest "suite stdout" ~expected:Reference.suite_stdout digest;
  check "suite: the cold run executes every job"
    (stats.executed = stats.jobs && stats.cache_hits = 0);
  check "suite: the warm re-run replays every job from the cache"
    (warm.cache_hits = stats.jobs && warm.executed = 0);
  check "suite: the warm re-run prints the same bytes and rows"
    (warm_digest = digest && warm_rows = rows)

let pass ~seed:_ ~sample =
  let dir = fresh_dir "suite" in
  let cache_dir = Filename.concat dir "cache" in
  let exps = experiments () in
  let cache = Runner.Cache.create ~dir:cache_dir () in
  let warm_cache = Runner.Cache.create ~dir:cache_dir () in
  let cold, cold_s = run_suite ~dir ~cache ~between:sample exps in
  let warm, warm_s = run_suite ~dir ~cache:warm_cache ~between:sample exps in
  check_runs ~cold ~warm;
  rm_rf dir;
  let _, _, digest = cold in
  { wall = cold_s +. warm_s; digest; sim_s = 0.; flows = 0; live_bytes = 0. }

let percentile p xs =
  match List.sort compare xs with
  | [] -> 0.
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. fi n)) - 1)))

let traced ~seed:_ =
  let l = Ledger.create () in
  let plan_s = ref 0. and merge_s = ref 0. and keys = ref [] in
  let wrap (e : R.experiment) =
    {
      e with
      R.plan =
        (fun ~quick ~backend ->
          let p, dt = Ledger.time (fun () -> e.plan ~quick ~backend) in
          plan_s := !plan_s +. dt;
          keys := List.rev_append (List.map Runner.Job.key p.R.jobs) !keys;
          {
            R.jobs = List.map (Ledger.wrap_job l ~exp:e.key) p.R.jobs;
            merge =
              (fun payloads ->
                let rows, dt = Ledger.time (fun () -> p.R.merge payloads) in
                merge_s := !merge_s +. dt;
                rows);
          });
    }
  in
  let dir = fresh_dir "traced" in
  let cache_dir = Filename.concat dir "cache" in
  let sp, spent = span_table () in
  let find_s = ref 0. and store_s = ref 0. in
  let exps = experiments () in
  let cache = Runner.Cache.create ~dir:cache_dir () in
  let warm_cache = Runner.Cache.create ~dir:cache_dir () in
  let (cold, warm), wall =
    Ledger.time (fun () ->
        let cold, _ =
          sp.span "suite" (fun () ->
              run_suite ~dir ~cache ~between:ignore (List.map wrap exps))
        in
        let warm, _ =
          sp.span "warm" (fun () ->
              run_suite ~dir ~cache:warm_cache ~between:ignore exps)
        in
        (cold, warm))
  in
  (* Cache costs on their own, outside the pass: look every entry up
     again, and store each into a second, empty cache. *)
  let probe = Runner.Cache.create ~dir:cache_dir () in
  let scratch = Runner.Cache.create ~dir:(Filename.concat dir "scratch") () in
  List.iter
    (fun key ->
      let hit, dt = Ledger.time (fun () -> Runner.Cache.find probe ~key) in
      find_s := !find_s +. dt;
      match hit with
      | Some (stdout, payload) ->
          let (), dt =
            Ledger.time (fun () -> Runner.Cache.store scratch ~key ~stdout ~payload)
          in
          store_s := !store_s +. dt
      | None -> check ("suite: cache entry present for " ^ key) false)
    !keys;
  check_runs ~cold ~warm;
  rm_rf dir;
  let _, (stats : Runner.Pool.stats), digest = cold in
  let _, (warm_stats : Runner.Pool.stats), _ = warm in
  let jobs = List.map snd l.Ledger.job_s in
  let jobs_s = List.fold_left ( +. ) 0. jobs in
  let runner = spent ~name:"suite" () -. !plan_s -. !merge_s -. jobs_s in
  let nkeys = fi (List.length !keys) in
  let per_exp k =
    List.fold_left (fun a (e, s) -> if e = k then a +. s else a) 0. l.Ledger.job_s
  in
  {
    t_pass = { wall; digest; sim_s = 0.; flows = 0; live_bytes = 0. };
    layers =
      [
        m "runner.jobs" "count" (fi stats.jobs);
        m "runner.executed" "count" (fi stats.executed);
        m "runner.job_s_p50" "s" (percentile 0.5 jobs);
        m "runner.job_s_p80" "s" (percentile 0.8 jobs);
        m "runner.overhead_s" "s" runner;
        m "cache.find_ms" "ms" (ratio (!find_s *. 1e3) nkeys);
        m "cache.store_ms" "ms" (ratio (!store_s *. 1e3) nkeys);
        m "cache.warm_hits" "count" (fi warm_stats.cache_hits);
        m "registry.plan_s" "s" !plan_s;
        m "registry.merge_s" "s" !merge_s;
      ]
      @ List.map
          (fun k -> m ("experiment." ^ k ^ "_s") "s" (per_exp k))
          Layers.experiment_keys;
    self_s =
      [ ("registry", !plan_s +. !merge_s); ("experiments", jobs_s);
        ("runner", runner); ("cache.replay", spent ~name:"warm" ()) ];
  }

(* Tests for the parallel job runner: pool determinism across worker
   counts, stdout capture and replay, the on-disk cache, and failure
   handling (job exceptions, crashed workers, timeouts). *)

let job i =
  Runner.Job.create
    ~key:(Printf.sprintf "t/sq/%d" i)
    (fun () ->
      Printf.printf "job %d starts\n" i;
      print_string (String.concat "" (List.init (i mod 3) (fun _ -> ".")));
      Printf.printf "\njob %d done\n" i;
      i * i)

let jobs n = List.init n job

let decoded results =
  List.map (fun (out, b) -> (out, (Runner.Job.decode b : int))) results

(* [Pool.run_results] with every slot required to be [Ok]. *)
let run_ok ?workers ?cache js =
  let results, stats = Runner.Pool.run_results ?workers ?cache js in
  ( List.map
      (fun (out, r) ->
        match r with Ok b -> (out, b) | Error reason -> Alcotest.fail reason)
      results,
    stats )

let contains hay needle =
  let n = String.length needle and m = String.length hay in
  let rec at i = i + n <= m && (String.sub hay i n = needle || at (i + 1)) in
  at 0

let fresh_dir prefix =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s_%d_%.0f" prefix (Unix.getpid ())
         (Unix.gettimeofday () *. 1e6))
  in
  (* Cache.create makes the directory itself. *)
  d

let rec rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f ->
        let p = Filename.concat dir f in
        if Sys.is_directory p then rm_rf p else Sys.remove p)
      (Sys.readdir dir);
    Sys.rmdir dir
  end

(* ------------------------------------------------------------------ *)
(* Serial execution                                                    *)
(* ------------------------------------------------------------------ *)

let test_serial_order_and_stats () =
  let results, stats = run_ok (jobs 7) in
  let vals = List.map snd (decoded results) in
  Alcotest.(check (list int)) "results in job order"
    [ 0; 1; 4; 9; 16; 25; 36 ] vals;
  Alcotest.(check int) "jobs" 7 stats.Runner.Pool.jobs;
  Alcotest.(check int) "executed" 7 stats.Runner.Pool.executed;
  Alcotest.(check int) "cache hits" 0 stats.Runner.Pool.cache_hits;
  Alcotest.(check int) "respawns" 0 stats.Runner.Pool.respawns

let test_serial_captures_stdout () =
  let results, _ = run_ok [ job 5 ] in
  match results with
  | [ (out, _) ] ->
      Alcotest.(check string) "captured text" "job 5 starts\n..\njob 5 done\n" out
  | _ -> Alcotest.fail "expected one result"

(* ------------------------------------------------------------------ *)
(* Parallel execution                                                  *)
(* ------------------------------------------------------------------ *)

let test_parallel_matches_serial () =
  let serial, _ = run_ok (jobs 20) in
  let parallel, stats = run_ok ~workers:4 (jobs 20) in
  Alcotest.(check (list (pair string int)))
    "same (stdout, result) in same order" (decoded serial) (decoded parallel);
  Alcotest.(check int) "executed" 20 stats.Runner.Pool.executed;
  Alcotest.(check int) "respawns" 0 stats.Runner.Pool.respawns

let test_more_workers_than_jobs () =
  let results, stats = run_ok ~workers:16 (jobs 3) in
  Alcotest.(check (list int)) "results" [ 0; 1; 4 ]
    (List.map snd (decoded results));
  Alcotest.(check int) "executed" 3 stats.Runner.Pool.executed

let test_empty_job_list () =
  let results, stats = run_ok ~workers:4 [] in
  Alcotest.(check int) "no results" 0 (List.length results);
  Alcotest.(check int) "no jobs" 0 stats.Runner.Pool.jobs

(* ------------------------------------------------------------------ *)
(* Failure handling                                                    *)
(* ------------------------------------------------------------------ *)

(* A raising job fails its own slot; its siblings still deliver. *)
let check_exception_slot key = function
  | [ (_, Ok a); (_, Error reason); (_, Ok b) ] ->
      Alcotest.(check (pair int int)) (key ^ ": siblings deliver") (1, 4)
        (Runner.Job.decode a, Runner.Job.decode b);
      Alcotest.(check bool) (key ^ ": reason mentions boom") true
        (contains reason "boom")
  | _ -> Alcotest.fail (key ^ ": expected Ok/Error/Ok in job order")

let test_job_exception_serial () =
  let bad =
    Runner.Job.create ~key:"t/raise" (fun () -> if true then failwith "boom" else 0)
  in
  let results, stats = Runner.Pool.run_results [ job 1; bad; job 2 ] in
  check_exception_slot "t/raise" results;
  Alcotest.(check int) "two executed" 2 stats.Runner.Pool.executed

let test_job_exception_parallel () =
  let bad =
    Runner.Job.create ~key:"t/raise-par" (fun () -> if true then failwith "boom" else 0)
  in
  let results, _ = Runner.Pool.run_results ~workers:2 [ job 1; bad; job 2 ] in
  check_exception_slot "t/raise-par" results

(* No-sleep policy so retry tests don't wait out real backoff. *)
let test_policy ?deadline ?(max_attempts = 3) () =
  { Runner.Supervise.max_attempts; deadline; sleep = (fun _ -> ()) }

let done_payload = function
  | Runner.Supervise.Done { out; payload } -> (out, payload)
  | Runner.Supervise.Quarantined { reason; _ } -> Alcotest.fail reason

let test_crashed_worker_respawns () =
  (* The job SIGKILLs its own worker on the first attempt (marker file
     absent) and succeeds on the retry.  Requires >= 2 workers so the
     suicide happens in a forked child, never in the test process.  The
     pool respawns the worker and fails the slot; supervision retries. *)
  let marker = Filename.temp_file "runner_crash" ".marker" in
  Sys.remove marker;
  let suicidal =
    Runner.Job.create ~key:"t/suicide" (fun () ->
        if not (Sys.file_exists marker) then begin
          Out_channel.with_open_bin marker (fun oc ->
              Out_channel.output_string oc "x");
          Unix.kill (Unix.getpid ()) Sys.sigkill
        end;
        42)
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove marker with Sys_error _ -> ())
    (fun () ->
      let outcomes, stats =
        Runner.Supervise.run ~workers:2 ~policy:(test_policy ())
          [ job 1; suicidal; job 2 ]
      in
      Alcotest.(check (list int)) "all results present" [ 1; 42; 4 ]
        (List.map
           (function
             | Runner.Supervise.Done { payload; _ } -> Runner.Job.decode payload
             | Runner.Supervise.Quarantined { reason; _ } -> Alcotest.fail reason)
           outcomes);
      Alcotest.(check bool) "respawned at least once" true
        (stats.Runner.Pool.respawns >= 1);
      Alcotest.(check int) "one retry" 1 stats.Runner.Pool.retried)

let test_persistent_crash_fails () =
  let suicidal =
    Runner.Job.create ~key:"t/always-dies" (fun () ->
        Unix.kill (Unix.getpid ()) Sys.sigkill;
        0)
  in
  let outcomes, stats =
    Runner.Supervise.run ~workers:2 ~policy:(test_policy ~max_attempts:2 ())
      [ suicidal ]
  in
  (match outcomes with
  | [ Runner.Supervise.Quarantined { history; _ } ] ->
      Alcotest.(check int) "quarantined after max_attempts" 2
        (List.length history)
  | _ -> Alcotest.fail "expected Quarantined");
  Alcotest.(check int) "one quarantine" 1 stats.Runner.Pool.quarantined;
  Alcotest.(check int) "respawned per attempt" 2 stats.Runner.Pool.respawns

(* A deadline holds at any worker count: with the default one worker the
   job runs forked, so a stuck attempt can be killed. *)
let test_timeout_kills_stuck_worker workers () =
  let stuck =
    Runner.Job.create ~key:"t/stuck" (fun () ->
        Unix.sleep 30;
        0)
  in
  match Runner.Pool.run_results ?workers ~timeout:0.4 [ stuck ] with
  | [ (_, Error reason) ], stats ->
      Alcotest.(check bool) "reason mentions the timeout" true
        (contains reason "timed out");
      Alcotest.(check int) "worker respawned" 1 stats.Runner.Pool.respawns
  | _ -> Alcotest.fail "expected an Error slot"

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

let test_cache_roundtrip () =
  let dir = fresh_dir "runner_cache_rt" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let c = Runner.Cache.create ~dir ~version:"v1" () in
      Alcotest.(check (option (pair string bytes))) "miss on empty" None
        (Runner.Cache.find c ~key:"k");
      Runner.Cache.store c ~key:"k" ~stdout:"hello\n"
        ~payload:(Marshal.to_bytes 17 []);
      (match Runner.Cache.find c ~key:"k" with
      | Some (out, payload) ->
          Alcotest.(check string) "stdout back" "hello\n" out;
          Alcotest.(check int) "payload back" 17 (Marshal.from_bytes payload 0)
      | None -> Alcotest.fail "expected hit");
      Alcotest.(check int) "one hit" 1 (Runner.Cache.hits c);
      Alcotest.(check int) "one miss" 1 (Runner.Cache.misses c))

let test_cache_version_invalidates () =
  let dir = fresh_dir "runner_cache_ver" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let c1 = Runner.Cache.create ~dir ~version:"v1" () in
      Runner.Cache.store c1 ~key:"k" ~stdout:"" ~payload:(Bytes.of_string "p");
      let c2 = Runner.Cache.create ~dir ~version:"v2" () in
      Alcotest.(check bool) "other version misses" true
        (Runner.Cache.find c2 ~key:"k" = None);
      let c1' = Runner.Cache.create ~dir ~version:"v1" () in
      Alcotest.(check bool) "same version hits" true
        (Runner.Cache.find c1' ~key:"k" <> None))

let run_with_cache ~dir ~workers n =
  let cache = Runner.Cache.create ~dir ~version:"test" () in
  run_ok ~workers ~cache (jobs n)

let test_cached_rerun_executes_nothing () =
  let dir = fresh_dir "runner_cache_pool" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let cold, s1 = run_with_cache ~dir ~workers:1 9 in
      Alcotest.(check int) "cold run executes all" 9 s1.Runner.Pool.executed;
      let warm, s2 = run_with_cache ~dir ~workers:1 9 in
      Alcotest.(check int) "warm run executes nothing" 0 s2.Runner.Pool.executed;
      Alcotest.(check int) "warm run all hits" 9 s2.Runner.Pool.cache_hits;
      Alcotest.(check (list (pair string int))) "identical replay"
        (decoded cold) (decoded warm);
      (* A parallel run over a warm cache is identical too. *)
      let warm_par, s3 = run_with_cache ~dir ~workers:4 9 in
      Alcotest.(check int) "parallel warm all hits" 9 s3.Runner.Pool.cache_hits;
      Alcotest.(check (list (pair string int))) "identical parallel replay"
        (decoded cold) (decoded warm_par))

let test_parallel_run_fills_cache () =
  let dir = fresh_dir "runner_cache_par" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let _, s1 = run_with_cache ~dir ~workers:4 12 in
      Alcotest.(check int) "parallel cold executes all" 12
        s1.Runner.Pool.executed;
      let _, s2 = run_with_cache ~dir ~workers:1 12 in
      Alcotest.(check int) "serial warm run hits parallel entries" 12
        s2.Runner.Pool.cache_hits)

let test_truncated_cache_entry_recomputed () =
  let dir = fresh_dir "runner_cache_trunc" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let _, s1 = run_with_cache ~dir ~workers:1 3 in
      Alcotest.(check int) "cold run executes all" 3 s1.Runner.Pool.executed;
      (* Truncate every entry as a crash mid-write would (if the writes
         were not atomic) and garble one outright. *)
      let entries =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".job")
        |> List.map (Filename.concat dir)
      in
      Alcotest.(check int) "three entries on disk" 3 (List.length entries);
      List.iteri
        (fun i p ->
          let raw = In_channel.with_open_bin p In_channel.input_all in
          Out_channel.with_open_bin p (fun oc ->
              if i = 0 then Out_channel.output_string oc "garbage"
              else
                Out_channel.output_string oc
                  (String.sub raw 0 (String.length raw / 2))))
        entries;
      (* Corrupt entries must degrade to misses and recompute, not crash
         or decode garbage. *)
      let again, s2 = run_with_cache ~dir ~workers:1 3 in
      Alcotest.(check int) "all recomputed" 3 s2.Runner.Pool.executed;
      Alcotest.(check int) "no hits from corrupt entries" 0
        s2.Runner.Pool.cache_hits;
      Alcotest.(check (list int)) "results still correct" [ 0; 1; 4 ]
        (List.map snd (decoded again));
      (* The recomputation rewrote intact entries. *)
      let _, s3 = run_with_cache ~dir ~workers:1 3 in
      Alcotest.(check int) "entries healed" 3 s3.Runner.Pool.cache_hits)

(* ------------------------------------------------------------------ *)
(* Supervision                                                         *)
(* ------------------------------------------------------------------ *)

let test_supervise_matches_plain () =
  let plain, _ = run_ok (jobs 6) in
  let outcomes, stats =
    Runner.Supervise.run ~policy:(test_policy ()) (jobs 6)
  in
  Alcotest.(check (list (pair string int)))
    "supervised results byte-equal to plain pool run" (decoded plain)
    (decoded (List.map done_payload outcomes));
  Alcotest.(check int) "no retries" 0 stats.Runner.Pool.retried;
  Alcotest.(check int) "no quarantines" 0 stats.Runner.Pool.quarantined

(* Fails (raises) on its first two attempts, then returns 777; the
   attempt count lives in [marker], which it resets to 0. *)
let flaky_job marker =
  Out_channel.with_open_bin marker (fun oc -> Out_channel.output_string oc "0");
  Runner.Job.create ~key:"t/flaky" (fun () ->
      let n =
        int_of_string (In_channel.with_open_bin marker In_channel.input_all)
      in
      Out_channel.with_open_bin marker (fun oc ->
          Out_channel.output_string oc (string_of_int (n + 1)));
      if n < 2 then failwith (Printf.sprintf "flaky attempt %d" n);
      777)

let test_supervise_retries_flaky () =
  (* One job's flakiness must not fail the matrix, and the attempts must
     be counted. *)
  let marker = Filename.temp_file "runner_flaky" ".marker" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove marker with Sys_error _ -> ())
    (fun () ->
      let outcomes, stats =
        Runner.Supervise.run ~policy:(test_policy ())
          [ job 1; flaky_job marker ]
      in
      (match outcomes with
      | [ Runner.Supervise.Done _; Runner.Supervise.Done { payload; _ } ] ->
          Alcotest.(check int) "flaky result" 777
            (Runner.Job.decode payload)
      | _ -> Alcotest.fail "expected both jobs Done");
      Alcotest.(check int) "two retries counted" 2 stats.Runner.Pool.retried)

let test_supervise_quarantine_and_failure_record () =
  let dir = fresh_dir "runner_quarantine" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let cache = Runner.Cache.create ~dir ~version:"test" () in
      let bad =
        Runner.Job.create ~key:"t/hopeless" (fun () ->
            if true then failwith "always broken";
            0)
      in
      let outcomes, stats =
        Runner.Supervise.run
          ~policy:(test_policy ~max_attempts:2 ())
          ~cache [ job 1; bad ]
      in
      (match outcomes with
      | [ Runner.Supervise.Done _;
          Runner.Supervise.Quarantined { reason; history } ] ->
          Alcotest.(check int) "full attempt history" 2 (List.length history);
          Alcotest.(check bool) "reason mentions the failure" true
            (String.length reason > 0)
      | _ -> Alcotest.fail "expected Done + Quarantined");
      Alcotest.(check int) "one quarantine" 1 stats.Runner.Pool.quarantined;
      (* The structured failure record landed beside the cache. *)
      let record = Runner.Supervise.failure_record_path cache "t/hopeless" in
      Alcotest.(check bool) "failure record exists" true
        (Sys.file_exists record);
      let body = In_channel.with_open_bin record In_channel.input_all in
      List.iter
        (fun needle ->
          let n = String.length needle and m = String.length body in
          let rec at i =
            i + n <= m && (String.sub body i n = needle || at (i + 1))
          in
          Alcotest.(check bool) ("record contains " ^ needle) true (at 0))
        [ "t/hopeless"; "always broken"; "\"attempts\"" ])

(* Recovery is the cache: a re-run after a crash replays every finished
   job and executes only the ones whose entries are missing. *)
let test_supervise_rerun_executes_missing () =
  let dir = fresh_dir "runner_rerun" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let run () =
        let cache = Runner.Cache.create ~dir ~version:"test" () in
        let outcomes, stats =
          Runner.Supervise.run ~policy:(test_policy ()) ~cache (jobs 4)
        in
        (decoded (List.map done_payload outcomes), stats)
      in
      let first, s1 = run () in
      Alcotest.(check int) "first run executes all" 4 s1.Runner.Pool.executed;
      (* A run killed before this job's result landed. *)
      (match
         Sys.readdir dir |> Array.to_list
         |> List.filter (fun f -> Filename.check_suffix f ".job")
       with
      | victim :: _ -> Sys.remove (Filename.concat dir victim)
      | [] -> Alcotest.fail "no cache entry on disk");
      let again, s2 = run () in
      Alcotest.(check int) "the rest replayed" 3 s2.Runner.Pool.cache_hits;
      Alcotest.(check int) "one executed" 1 s2.Runner.Pool.executed;
      Alcotest.(check (list (pair string int))) "same results" first again)

(* A job quarantined by one run is attempted again by the next run on the
   same cache, and the first run's failure record stays. *)
let test_supervise_quarantine_retried_next_run () =
  let dir = fresh_dir "runner_requarantine" in
  let marker = Filename.temp_file "runner_flaky" ".marker" in
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir;
      try Sys.remove marker with Sys_error _ -> ())
    (fun () ->
      let flaky = flaky_job marker in
      let run () =
        let cache = Runner.Cache.create ~dir ~version:"test" () in
        ( cache,
          Runner.Supervise.run
            ~policy:(test_policy ~max_attempts:2 ())
            ~cache [ job 1; flaky ] )
      in
      let cache, (outcomes, s1) = run () in
      (match outcomes with
      | [ Runner.Supervise.Done _; Runner.Supervise.Quarantined _ ] -> ()
      | _ -> Alcotest.fail "expected Done + Quarantined");
      Alcotest.(check int) "one quarantine" 1 s1.Runner.Pool.quarantined;
      let record = Runner.Supervise.failure_record_path cache "t/flaky" in
      let body = In_channel.with_open_bin record In_channel.input_all in
      let _, (outcomes, s2) = run () in
      (match outcomes with
      | [ _; Runner.Supervise.Done { payload; _ } ] ->
          Alcotest.(check int) "flaky result" 777 (Runner.Job.decode payload)
      | _ -> Alcotest.fail "expected the quarantined job Done");
      Alcotest.(check int) "sibling replayed" 1 s2.Runner.Pool.cache_hits;
      Alcotest.(check int) "quarantined job attempted again" 1
        s2.Runner.Pool.executed;
      Alcotest.(check int) "no quarantine" 0 s2.Runner.Pool.quarantined;
      Alcotest.(check string) "the first run's record stays" body
        (In_channel.with_open_bin record In_channel.input_all))

(* The numeric parameters behind repro's --deadline, --max-attempts and
   --fuzz reject out-of-range values, NaN included, before any job runs,
   naming the parameter. *)
let test_numeric_arguments_rejected () =
  let supervise policy () =
    ignore (Runner.Supervise.run ~policy [ job 1 ])
  in
  let cases =
    [
      ("max_attempts", supervise (test_policy ~max_attempts:0 ()));
      ("max_attempts", supervise (test_policy ~max_attempts:(-1) ()));
      ("n", fun () -> ignore (Validate.Fuzz.run ~seed:1 ~n:(-3) ()));
    ]
    @ List.concat_map
        (fun v ->
          [
            ("deadline", supervise (test_policy ~deadline:v ()));
            ( "timeout",
              fun () -> ignore (Runner.Pool.run_results ~timeout:v [ job 1 ]) );
          ])
        [ 0.; -1.; Float.nan; Float.infinity; Float.neg_infinity ]
  in
  List.iter
    (fun (param, f) ->
      match f () with
      | () -> Alcotest.failf "a bad %s was accepted" param
      | exception Invalid_argument msg ->
          Alcotest.(check bool) (msg ^ " names " ^ param) true
            (contains msg param))
    cases

let test_supervise_backoff_deterministic () =
  let b1 = Runner.Supervise.backoff ~key:"k" ~attempt:1 in
  let b1' = Runner.Supervise.backoff ~key:"k" ~attempt:1 in
  let b4 = Runner.Supervise.backoff ~key:"k" ~attempt:4 in
  Alcotest.(check (float 0.)) "replayable" b1 b1';
  Alcotest.(check bool) "grows with attempts" true (b4 > b1);
  Alcotest.(check (float 0.)) "capped at 2 s" 2.0
    (Runner.Supervise.backoff ~key:"k" ~attempt:30)

(* ------------------------------------------------------------------ *)
(* repro exit codes                                                    *)
(* ------------------------------------------------------------------ *)

(* The driver's failure contract, checked end to end on the real binary:
   a quarantined (retry-exhausted) job must not exit 0 — CI green with a
   silently skipped experiment is the worst failure mode a result-
   reproduction repo can have.  [--allow-failures] is the explicit
   opt-out: the experiment is skipped with a notice and the rest of the
   matrix still reports. *)

let repro_exe = "../bin/repro.exe"

let run_repro args =
  Sys.command (Printf.sprintf "%s %s >/dev/null 2>&1" repro_exe args)

(* Absent when each row starts: the driver must create the missing
   parents of every directory it writes into. *)
let missing_parent = fresh_dir "repro_missing"
let under_missing_parent = Filename.quote (Filename.concat missing_parent "b")

(* A regular file where [repro] must make a directory, under it or in
   its place: [repro] names the path and exits 1, not 125 from an
   uncaught [ENOTDIR]. *)
let regular_file = Filename.temp_file "repro_file" ""
let () = at_exit (fun () -> try Sys.remove regular_file with Sys_error _ -> ())
let under_file name = Filename.quote (Filename.concat regular_file name)

(* (test name, arguments, expected exit code).  The flags act alike
   serially and on forked workers: every run is supervised. *)
let exit_code_cases =
  List.concat_map
    (fun (prefix, jobs) ->
      [
        ( prefix ^ "quarantine exits nonzero",
          "selftest-fail --no-cache --max-attempts 2" ^ jobs,
          3 );
        ( prefix ^ "allow-failures downgrades",
          "selftest-fail --no-cache --max-attempts 2 --allow-failures" ^ jobs,
          0 );
      ])
    [ ("", ""); ("-j 2 ", " -j 2") ]
  @ [
      ( "replay of a missing file exits 1",
        "--replay no-such-reproducer.bin",
        1 );
      ( "selftest-shrink makes parents",
        "--selftest-shrink " ^ under_missing_parent,
        0 );
      ( "fuzz cache-dir makes parents",
        "--fuzz 0 --cache-dir " ^ under_missing_parent,
        0 );
      ("fuzz cache-dir under a file exits 1", "--fuzz 0 --cache-dir " ^ under_file "x", 1);
      ("selftest-shrink under a file exits 1", "--selftest-shrink " ^ under_file "y", 1);
      ("cache-dir under a file exits 1", "fig1 --quick --cache-dir " ^ under_file "z", 1);
      ( "cache-dir that is a file exits 1",
        "fig1 --quick --cache-dir " ^ Filename.quote regular_file,
        1 );
      ("export under a file exits 1", "--export " ^ under_file "w" ^ " --quick", 1);
    ]

let test_repro_exit_code (_, args, code) () =
  if not (Sys.file_exists repro_exe) then Alcotest.skip ()
  else
    Fun.protect
      ~finally:(fun () -> rm_rf missing_parent)
      (fun () ->
        Alcotest.(check int) (Printf.sprintf "repro %s exits %d" args code)
          code (run_repro args))

(* An out-of-range numeric flag is a command-line error: exit 124 with
   the flag named on stderr, not an uncaught exception (125), a matrix
   whose every attempt times out (3) or a silent success (0). *)
let bad_flags =
  [
    ("--max-attempts", "0");
    ("--deadline", "-1");
    ("--deadline", "0");
    ("--deadline", "nan");
    ("--deadline", "inf");
    ("--fuzz", "-3");
  ]

let test_repro_rejects_bad_flag (flag, value) () =
  if not (Sys.file_exists repro_exe) then Alcotest.skip ()
  else begin
    let err = Filename.temp_file "repro_flag" ".err" in
    let status =
      Sys.command
        (Printf.sprintf "%s fig1 --quick --no-cache %s=%s >/dev/null 2>%s"
           repro_exe flag value (Filename.quote err))
    in
    let msg = In_channel.with_open_bin err In_channel.input_all in
    Sys.remove err;
    Alcotest.(check int) (flag ^ "=" ^ value ^ " exits 124") 124 status;
    Alcotest.(check bool) ("the message names " ^ flag) true
      (contains msg flag)
  end

(* ------------------------------------------------------------------ *)
(* Registry plans                                                      *)
(* ------------------------------------------------------------------ *)

let plan_keys ~quick ~backend =
  List.concat_map
    (fun e ->
      List.map Runner.Job.key
        (e.Experiments.Registry.plan ~quick ~backend).Experiments.Registry.jobs)
    Experiments.Registry.all

(* A call without a policy is supervised too: under [allow_failures] a
   quarantined job skips its experiment instead of raising. *)
let test_registry_allow_failures_without_policy () =
  let failing = Option.get (Experiments.Registry.find "selftest-fail") in
  let rows, stats =
    Experiments.Registry.run_selection ~allow_failures:true [ failing ]
  in
  Alcotest.(check int) "no rows" 0 (List.length rows);
  Alcotest.(check int) "quarantined" 1 stats.Runner.Pool.quarantined

let test_registry_plans_cover_all () =
  List.iter
    (fun e ->
      let p =
        e.Experiments.Registry.plan ~quick:true
          ~backend:Fluid.Backend.Packet
      in
      Alcotest.(check bool)
        (e.Experiments.Registry.key ^ " has jobs")
        true
        (List.length p.Experiments.Registry.jobs >= 1))
    Experiments.Registry.all

let test_registry_job_keys_unique () =
  let keys = plan_keys ~quick:true ~backend:Fluid.Backend.Packet in
  let distinct = List.sort_uniq String.compare keys in
  Alcotest.(check int) "keys globally unique" (List.length keys)
    (List.length distinct);
  (* Quick and full plans must not collide either: a quick result must
     never satisfy a full-mode lookup. *)
  let full_keys = plan_keys ~quick:false ~backend:Fluid.Backend.Packet in
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " not shared with full mode") false
        (List.mem k full_keys))
    keys

(* The backend cache-key discipline: a backend-aware experiment's fluid
   jobs must never share a key with its packet jobs (a cached packet
   result satisfying a --backend fluid request would silently void the
   cross-validation), while packet-only experiments keep backend-free
   keys so their results cache across backend selections. *)
let test_registry_backend_keys_disjoint () =
  let packet = plan_keys ~quick:true ~backend:Fluid.Backend.Packet in
  List.iter
    (fun backend ->
      let keys = plan_keys ~quick:true ~backend in
      let tag = "/backend=" ^ Fluid.Backend.to_string backend in
      let aware, agnostic =
        List.partition
          (fun k ->
            let lk = String.length k and lt = String.length tag in
            lk >= lt && String.sub k (lk - lt) lt = tag)
          keys
      in
      Alcotest.(check bool)
        (Fluid.Backend.to_string backend ^ " has backend-aware jobs")
        true (aware <> []);
      List.iter
        (fun k ->
          Alcotest.(check bool) (k ^ " disjoint from packet keys") false
            (List.mem k packet))
        aware;
      (* Everything else is the same computation under any backend and
         must reuse the packet key verbatim. *)
      List.iter
        (fun k ->
          Alcotest.(check bool) (k ^ " cached across backends") true
            (List.mem k packet))
        agnostic)
    [ Fluid.Backend.Fluid; Fluid.Backend.Hybrid ]

let () =
  Alcotest.run "runner"
    [
      ( "serial",
        [
          Alcotest.test_case "order and stats" `Quick test_serial_order_and_stats;
          Alcotest.test_case "captures stdout" `Quick test_serial_captures_stdout;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "matches serial" `Quick test_parallel_matches_serial;
          Alcotest.test_case "more workers than jobs" `Quick
            test_more_workers_than_jobs;
          Alcotest.test_case "empty job list" `Quick test_empty_job_list;
        ] );
      ( "failures",
        [
          Alcotest.test_case "job exception serial" `Quick test_job_exception_serial;
          Alcotest.test_case "job exception parallel" `Quick
            test_job_exception_parallel;
          Alcotest.test_case "crashed worker respawns" `Quick
            test_crashed_worker_respawns;
          Alcotest.test_case "persistent crash fails" `Quick
            test_persistent_crash_fails;
          Alcotest.test_case "timeout kills stuck worker" `Quick
            (test_timeout_kills_stuck_worker (Some 2));
          Alcotest.test_case "timeout at one worker" `Quick
            (test_timeout_kills_stuck_worker None);
        ] );
      ( "cache",
        [
          Alcotest.test_case "roundtrip" `Quick test_cache_roundtrip;
          Alcotest.test_case "version invalidates" `Quick
            test_cache_version_invalidates;
          Alcotest.test_case "cached rerun executes nothing" `Quick
            test_cached_rerun_executes_nothing;
          Alcotest.test_case "parallel run fills cache" `Quick
            test_parallel_run_fills_cache;
          Alcotest.test_case "truncated entry recomputed" `Quick
            test_truncated_cache_entry_recomputed;
        ] );
      ( "supervise",
        [
          Alcotest.test_case "matches plain pool run" `Quick
            test_supervise_matches_plain;
          Alcotest.test_case "retries flaky job" `Quick
            test_supervise_retries_flaky;
          Alcotest.test_case "quarantine writes failure record" `Quick
            test_supervise_quarantine_and_failure_record;
          Alcotest.test_case "re-run executes missing entries" `Quick
            test_supervise_rerun_executes_missing;
          Alcotest.test_case "quarantine retried next run" `Quick
            test_supervise_quarantine_retried_next_run;
          Alcotest.test_case "backoff deterministic" `Quick
            test_supervise_backoff_deterministic;
          Alcotest.test_case "numeric arguments rejected" `Quick
            test_numeric_arguments_rejected;
        ] );
      ( "registry",
        [
          Alcotest.test_case "plans cover all experiments" `Quick
            test_registry_plans_cover_all;
          Alcotest.test_case "job keys unique" `Quick test_registry_job_keys_unique;
          Alcotest.test_case "backend keys disjoint" `Quick
            test_registry_backend_keys_disjoint;
          Alcotest.test_case "allow-failures without a policy" `Quick
            test_registry_allow_failures_without_policy;
        ] );
      ( "repro-exit-codes",
        List.map
          (fun ((name, _, _) as case) ->
            Alcotest.test_case name `Quick (test_repro_exit_code case))
          exit_code_cases
        @ List.map
            (fun ((flag, value) as case) ->
              Alcotest.test_case
                (Printf.sprintf "rejects %s=%s" flag value)
                `Quick
                (test_repro_rejects_bad_flag case))
            bad_flags );
    ]

type policy = {
  max_attempts : int;
  deadline : float option;
  sleep : float -> unit;
}

let default_policy = { max_attempts = 3; deadline = None; sleep = Unix.sleepf }

type attempt = { attempt : int; error : string }

type outcome =
  | Done of { out : string; payload : bytes }
  | Quarantined of { reason : string; history : attempt list }

(* Deterministic jitter: spreads simultaneous retries without consulting
   the clock, so a supervised run is replayable.  The first retry waits
   about 50 ms; the wait doubles per attempt up to a 2 s cap. *)
let backoff ~key ~attempt =
  let frac = float_of_int (Hashtbl.hash (key, attempt) land 0xFFFF) /. 65536. in
  Float.min 2.0
    (0.05 *. (2. ** float_of_int (attempt - 1)) *. (1. +. (0.5 *. frac)))

(* ------------------------------------------------------------------ *)
(* Resume journal                                                      *)
(* ------------------------------------------------------------------ *)

(* Append-only, fsync'd per line: "done <md5(key)> <key>" when a job's
   result reached the cache, "quarantine <md5(key)> <key>" when it was
   abandoned.  The digest makes torn lines (a crash mid-append)
   self-invalidating — a line whose digest does not match its key is
   ignored, and the job simply recomputes. *)

let key_digest key = Digest.to_hex (Digest.string key)

let parse_line line =
  match String.index_opt line ' ' with
  | None -> None
  | Some i -> (
      let kind = String.sub line 0 i in
      let rest = String.sub line (i + 1) (String.length line - i - 1) in
      match String.index_opt rest ' ' with
      | None -> None
      | Some j ->
          let md5 = String.sub rest 0 j in
          let key = String.sub rest (j + 1) (String.length rest - j - 1) in
          if md5 <> key_digest key then None
          else
            (match kind with
            | "done" -> Some (`Done, key)
            | "quarantine" -> Some (`Quarantine, key)
            | _ -> None))

let read_journal path =
  let done_keys = Hashtbl.create 32 and quarantined = Hashtbl.create 8 in
  (match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> ()
  | content ->
      String.split_on_char '\n' content
      |> List.iter (fun line ->
             match parse_line line with
             | Some (`Done, key) -> Hashtbl.replace done_keys key ()
             | Some (`Quarantine, key) -> Hashtbl.replace quarantined key ()
             | None -> ()));
  (done_keys, quarantined)

let append_journal path kind key =
  let line = Printf.sprintf "%s %s %s\n" kind (key_digest key) key in
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let n = String.length line in
      let written = ref 0 in
      while !written < n do
        written := !written + Unix.write_substring fd line !written (n - !written)
      done;
      Unix.fsync fd)

(* ------------------------------------------------------------------ *)
(* Failure records                                                     *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let failure_record_path cache key =
  Filename.concat (Filename.concat (Cache.dir cache) "failures")
    (key_digest key ^ ".json")

let write_failure_record cache ~key ~reason ~history =
  Cache.mkdir_p (Filename.concat (Cache.dir cache) "failures");
  let attempts =
    history
    |> List.map (fun a ->
           Printf.sprintf "    {\"attempt\": %d, \"error\": \"%s\"}" a.attempt
             (json_escape a.error))
    |> String.concat ",\n"
  in
  let body =
    Printf.sprintf
      "{\n\
      \  \"key\": \"%s\",\n\
      \  \"reason\": \"%s\",\n\
      \  \"attempts\": [\n%s\n  ]\n\
       }\n"
      (json_escape key) (json_escape reason) attempts
  in
  Cache.write_atomic (failure_record_path cache key) body

(* ------------------------------------------------------------------ *)
(* Supervised execution                                                *)
(* ------------------------------------------------------------------ *)

let run ?workers ?(policy = default_policy) ?cache ?journal jobs =
  if policy.max_attempts < 1 then
    invalid_arg "Supervise.run: max_attempts must be >= 1";
  (match policy.deadline with
  | Some d when not (d > 0. && Float.is_finite d) ->
      invalid_arg "Supervise.run: deadline must be finite and > 0"
  | _ -> ());
  let jobs_arr = Array.of_list jobs in
  let n = Array.length jobs_arr in
  let outcomes : outcome option array = Array.make n None in
  let history = Array.make n [] (* newest first *) in
  let attempt_count = Array.make n 0 in
  let resumed = ref 0 and retried = ref 0 and quarantined_n = ref 0 in
  let cache_hits = ref 0 and executed = ref 0 and respawns = ref 0 in
  let journal_done key =
    match journal with Some p -> append_journal p "done" key | None -> ()
  in
  let quarantine i reason =
    let key = Job.key jobs_arr.(i) in
    outcomes.(i) <- Some (Quarantined { reason; history = List.rev history.(i) });
    incr quarantined_n;
    (match cache with
    | Some c ->
        write_failure_record c ~key ~reason ~history:(List.rev history.(i))
    | None -> ());
    match journal with Some p -> append_journal p "quarantine" key | None -> ()
  in
  (* Resume: a journaled "done" short-circuits the job iff its cache
     entry is still present and intact; a missing or corrupt entry falls
     through to recomputation.  A journaled "quarantine" is final for
     this journal's lifetime. *)
  (match journal with
  | None -> ()
  | Some path ->
      let done_keys, quarantined_keys = read_journal path in
      Array.iteri
        (fun i j ->
          let key = Job.key j in
          if Hashtbl.mem done_keys key then begin
            match Option.bind cache (fun c -> Cache.find c ~key) with
            | Some (out, payload) ->
                outcomes.(i) <- Some (Done { out; payload });
                incr resumed
            | None -> ()
          end
          else if Hashtbl.mem quarantined_keys key then begin
            history.(i) <-
              [ { attempt = 0; error = "quarantined by a previous run" } ];
            outcomes.(i) <-
              Some
                (Quarantined
                   {
                     reason = "quarantined by a previous run (resume journal)";
                     history = history.(i);
                   });
            incr quarantined_n
          end)
        jobs_arr);
  let pending () =
    Array.to_list
      (Array.of_seq
         (Seq.filter_map
            (fun i -> if outcomes.(i) = None then Some i else None)
            (Seq.init n Fun.id)))
  in
  let wave = ref 0 in
  let rec loop () =
    match pending () with
    | [] -> ()
    | idxs ->
        incr wave;
        if !wave > 1 then begin
          (* One sleep per wave: the longest backoff owed by any job in
             it (jobs re-run together anyway). *)
          let b =
            List.fold_left
              (fun acc i ->
                Float.max acc
                  (backoff ~key:(Job.key jobs_arr.(i))
                     ~attempt:attempt_count.(i)))
              0. idxs
          in
          if b > 0. then policy.sleep b
        end;
        let wave_jobs = List.map (fun i -> jobs_arr.(i)) idxs in
        (* The journal line is written from inside the pool the moment a
           job's result lands, not after the wave: a run killed mid-wave
           must leave breadcrumbs for every job that actually finished. *)
        let results, stats =
          Pool.run_results ?workers ?timeout:policy.deadline ?cache
            ~on_done:(fun j -> journal_done (Job.key j))
            wave_jobs
        in
        cache_hits := !cache_hits + stats.Pool.cache_hits;
        executed := !executed + stats.Pool.executed;
        respawns := !respawns + stats.Pool.respawns;
        List.iter2
          (fun i (out, res) ->
            match res with
            | Ok payload -> outcomes.(i) <- Some (Done { out; payload })
            | Error reason ->
                attempt_count.(i) <- attempt_count.(i) + 1;
                history.(i) <-
                  { attempt = attempt_count.(i); error = reason }
                  :: history.(i);
                if attempt_count.(i) >= policy.max_attempts then
                  quarantine i
                    (Printf.sprintf "failed %d attempt(s), last: %s"
                       attempt_count.(i) reason)
                else incr retried)
          idxs results;
        loop ()
  in
  loop ();
  let outcomes =
    Array.to_list
      (Array.map
         (function Some o -> o | None -> assert false)
         outcomes)
  in
  ( outcomes,
    {
      Pool.jobs = n;
      cache_hits = !cache_hits;
      executed = !executed;
      respawns = !respawns;
      retried = !retried;
      quarantined = !quarantined_n;
      resumed = !resumed;
    } )

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
    (Digest.to_hex (Digest.string key) ^ ".json")

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

let run ?workers ?(policy = default_policy) ?cache jobs =
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
  let retried = ref 0 and quarantined_n = ref 0 in
  let cache_hits = ref 0 and executed = ref 0 and respawns = ref 0 in
  let quarantine i reason =
    let key = Job.key jobs_arr.(i) in
    outcomes.(i) <- Some (Quarantined { reason; history = List.rev history.(i) });
    incr quarantined_n;
    match cache with
    | Some c ->
        write_failure_record c ~key ~reason ~history:(List.rev history.(i))
    | None -> ()
  in
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
        let results, stats =
          Pool.run_results ?workers ?timeout:policy.deadline ?cache wave_jobs
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
      resumed = 0;
    } )

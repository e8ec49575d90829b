type stats = {
  jobs : int;
  cache_hits : int;
  executed : int;
  respawns : int;
  retried : int;
  quarantined : int;
  resumed : int;
}

exception Job_failed of { key : string; reason : string }

let default_workers () = Domain.recommended_domain_count ()

(* ------------------------------------------------------------------ *)
(* Length-prefixed Marshal frames over pipes                           *)
(* ------------------------------------------------------------------ *)

let rec write_all fd buf pos len =
  if len > 0 then begin
    let n =
      try Unix.write fd buf pos len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd buf (pos + n) (len - n)
  end

let write_frame fd payload =
  let hdr = Bytes.create 8 in
  Bytes.set_int64_be hdr 0 (Int64.of_int (Bytes.length payload));
  write_all fd hdr 0 8;
  write_all fd payload 0 (Bytes.length payload)

(* [false] on EOF or a short read (a worker that died mid-frame). *)
let rec read_all fd buf pos len =
  len = 0
  ||
  match Unix.read fd buf pos len with
  | 0 -> false
  | n -> read_all fd buf (pos + n) (len - n)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_all fd buf pos len

let read_frame fd =
  let hdr = Bytes.create 8 in
  if not (read_all fd hdr 0 8) then None
  else begin
    let len = Int64.to_int (Bytes.get_int64_be hdr 0) in
    if len < 0 || len > 1 lsl 30 then None
    else
      let buf = Bytes.create len in
      if read_all fd buf 0 len then Some buf else None
  end

(* ------------------------------------------------------------------ *)
(* Per-job stdout capture                                              *)
(* ------------------------------------------------------------------ *)

(* Redirect fd 1 to a temp file around [f] so a job's prints can be
   replayed later in job order.  Works identically in-process and in a
   worker, which is what keeps -j 1 and -j N byte-identical. *)
let with_stdout_captured f =
  flush Stdlib.stdout;
  let path = Filename.temp_file "ccstarve_job" ".out" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stdout in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  let result = try Ok (f ()) with e -> Error e in
  flush Stdlib.stdout;
  Unix.dup2 saved Unix.stdout;
  Unix.close saved;
  let out =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error _ -> ""
  in
  (try Sys.remove path with Sys_error _ -> ());
  (out, result)

(* ------------------------------------------------------------------ *)
(* Worker side                                                         *)
(* ------------------------------------------------------------------ *)

type response = { r_idx : int; r_out : string; r_res : (bytes, string) result }

let worker_loop jobs req_r resp_w : unit =
  let rec loop () =
    match read_frame req_r with
    | None -> Unix._exit 0 (* parent closed the request pipe: done *)
    | Some frame ->
        let idx : int = Marshal.from_bytes frame 0 in
        let out, res =
          with_stdout_captured (fun () -> Job.force jobs.(idx))
        in
        let r_res =
          match res with
          | Ok payload -> Ok payload
          | Error e -> Error (Printexc.to_string e)
        in
        write_frame resp_w (Marshal.to_bytes { r_idx = idx; r_out = out; r_res } []);
        loop ()
  in
  try loop () with _ -> Unix._exit 1

(* ------------------------------------------------------------------ *)
(* Parent side                                                         *)
(* ------------------------------------------------------------------ *)

type worker = {
  pid : int;
  to_w : Unix.file_descr;
  from_w : Unix.file_descr;
  mutable current : int option; (* index of the in-flight job *)
  mutable started : float;
}

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let run_serial ?cache jobs =
  let hits = ref 0 and executed = ref 0 in
  let results =
    List.map
      (fun j ->
        let key = Job.key j in
        match Option.bind cache (fun c -> Cache.find c ~key) with
        | Some (out, payload) ->
            incr hits;
            (out, Ok payload)
        | None -> (
            let out, res = with_stdout_captured (fun () -> Job.force j) in
            match res with
            | Error e -> (out, Error (Printexc.to_string e))
            | Ok payload ->
                incr executed;
                Option.iter
                  (fun c -> Cache.store c ~key ~stdout:out ~payload)
                  cache;
                (out, Ok payload)))
      jobs
  in
  ( results,
    {
      jobs = List.length jobs;
      cache_hits = !hits;
      executed = !executed;
      respawns = 0;
      retried = 0;
      quarantined = 0;
      resumed = 0;
    } )

let run_parallel ~workers ~timeout ?cache jobs_list =
  let jobs = Array.of_list jobs_list in
  let n = Array.length jobs in
  let results : (string * (bytes, string) result) option array =
    Array.make n None
  in
  let hits = ref 0 and executed = ref 0 and respawns = ref 0 in
  let queue = Queue.create () in
  for i = 0 to n - 1 do
    match Option.bind cache (fun c -> Cache.find c ~key:(Job.key jobs.(i))) with
    | Some (out, payload) ->
        results.(i) <- Some (out, Ok payload);
        incr hits
    | None -> Queue.add i queue
  done;
  let remaining = ref (Queue.length queue) in
  let finish () =
    ( Array.to_list (Array.map Option.get results),
      {
        jobs = n;
        cache_hits = !hits;
        executed = !executed;
        respawns = !respawns;
        retried = 0;
        quarantined = 0;
        resumed = 0;
      } )
  in
  if !remaining = 0 then finish ()
  else begin
    let n_workers = max 1 (min workers !remaining) in
    (* Writes to a dead worker must surface as EPIPE, not kill the parent. *)
    let old_sigpipe =
      try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
      with Invalid_argument _ | Sys_error _ -> None
    in
    let pool = ref [] in
    let spawn () =
      (* Children must not inherit other workers' parent-side pipe ends:
         a surviving copy of a request write-end would keep that worker
         from ever seeing EOF at shutdown. *)
      let parent_fds = List.concat_map (fun w -> [ w.to_w; w.from_w ]) !pool in
      let req_r, req_w = Unix.pipe () in
      let resp_r, resp_w = Unix.pipe () in
      match Unix.fork () with
      | 0 ->
          List.iter close_quiet parent_fds;
          Unix.close req_w;
          Unix.close resp_r;
          worker_loop jobs req_r resp_w;
          Unix._exit 1
      | pid ->
          Unix.close req_r;
          Unix.close resp_w;
          let w = { pid; to_w = req_w; from_w = resp_r; current = None; started = 0. } in
          pool := w :: !pool;
          w
    in
    let reap pid = try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> () in
    let kill_worker w =
      (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
      close_quiet w.to_w;
      close_quiet w.from_w;
      pool := List.filter (fun w' -> w' != w) !pool;
      reap w.pid
    in
    let cleanup () =
      List.iter (fun w -> try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ()) !pool;
      List.iter
        (fun w ->
          close_quiet w.to_w;
          close_quiet w.from_w;
          reap w.pid)
        !pool;
      pool := [];
      match old_sigpipe with
      | Some b -> Sys.set_signal Sys.sigpipe b
      | None -> ()
    in
    Fun.protect ~finally:cleanup (fun () ->
        let slots = Array.init n_workers (fun _ -> spawn ()) in
        (* A failed job records an [Error] in its slot and the matrix
           keeps going; retrying or quarantining it is {!Supervise}'s
           call. *)
        let fail ?(out = "") i reason =
          results.(i) <- Some (out, Error reason);
          decr remaining
        in
        let rec dispatch k =
          match Queue.take_opt queue with
          | None -> ()
          | Some i ->
              let w = slots.(k) in
              w.current <- Some i;
              w.started <- Unix.gettimeofday ();
              (try write_frame w.to_w (Marshal.to_bytes i [])
               with Unix.Unix_error _ -> crash k "request pipe closed")
        and crash k reason =
          let w = slots.(k) in
          incr respawns;
          let job = w.current in
          w.current <- None;
          kill_worker w;
          Option.iter (fun i -> fail i reason) job;
          slots.(k) <- spawn ();
          dispatch k
        in
        for k = 0 to n_workers - 1 do
          dispatch k
        done;
        while !remaining > 0 do
          Array.iteri
            (fun k w ->
              if w.current = None && not (Queue.is_empty queue) then dispatch k)
            slots;
          (match timeout with
          | Some tmo ->
              let now = Unix.gettimeofday () in
              Array.iteri
                (fun k w ->
                  if w.current <> None && now -. w.started > tmo then
                    crash k (Printf.sprintf "timed out after %.1f s" tmo))
                slots
          | None -> ());
          (* A timeout may have just recorded the last outstanding
             result. *)
          if !remaining > 0 then begin
          let busy =
            Array.to_list slots |> List.filter (fun w -> w.current <> None)
          in
          assert (busy <> []);
          let fds = List.map (fun w -> w.from_w) busy in
          (* Wake no later than the earliest deadline, so an overrunning
             job is killed on time instead of at the next poll, and its
             late result is not accepted. *)
          let wait =
            match timeout with
            | None -> 0.25
            | Some tmo ->
                let now = Unix.gettimeofday () in
                List.fold_left
                  (fun acc w -> Float.min acc (w.started +. tmo -. now))
                  0.25 busy
                |> Float.max 0.
          in
          match Unix.select fds [] [] wait with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | [], _, _ -> ()
          | fd :: _, _, _ -> (
              (* Handle one worker per select round: a crash inside the
                 handler respawns with fresh (possibly recycled) fds, so
                 the rest of this readable set would be stale. *)
              let k = ref (-1) in
              Array.iteri (fun i w -> if w.from_w == fd then k := i) slots;
              let k = !k in
              if k >= 0 then
                let w = slots.(k) in
                match read_frame w.from_w with
                | None -> crash k "worker exited unexpectedly"
                | Some frame -> (
                    let resp : response = Marshal.from_bytes frame 0 in
                    match resp.r_res with
                    | Error msg ->
                        (* The job itself raised; the worker is still
                           healthy. *)
                        fail ~out:resp.r_out resp.r_idx msg;
                        w.current <- None;
                        dispatch k
                    | Ok payload ->
                        results.(resp.r_idx) <- Some (resp.r_out, Ok payload);
                        Option.iter
                          (fun c ->
                            Cache.store c ~key:(Job.key jobs.(resp.r_idx))
                              ~stdout:resp.r_out ~payload)
                          cache;
                        incr executed;
                        decr remaining;
                        w.current <- None;
                        dispatch k))
          end
        done;
        finish ())
  end

(* A deadline needs a process to kill, so a [timeout] always takes the
   forked path, on one worker when [workers <= 1]. *)
let run_results ?(workers = 1) ?timeout ?cache jobs =
  match timeout with
  | Some t when not (t > 0. && Float.is_finite t) ->
      invalid_arg "Pool.run_results: timeout must be finite and > 0"
  | None when workers <= 1 -> run_serial ?cache jobs
  | _ -> run_parallel ~workers ~timeout ?cache jobs

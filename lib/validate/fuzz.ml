open Sim

type violation = {
  id : int;
  summary : string;
  failing : Oracle.verdict list;
  shrunk : string option;
  repro_path : string option;
}

type report = {
  seed : int;
  samples : int;
  verdicts_checked : int;
  violations : violation list;
}

let cca_names = [| "reno"; "vegas"; "copa"; "cubic"; "bbr" |]

let make_cca ~scale name =
  let mss = scale * 1500 in
  match name with
  | "reno" -> Reno.make ~params:{ Reno.default_params with Reno.mss } ()
  | "vegas" -> Vegas.make ~params:{ Vegas.default_params with Vegas.mss } ()
  | "copa" -> Copa.make ~params:{ Copa.default_params with Copa.mss } ()
  | "cubic" -> Cubic.make ~params:{ Cubic.default_params with Cubic.mss } ()
  | "bbr" -> Bbr.make ~params:{ Bbr.default_params with Bbr.mss } ()
  | _ -> assert false

(* All Rng draws are scale-free (times, fractions, choices); byte-valued
   quantities are derived from the draws and multiplied by [scale]
   afterwards.  The draw sequence is therefore identical across scales,
   which is what makes the rescale metamorphic check meaningful on
   fuzzed scenarios. *)
let generate ~rng ?(scale = 1) id =
  let nflows = 1 + Rng.int rng 3 in
  let rate1 = Units.mbps (Rng.uniform rng ~lo:2. ~hi:50.) in
  let rm = Rng.uniform rng ~lo:0.01 ~hi:0.1 in
  let duration = Rng.uniform rng ~lo:5. ~hi:12. in
  let bdp1 = Units.bdp_bytes ~rate:rate1 ~rtt:rm in
  let buffer1 =
    match Rng.int rng 3 with
    | 0 -> None
    | 1 -> Some (max bdp1 (8 * 1500))
    | _ -> Some (max (bdp1 / 2) (4 * 1500))
  in
  let initial_queue1 =
    if Rng.int rng 3 = 0 then
      int_of_float (Rng.float rng 0.5 *. float_of_int bdp1)
    else 0
  in
  let net_seed = Rng.int rng 1_000_000 in
  let flow_descrs =
    List.init nflows (fun _ ->
        let cca = cca_names.(Rng.int rng (Array.length cca_names)) in
        let start = Rng.float rng 3. in
        let loss =
          if Rng.bool rng ~p:0.3 then Rng.uniform rng ~lo:0.002 ~hi:0.02
          else 0.
        in
        let jitter_hi =
          if Rng.bool rng ~p:0.3 then Rng.uniform rng ~lo:0.001 ~hi:0.008
          else 0.
        in
        let ack =
          match Rng.int rng 4 with
          | 0 | 1 -> `Immediate
          | 2 -> `Delayed
          | _ -> `Aggregate (Rng.uniform rng ~lo:0.002 ~hi:0.01)
        in
        (cca, start, loss, jitter_hi, ack))
  in
  let n_faults = Rng.int rng 3 in
  let fault_descrs =
    List.init n_faults (fun _ ->
        let t0 = Rng.uniform rng ~lo:1. ~hi:(Float.max 1.5 (duration -. 1.)) in
        match Rng.int rng 5 with
        | 0 ->
            `Blackout (t0, t0 +. Rng.uniform rng ~lo:0.05 ~hi:0.5)
        | 1 -> `Rate_step (t0, Rng.uniform rng ~lo:0.3 ~hi:1.)
        | 2 ->
            `Bursty
              ( Rng.int rng nflows,
                t0,
                t0 +. Rng.uniform rng ~lo:0.2 ~hi:1.5,
                Rng.uniform rng ~lo:0.3 ~hi:0.8 )
        | 3 ->
            `Ack_blackhole
              (Rng.int rng nflows, t0, t0 +. Rng.uniform rng ~lo:0.05 ~hi:0.3)
        | _ -> `Buffer_resize (t0, Rng.float rng 1.5))
  in
  (* Materialize at the requested scale. *)
  let s = float_of_int scale in
  let mss = scale * 1500 in
  let flows =
    List.map
      (fun (cca, start, loss, jitter_hi, ack) ->
        let jitter, bound =
          if jitter_hi > 0. then
            (Jitter.Uniform { lo = 0.; hi = jitter_hi }, jitter_hi +. 0.001)
          else (Jitter.No_jitter, infinity)
        in
        let ack_policy =
          match ack with
          | `Immediate -> Network.Immediate
          | `Delayed -> Network.Delayed { count = 2; timeout = 0.005 }
          | `Aggregate p -> Network.Aggregate { period = p }
        in
        Network.flow ~start_time:start ~mss ~loss_rate:loss ~jitter
          ~jitter_bound:bound ~ack_policy
          (make_cca ~scale cca))
      flow_descrs
  in
  let faults =
    Fault.plan
      (List.map
         (function
           | `Blackout (t0, t1) -> Fault.Link_blackout { t0; t1 }
           | `Rate_step (at, frac) ->
               Fault.Rate_step { at; rate = frac *. s *. rate1 }
           | `Bursty (flow, t0, t1, loss_bad) ->
               Fault.Bursty_loss
                 {
                   flow;
                   t0;
                   t1;
                   p_enter = 0.05;
                   p_exit = 0.3;
                   loss_good = 0.;
                   loss_bad;
                 }
           | `Ack_blackhole (flow, t0, t1) -> Fault.Ack_blackhole { flow; t0; t1 }
           | `Buffer_resize (at, frac) ->
               Fault.Buffer_resize
                 { at; buffer = Some (scale * max (4 * 1500) (int_of_float (frac *. float_of_int bdp1))) })
         fault_descrs)
  in
  let cfg =
    Network.config
      ~rate:(Link.Constant (s *. rate1))
      ?buffer:(Option.map (fun b -> scale * b) buffer1)
      ~rm ~seed:net_seed ~duration ~faults
      ~initial_queue_bytes:(scale * initial_queue1)
      ~monitor_period:0.05 flows
  in
  let summary =
    Printf.sprintf
      "scenario-%d: %d flows [%s] rate=%.1fMbit rm=%.0fms dur=%.1fs buf=%s \
       initq=%d faults=%d seed=%d"
      id nflows
      (String.concat ","
         (List.map
            (fun (cca, _, loss, j, ack) ->
              Printf.sprintf "%s%s%s%s" cca
                (if loss > 0. then Printf.sprintf "+loss%.3f" loss else "")
                (if j > 0. then Printf.sprintf "+jit%.0fms" (j *. 1000.) else "")
                (match ack with
                | `Immediate -> ""
                | `Delayed -> "+delack"
                | `Aggregate _ -> "+aggack"))
            flow_descrs))
      (Units.to_mbps rate1) (Units.to_ms rm) duration
      (match buffer1 with None -> "inf" | Some b -> string_of_int b)
      initial_queue1 n_faults net_seed
  in
  (cfg, summary)

let scenario_rng ~seed ~id =
  Rng.stream (Rng.create ~seed) ~label:(Printf.sprintf "scenario-%d" id)

let check_sample ~seed ~id () =
  let label = Printf.sprintf "fuzz-%d/scenario-%d" seed id in
  let gen ~scale = generate ~rng:(scenario_rng ~seed ~id) ~scale id in
  let cfg, summary = gen ~scale:1 in
  let net = Network.run_config (Shrink.copy_config cfg) in
  let conservation = Conservation.verdicts ~scenario:label net in
  (* Determinism: an independent run of the same config must land on the
     same state hash.  This subsumes "same throughputs": the hash covers
     everything the network reaches, every CCA's state included. *)
  let determinism =
    let net2 = Network.run_config (Shrink.copy_config cfg) in
    let h1 = Network.state_hash net and h2 = Network.state_hash net2 in
    if h1 = h2 then
      [ Oracle.pass ~oracle:"determinism" ~scenario:label ~detail:h1 () ]
    else
      [
        Oracle.fail ~oracle:"determinism" ~scenario:label
          ~detail:(Printf.sprintf "%s <> %s" h1 h2)
          ();
      ]
  in
  let rescale =
    let cfg2, _ = gen ~scale:2 in
    let base = Network.throughputs net () in
    let scaled =
      Network.throughputs (Network.run_config (Shrink.copy_config cfg2)) ()
    in
    Array.to_list
      (Array.mapi
         (fun i x ->
           Oracle.exact ~oracle:"rescale-x2"
             ~scenario:(Printf.sprintf "%s/flow%d" label i)
             ~expected:(2. *. x) ~observed:scaled.(i) ())
         base)
  in
  (conservation @ determinism @ rescale, summary)

let violation_to_json v =
  let json_escape = Runner.Supervise.json_escape in
  let opt = function None -> "null" | Some s -> "\"" ^ json_escape s ^ "\"" in
  Printf.sprintf
    {|{"id":%d,"summary":"%s","shrunk":%s,"repro":%s,"failing":%s}|}
    v.id (json_escape v.summary) (opt v.shrunk) (opt v.repro_path)
    (Oracle.list_to_json v.failing)

let report_to_json r =
  Printf.sprintf
    {|{"seed":%d,"samples":%d,"verdicts_checked":%d,"violations":[%s]}|}
    r.seed r.samples r.verdicts_checked
    (String.concat ",\n" (List.map violation_to_json r.violations))

let run ?dir ?(log = fun _ -> ()) ~seed ~n () =
  if n < 0 then invalid_arg "Fuzz.run: n must be >= 0";
  let violations = ref [] in
  let checked = ref 0 in
  for id = 0 to n - 1 do
    let verdicts, summary = check_sample ~seed ~id () in
    checked := !checked + List.length verdicts;
    let failing = Oracle.failures verdicts in
    if failing <> [] then begin
      log (Printf.sprintf "fuzz: VIOLATION at %s — %s" summary
             (String.concat "; "
                (List.map (fun (v : Oracle.verdict) -> v.Oracle.oracle) failing)));
      (* Shrink when the failure is visible to the invariant monitor
         (conservation and invariant verdicts are; determinism and
         rescale mismatches are not invariant-class and are recorded
         un-shrunk). *)
      let cfg, _ = generate ~rng:(scenario_rng ~seed ~id) id in
      let shrunk, repro_path =
        match Shrink.shrink cfg with
        | None -> (None, None)
        | Some result ->
            let path =
              Option.map
                (fun d ->
                  let subdir =
                    Filename.concat d (Printf.sprintf "fuzz-%d" seed)
                  in
                  Runner.Cache.mkdir_p subdir;
                  let path =
                    Filename.concat subdir
                      (Printf.sprintf "scenario-%d.repro.bin" id)
                  in
                  Shrink.write_repro path result;
                  path)
                dir
            in
            (Some (Shrink.describe result), path)
      in
      let v = { id; summary; failing; shrunk; repro_path } in
      (match dir with
      | None -> ()
      | Some d ->
          let subdir = Filename.concat d (Printf.sprintf "fuzz-%d" seed) in
          Runner.Cache.mkdir_p subdir;
          Runner.Cache.write_atomic
            (Filename.concat subdir (Printf.sprintf "scenario-%d.json" id))
            (violation_to_json v));
      violations := v :: !violations
    end
  done;
  { seed; samples = n; verdicts_checked = !checked;
    violations = List.rev !violations }

(* Delta-debugging for invariant-tripping scenarios: shorten the horizon,
   drop fault events, drop flows — keeping every step that still trips the
   original check — until a fixpoint.  Configs embed instantiated CCA
   closures whose mutable state dirties on first run, so every trial runs
   a deep copy and the configs held here stay pristine. *)

open Sim

let copy_config (cfg : Network.config) : Network.config =
  Marshal.from_string (Marshal.to_string cfg [ Marshal.Closures ]) 0

let trips ?monitor_period cfg =
  let cfg = copy_config cfg in
  let cfg =
    match (cfg.Network.monitor_period, monitor_period) with
    | Some _, _ -> cfg
    | None, Some p -> { cfg with Network.monitor_period = Some p }
    | None, None -> { cfg with Network.monitor_period = Some 0.05 }
  in
  let net = Network.run_config cfg in
  match Network.invariant net with
  | None -> []
  | Some inv -> List.filter (fun (_, n) -> n > 0) (Invariant.by_check inv)

type result = {
  config : Network.config;
  check : string;
  violations : int;
  runs : int;
}

(* Remap fault events after dropping flow [drop]: events targeting it
   vanish, higher flow indices shift down by one. *)
let remap_event drop = function
  | Fault.Ack_blackhole { flow; t0; t1 } ->
      if flow = drop then None
      else
        Some
          (Fault.Ack_blackhole
             { flow = (if flow > drop then flow - 1 else flow); t0; t1 })
  | Fault.Bursty_loss b ->
      if b.flow = drop then None
      else
        Some
          (Fault.Bursty_loss
             { b with flow = (if b.flow > drop then b.flow - 1 else b.flow) })
  | (Fault.Link_blackout _ | Fault.Rate_step _ | Fault.Buffer_resize _) as e ->
      Some e

let shrink ?monitor_period cfg0 =
  let max_runs = 200 in
  let runs = ref 0 in
  let last_tally = ref [] in
  let run_trial cfg =
    incr runs;
    trips ?monitor_period cfg
  in
  match run_trial cfg0 with
  | [] -> None
  | (target, _) :: _ as tally0 ->
      last_tally := tally0;
      let still cfg =
        if !runs >= max_runs then false
        else begin
          let tally = run_trial cfg in
          if List.mem_assoc target tally then begin
            last_tally := tally;
            true
          end
          else false
        end
      in
      let shrink_duration cfg =
        let rec go (cfg : Network.config) =
          let half = cfg.Network.duration /. 2. in
          if half <= 0. then cfg
          else
            let cand = { cfg with Network.duration = half } in
            if still cand then go cand else cfg
        in
        go cfg
      in
      let shrink_faults (cfg : Network.config) =
        let rec go cfg =
          let evs = Fault.events cfg.Network.faults in
          let n = List.length evs in
          let rec try_drop i =
            if i >= n then cfg
            else
              let cand =
                {
                  cfg with
                  Network.faults =
                    Fault.plan (List.filteri (fun j _ -> j <> i) evs);
                }
              in
              if still cand then go cand else try_drop (i + 1)
          in
          try_drop 0
        in
        go cfg
      in
      let shrink_flows (cfg : Network.config) =
        let rec go cfg =
          let n = List.length cfg.Network.flows in
          let rec try_drop i =
            if i >= n || n <= 1 then cfg
            else
              let cand =
                {
                  cfg with
                  Network.flows =
                    List.filteri (fun j _ -> j <> i) cfg.Network.flows;
                  faults =
                    Fault.plan
                      (List.filter_map (remap_event i)
                         (Fault.events cfg.Network.faults));
                }
              in
              if still cand then go cand else try_drop (i + 1)
          in
          try_drop 0
        in
        go cfg
      in
      let rec fixpoint cfg =
        let cfg' = shrink_flows (shrink_faults (shrink_duration cfg)) in
        if cfg' == cfg || !runs >= max_runs then cfg' else fixpoint cfg'
      in
      let final = fixpoint (copy_config cfg0) in
      Some
        {
          config = final;
          check = target;
          violations =
            (match List.assoc_opt target !last_tally with
            | Some n -> n
            | None -> 0);
          runs = !runs;
        }

let describe r =
  Printf.sprintf
    "invariant %S still trips with %d flow(s), %d fault event(s), duration \
     %.3f s (%d violation(s); %d trial run(s))"
    r.check
    (List.length r.config.Network.flows)
    (List.length (Fault.events r.config.Network.faults))
    r.config.Network.duration r.violations r.runs

(* --- Reproducer files ---------------------------------------------------- *)

(* The config embeds CCA closures, so the marshaled result is only
   readable in the producing binary.  The binary digest sits OUTSIDE the
   blob: it must be checked before Marshal ever parses foreign code
   pointers. *)

exception Incompatible of string

let repro_magic = "ccstarve-repro\n"
let self_digest = lazy (Digest.to_hex (Digest.file Sys.executable_name))

let write_repro path r =
  let blob = Marshal.to_string r [ Marshal.Closures ] in
  Runner.Cache.write_atomic path
    (repro_magic ^ Lazy.force self_digest ^ Digest.string blob ^ blob)

let load_repro path =
  let content =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error msg -> raise (Incompatible msg)
  in
  let mlen = String.length repro_magic in
  (* magic + 32-char hex binary digest + 16-byte blob digest *)
  if String.length content < mlen + 48 || String.sub content 0 mlen <> repro_magic
  then raise (Incompatible (path ^ ": not a reproducer file"));
  let binary = String.sub content mlen 32 in
  if binary <> Lazy.force self_digest then
    raise
      (Incompatible
         (Printf.sprintf
            "%s: reproducer written by binary %s, this binary is %s" path
            binary (Lazy.force self_digest)));
  let digest = String.sub content (mlen + 32) 16 in
  let blob =
    String.sub content (mlen + 48) (String.length content - mlen - 48)
  in
  if Digest.string blob <> digest then
    raise (Incompatible (path ^ ": corrupt reproducer (digest mismatch)"));
  (Marshal.from_string blob 0 : result)

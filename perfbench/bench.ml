(* Benchmark entry point.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0: untraced passes repeat for about S seconds while a
   reference loop is timed every quarter second between units of work
   (median pass wall over median reference time); set-up
   is timed on its own before and between them (median); prints the
   end-to-end metrics.
   --trace 1: untraced and traced passes alternate for about S seconds;
   the traced pass must reproduce the untraced outputs exactly and its
   layer self times must add up to its wall time; prints the per-layer
   metrics.

   The last line of stdout is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}. *)

open Harness

type workload = {
  key : string;
  setup : seed:int -> float;
  pass : seed:int -> sample:(unit -> unit) -> pass;
  traced : seed:int -> traced;
}

let workloads =
  [
    { key = W_suite.name; setup = W_suite.setup; pass = W_suite.pass;
      traced = W_suite.traced };
    { key = W_e14.name; setup = W_e14.setup; pass = W_e14.pass;
      traced = W_e14.traced };
    { key = W_census.name; setup = W_census.setup; pass = W_census.pass;
      traced = W_census.traced };
    { key = W_fluid.name; setup = W_fluid.setup; pass = W_fluid.pass;
      traced = W_fluid.traced };
  ]

(* Per-layer self times must add up to the traced wall time within this
   share of it (documented in NOTES.md). *)
let closure_tolerance = 0.05

let usage () =
  Printf.eprintf
    "usage: bench.exe --workload {%s} --seed N --seconds S --trace 0|1\n"
    (String.concat "|" (List.map (fun w -> w.key) workloads));
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string v; go rest
    | "--seconds" :: v :: rest -> seconds := int_of_string v; go rest
    | "--trace" :: v :: rest -> trace := int_of_string v; go rest
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  match List.find_opt (fun w -> w.key = !workload) workloads with
  | Some w when !seconds > 0 && (!trace = 0 || !trace = 1) ->
      (w, !seed, float_of_int !seconds, !trace = 1)
  | _ -> usage ()

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> 0.
        | Some line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d"
                (fun kb -> float_of_int kb /. 1024.)
            else find ()
      in
      find ())

(* Repeat [f] until about [budget] seconds have gone: always once, and
   again only while one more repetition (as long as the last) still
   fits. *)
let repeat ~budget f =
  let t0 = Ledger.now_ns () in
  let rec go acc n last =
    let elapsed = Ledger.since t0 in
    if n >= 1 && elapsed +. last > budget then List.rev acc
    else begin
      let t = Ledger.now_ns () in
      let r = f () in
      go (r :: acc) (n + 1) (Ledger.since t)
    end
  in
  go [] 0 0.

let print_json metrics =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.name
             (num x.value) x.unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0) !attempted !failed body

let print_table title rows =
  Printf.printf "%s\n" title;
  List.iter (fun x -> Printf.printf "  %-34s %16.6g %s\n" x.name x.value x.unit) rows

(* The workload's own figures for a pass, where they apply. *)
let workload_figures ~packets (p : pass) ~wall =
  let per v = ratio v wall in
  [
    m "workload.wall_s" "s" wall;
    m "workload.packets_per_s" "1/s" (per packets);
    m "workload.sim_s_per_s" "s/s" (per p.sim_s);
    m "workload.flows_per_s" "1/s" (per (fi p.flows));
    m "workload.bytes_per_flow" "bytes" (ratio p.live_bytes (fi p.flows));
  ]

(* Set-up repetitions before the first pass.  A fixed count keeps the
   allocation sequence up to the end of the first pass, and so
   [peak_rss_mb], the same on every run.  Later set-ups run between
   passes, for about 2% of the previous pass's time and at least once,
   so the median samples the whole run. *)
let first_setups = 5

(* A fixed computation that uses nothing from this repository and
   allocates nothing, so the workload's heap cannot slow it down: random
   reads and writes over a 512 KB table, about 10 ms.  Shared hosts run
   the same work up to 1.5x slower for tens of seconds at a time.  Timed
   every quarter second through the run, between the workload's units of
   work, this loop slows down with the host, so the pass time over the
   loop time is steadier than the raw pass time. *)
let table = Array.make 65536 0

let reference_s () =
  let t0 = Ledger.now_ns () in
  let x = ref 12345 and acc = ref 0 in
  for _ = 1 to 2_000_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let i = !x land 65535 in
    acc := !acc + table.(i);
    table.(i) <- !acc land 1023
  done;
  ignore (Sys.opaque_identity !acc);
  Ledger.since t0

let end_to_end w ~seed ~seconds =
  let setups = ref (List.init first_setups (fun _ -> w.setup ~seed)) in
  let rss = ref 0. and last_wall = ref 0. in
  let refs = ref [] and last_ref = ref 0 in
  let sample () =
    if Ledger.since !last_ref >= 0.25 then begin
      refs := reference_s () :: !refs;
      last_ref := Ledger.now_ns ()
    end
  in
  let passes =
    repeat ~budget:seconds (fun () ->
        if !last_wall > 0. then
          setups :=
            repeat ~budget:(0.02 *. !last_wall) (fun () -> w.setup ~seed)
            @ !setups;
        let p = w.pass ~seed ~sample in
        last_wall := p.wall;
        if !rss = 0. then rss := peak_rss_mb ();
        sample ();
        p)
  in
  let walls = List.map (fun p -> p.wall) passes in
  let wall = median walls in
  let last = List.nth passes (List.length passes - 1) in
  let metrics =
    [ m "wall_ref" "refs" (wall /. median !refs);
      m "setup_s" "s" (median !setups); m "peak_rss_mb" "MB" !rss ]
  in
  print_table
    (Printf.sprintf "perfbench %s seed %d: %d set-ups, %d reference samples, passes %s s"
       w.key seed (List.length !setups) (List.length !refs)
       (String.concat " " (List.map (Printf.sprintf "%.3f") walls)))
    (metrics
    @ [ m "failed_frac" "ratio" (ratio (fi !failed) (fi !attempted)) ]
    @ List.filter
        (fun x -> x.value > 0.)
        (workload_figures ~packets:0. last ~wall));
  metrics

let per_layer w ~seed ~seconds =
  let pairs =
    repeat ~budget:seconds (fun () ->
        let p = w.pass ~seed ~sample:ignore in
        let t = w.traced ~seed in
        check
          (Printf.sprintf "%s: the traced pass reproduces the untraced outputs"
             w.key)
          (t.t_pass.digest = p.digest);
        (p, t))
  in
  let gaps =
    List.map
      (fun (_, t) ->
        let sum = List.fold_left (fun a (_, s) -> a +. s) 0. t.self_s in
        let gap = (t.t_pass.wall -. sum) /. t.t_pass.wall in
        Printf.eprintf "perfbench: %s closure: wall %.4f s, layers %.4f s (%s)\n%!"
          w.key t.t_pass.wall sum
          (String.concat ", "
             (List.map (fun (n, s) -> Printf.sprintf "%s %.4f" n s) t.self_s));
        check
          (Printf.sprintf
             "%s: layer self times sum to the traced wall within %.0f%% (gap %.2f%%)"
             w.key (closure_tolerance *. 100.) (gap *. 100.))
          (Float.abs gap <= closure_tolerance);
        Float.abs gap)
      pairs
  in
  let untraced = List.map fst pairs and traced = List.map snd pairs in
  let wall = median (List.map (fun p -> p.wall) untraced) in
  let overhead =
    median (List.map (fun (p, t) -> (t.t_pass.wall /. p.wall) -. 1.) pairs)
  in
  let last = List.nth traced (List.length traced - 1) in
  let packets =
    match List.find_opt (fun x -> x.name = "flow.sent_packets") last.layers with
    | Some x -> x.value
    | None -> 0.
  in
  let measured =
    last.layers
    @ [ m "trace.overhead_frac" "ratio" overhead;
        m "trace.closure_gap_frac" "ratio" (List.fold_left Float.max 0. gaps) ]
    @ workload_figures ~packets (List.hd untraced) ~wall
  in
  let metrics =
    List.map
      (fun (name, unit) ->
        match List.find_opt (fun x -> x.name = name) measured with
        | Some x -> x
        | None -> m name unit 0.)
      Layers.catalogue
  in
  print_table
    (Printf.sprintf "perfbench %s seed %d: %d untraced/traced pairs" w.key seed
       (List.length pairs))
    metrics;
  metrics

let () =
  let w, seed, seconds, trace = parse_args () in
  ignore (Lazy.force Ledger.clock_cost_ns);
  let metrics =
    if trace then per_layer w ~seed ~seconds else end_to_end w ~seed ~seconds
  in
  print_json metrics

(* Tests for the experiment layer: the report formatting, the registry,
   and the experiments end-to-end in quick mode, through the plan and
   merge `repro` runs.  The expensive scenario experiments run as `Slow
   cases (picked up by `dune runtest` but kept out of quick iteration via
   ALCOTEST_QUICK_TESTS). *)

let test_report_row () =
  let r =
    Experiments.Report.row ~id:"X" ~label:"case" ~paper:"p" ~measured:"m" ~ok:true
  in
  Alcotest.(check string) "id" "X" r.Experiments.Report.id

let test_report_formatting () =
  Alcotest.(check string) "mbps" "12.00 Mbit/s"
    (Experiments.Report.mbps (Sim.Units.mbps 12.));
  Alcotest.(check string) "msec" "42.00 ms" (Experiments.Report.msec 0.042)

let test_registry_complete () =
  let keys = List.map (fun e -> e.Experiments.Registry.key) Experiments.Registry.all in
  let expected =
    [ "fig1"; "fig3"; "copa"; "bbr"; "vivace"; "fig7"; "allegro"; "theorem1";
      "theorem2"; "alg1"; "ccac"; "ecn"; "threshold"; "isolation"; "robustness";
      "matrix"; "faults"; "census" ]
  in
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " registered") true (List.mem k keys))
    expected;
  Alcotest.(check int) "no duplicates" (List.length keys)
    (List.length (List.sort_uniq String.compare keys));
  Alcotest.(check bool) "all paper artifacts plus extensions covered" true
    (List.length keys >= 14)

let test_registry_find () =
  Alcotest.(check bool) "find copa" true (Experiments.Registry.find "copa" <> None);
  Alcotest.(check bool) "find nonsense" true
    (Experiments.Registry.find "nonsense" = None)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_registry_select () =
  (match Experiments.Registry.select [] with
  | Ok es ->
      Alcotest.(check int) "empty selection = all"
        (List.length Experiments.Registry.all)
        (List.length es)
  | Error e -> Alcotest.failf "empty selection rejected: %s" e);
  (match Experiments.Registry.select [ "copa"; "census" ] with
  | Ok es ->
      Alcotest.(check (list string)) "subset in request order"
        [ "copa"; "census" ]
        (List.map (fun e -> e.Experiments.Registry.key) es)
  | Error e -> Alcotest.failf "valid subset rejected: %s" e);
  match Experiments.Registry.select [ "copa"; "badkey" ] with
  | Ok _ -> Alcotest.fail "unknown key accepted"
  | Error msg ->
      Alcotest.(check bool) "names the offender" true (contains msg "badkey");
      Alcotest.(check bool) "advertises alternatives" true
        (contains msg "available:");
      List.iter
        (fun k ->
          Alcotest.(check bool) ("error lists " ^ k) true (contains msg k))
        (Experiments.Registry.keys ())

let test_registry_keys_round_trip_plan () =
  (* Every advertised key must resolve through [select] and produce a
     non-empty job plan under every backend — the contract `repro list`
     relies on. *)
  List.iter
    (fun key ->
      match Experiments.Registry.select [ key ] with
      | Error e -> Alcotest.failf "%s does not select: %s" key e
      | Ok [ e ] ->
          List.iter
            (fun backend ->
              let p = e.Experiments.Registry.plan ~quick:true ~backend in
              Alcotest.(check bool)
                (Printf.sprintf "%s plans jobs under %s" key
                   (Fluid.Backend.to_string backend))
                true
                (p.Experiments.Registry.jobs <> []))
            Fluid.Backend.all
      | Ok es ->
          Alcotest.failf "%s selected %d experiments" key (List.length es))
    (Experiments.Registry.keys ())

(* `repro list` must advertise exactly the registry: exercised against
   the real driver binary, same pattern as the exit-code tests in
   test_runner. *)
let repro_exe = "../bin/repro.exe"

let test_repro_list_smoke () =
  if not (Sys.file_exists repro_exe) then ()
  else begin
    let out_file = Filename.temp_file "repro_list" ".out" in
    let status =
      Sys.command
        (Printf.sprintf "%s list >%s 2>/dev/null" repro_exe
           (Filename.quote out_file))
    in
    let ic = open_in out_file in
    let n = in_channel_length ic in
    let out = really_input_string ic n in
    close_in ic;
    Sys.remove out_file;
    Alcotest.(check int) "exit 0" 0 status;
    let lines =
      List.filter (fun l -> l <> "") (String.split_on_char '\n' out)
    in
    Alcotest.(check (list string)) "one key per line, registry order"
      (Experiments.Registry.keys ())
      lines
  end

(* `repro --export` must write every figure series, each a header plus
   data, and label each E17 row with its CCA. *)
let export_files =
  [ "e10_merit.csv"; "e14_phase.csv"; "e17_matrix.csv"; "fig1_copa.csv";
    "fig1_vegas.csv"; "fig3_bbr-cwnd.csv"; "fig3_bbr-pacing.csv";
    "fig3_copa.csv"; "fig3_fast.csv"; "fig3_ledbat.csv";
    "fig3_pcc-vivace.csv"; "fig3_vegas.csv"; "fig4_probes.csv";
    "fig5_c1_rtt.csv"; "fig5_c2_rtt.csv"; "fig6_d_star.csv";
    "fig7_cubic_delack.csv"; "fig7_cubic_normal.csv"; "fig7_reno_delack.csv";
    "fig7_reno_normal.csv" ]

let test_repro_export () =
  if not (Sys.file_exists repro_exe) then ()
  else begin
    let dir = Filename.temp_file "repro_export" "" in
    Sys.remove dir;
    let status =
      Sys.command
        (Printf.sprintf "%s --export %s --quick >/dev/null 2>&1" repro_exe
           (Filename.quote dir))
    in
    Alcotest.(check int) "exit 0" 0 status;
    let files = List.sort String.compare (Array.to_list (Sys.readdir dir)) in
    Alcotest.(check (list string)) "one file per series" export_files files;
    let lines f =
      In_channel.with_open_text (Filename.concat dir f) In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter (fun l -> l <> "")
    in
    let first_cell l = List.hd (String.split_on_char ',' l) in
    List.iter
      (fun f ->
        match lines f with
        | header :: _ :: _ ->
            Alcotest.(check bool) (f ^ " header is not data") true
              (float_of_string_opt (first_cell header) = None)
        | _ -> Alcotest.failf "%s lacks a header or a data row" f)
      files;
    Alcotest.(check (list string)) "e17 rows name the CCAs in matrix order"
      [ "vegas"; "fast"; "copa"; "ledbat"; "bbr"; "vivace"; "reno"; "cubic";
        "alg1" ]
      (List.map first_cell (List.tl (lines "e17_matrix.csv")));
    List.iter (fun f -> Sys.remove (Filename.concat dir f)) files;
    Sys.rmdir dir
  end

let test_merit_rows () =
  let rows = Experiments.Exp_alg1.merit_rows () in
  Alcotest.(check int) "3 jitters x 3 s" 9 (List.length rows)

let test_copa_poison_trace_is_legal () =
  (* The poison schedule must stay within the declared 1 ms bound. *)
  for i = 0 to 1000 do
    let t = float_of_int i *. 0.01 in
    let d = Experiments.Exp_copa.poison_trace t in
    Alcotest.(check bool) "in [0, 1ms]" true (d >= 0. && d <= 0.001)
  done

let run_rows name rows =
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "%s / %s %s: %s" name r.Experiments.Report.id
           r.Experiments.Report.label r.Experiments.Report.measured)
        true r.Experiments.Report.ok)
    rows

(* End-to-end experiment runs (quick mode): the experiment's plan, its
   jobs forced in this process, then its merge — what `repro` runs. *)
let run_plan key () =
  match Experiments.Registry.find key with
  | None -> Alcotest.failf "%s is not registered" key
  | Some e ->
      let p =
        e.Experiments.Registry.plan ~quick:true ~backend:Fluid.Backend.Packet
      in
      run_rows key
        (p.Experiments.Registry.merge
           (List.map Runner.Job.force p.Experiments.Registry.jobs))

let test_series_to_rows_stride () =
  let s = Sim.Series.create () in
  for i = 0 to 9 do
    Sim.Series.add s ~time:(float_of_int i) (float_of_int (i * i))
  done;
  Alcotest.(check int) "stride 3 keeps 4" 4
    (List.length (Experiments.Export.series_to_rows ~stride:3 s));
  Alcotest.(check int) "stride 1 keeps all" 10
    (List.length (Experiments.Export.series_to_rows s))

let test_threshold_sweep_escalates () =
  let pts = Experiments.Exp_threshold.sweep ~quick:true () in
  Alcotest.(check bool) "several points" true (List.length pts >= 3);
  let first = List.hd pts and last = List.nth pts (List.length pts - 1) in
  Alcotest.(check bool)
    (Printf.sprintf "ratio rises with D (%.1f -> %.1f)"
       first.Experiments.Exp_threshold.ratio last.Experiments.Exp_threshold.ratio)
    true
    (last.Experiments.Exp_threshold.ratio
    > 2. *. first.Experiments.Exp_threshold.ratio)

let test_export_csv () =
  let dir = Filename.temp_file "ccstarve" "" in
  Sys.remove dir;
  let rows = [ [ 1.; 2. ]; [ 3.; 4. ] ] in
  Sys.mkdir dir 0o755;
  let path = Filename.concat dir "t.csv" in
  Experiments.Export.write_csv ~path ~cols:[ "a"; "b" ] rows;
  let ic = open_in path in
  let header = input_line ic in
  let first = input_line ic in
  close_in ic;
  Alcotest.(check string) "header" "a,b" header;
  Alcotest.(check string) "row" "1,2" first

(* ------------------------------------------------------------------ *)
(* ASCII plots                                                         *)
(* ------------------------------------------------------------------ *)

let test_plot_empty () =
  Alcotest.(check string) "stub" "(no data)\n" (Experiments.Ascii_plot.render []);
  Alcotest.(check string) "stub for empty series" "(no data)\n"
    (Experiments.Ascii_plot.render [ ("a", []) ])

let test_plot_contains_markers_and_labels () =
  let out =
    Experiments.Ascii_plot.render ~title:"T" ~width:40 ~height:10
      [ ("up", [ (0., 0.); (1., 1.) ]); ("down", [ (0., 1.); (1., 0.) ]) ]
  in
  Alcotest.(check bool) "title present" true
    (String.length out > 0 && String.sub out 0 1 = "T");
  Alcotest.(check bool) "marker 1" true (String.contains out '*');
  Alcotest.(check bool) "marker 2" true (String.contains out '+');
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "legend up" true (contains out "* up");
  Alcotest.(check bool) "legend down" true (contains out "+ down")

let test_plot_dimensions () =
  let out =
    Experiments.Ascii_plot.render ~width:30 ~height:8 [ ("s", [ (0., 5.); (2., 7.) ]) ]
  in
  let lines = String.split_on_char '\n' out in
  (* 8 canvas rows + axis + x labels + legend, no title. *)
  Alcotest.(check bool) "row count sane" true
    (List.length lines >= 11 && List.length lines <= 13);
  (* Every canvas row has the axis bar. *)
  let canvas_rows = List.filteri (fun i _ -> i < 8) lines in
  List.iter
    (fun l -> Alcotest.(check bool) "axis bar" true (String.contains l '|'))
    canvas_rows

let test_registry_titles_nonempty () =
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (e.Experiments.Registry.key ^ " has a title")
        true
        (String.length e.Experiments.Registry.title > 10))
    Experiments.Registry.all

let test_plot_degenerate_point () =
  (* A single point must not crash or divide by zero. *)
  let out = Experiments.Ascii_plot.render [ ("pt", [ (1., 1.) ]) ] in
  Alcotest.(check bool) "renders" true (String.contains out '*')

let () =
  Alcotest.run "experiments"
    [
      ( "report",
        [
          Alcotest.test_case "row" `Quick test_report_row;
          Alcotest.test_case "formatting" `Quick test_report_formatting;
        ] );
      ( "registry",
        [
          Alcotest.test_case "complete" `Quick test_registry_complete;
          Alcotest.test_case "find" `Quick test_registry_find;
          Alcotest.test_case "select" `Quick test_registry_select;
          Alcotest.test_case "keys round-trip plan" `Quick
            test_registry_keys_round_trip_plan;
          Alcotest.test_case "repro list" `Quick test_repro_list_smoke;
          Alcotest.test_case "repro --export" `Slow test_repro_export;
        ] );
      ( "static",
        [
          Alcotest.test_case "merit rows" `Quick test_merit_rows;
          Alcotest.test_case "poison trace legal" `Quick test_copa_poison_trace_is_legal;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "ccac" `Quick (run_plan "ccac");
          Alcotest.test_case "fig1" `Slow (run_plan "fig1");
          Alcotest.test_case "copa" `Slow (run_plan "copa");
          Alcotest.test_case "bbr" `Slow (run_plan "bbr");
          Alcotest.test_case "vivace" `Slow (run_plan "vivace");
          Alcotest.test_case "fig7" `Slow (run_plan "fig7");
          Alcotest.test_case "fig3" `Slow (run_plan "fig3");
          Alcotest.test_case "theorem1" `Slow (run_plan "theorem1");
          Alcotest.test_case "theorem2" `Slow (run_plan "theorem2");
          Alcotest.test_case "alg1" `Slow (run_plan "alg1");
          Alcotest.test_case "allegro" `Slow (run_plan "allegro");
          Alcotest.test_case "ecn" `Slow (run_plan "ecn");
          Alcotest.test_case "threshold" `Slow (run_plan "threshold");
          Alcotest.test_case "threshold escalates" `Slow test_threshold_sweep_escalates;
          Alcotest.test_case "isolation" `Slow (run_plan "isolation");
          Alcotest.test_case "robustness" `Slow (run_plan "robustness");
          Alcotest.test_case "matrix" `Slow (run_plan "matrix");
          Alcotest.test_case "faults" `Slow (run_plan "faults");
          Alcotest.test_case "census" `Slow (run_plan "census");
        ] );
      ( "export",
        [
          Alcotest.test_case "csv" `Quick test_export_csv;
          Alcotest.test_case "stride" `Quick test_series_to_rows_stride;
        ] );
      ( "ascii_plot",
        [
          Alcotest.test_case "empty" `Quick test_plot_empty;
          Alcotest.test_case "markers and labels" `Quick
            test_plot_contains_markers_and_labels;
          Alcotest.test_case "dimensions" `Quick test_plot_dimensions;
          Alcotest.test_case "degenerate point" `Quick test_plot_degenerate_point;
          Alcotest.test_case "registry titles" `Quick test_registry_titles_nonempty;
        ] );
    ]

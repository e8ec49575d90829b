type violation = { time : float; check : string; detail : string }

type t = {
  max_recorded : int;
  mutable recorded : violation list; (* newest first *)
  mutable recorded_n : int;
  mutable total : int;
  mutable checks_run : int;
  tally : (string, int) Hashtbl.t;
}

let create ?(max_recorded = 100) () =
  if max_recorded < 0 then invalid_arg "Invariant.create: negative max_recorded";
  {
    max_recorded;
    recorded = [];
    recorded_n = 0;
    total = 0;
    checks_run = 0;
    tally = Hashtbl.create 8;
  }

let record t ~time ~check ~detail =
  t.total <- t.total + 1;
  let prev = match Hashtbl.find_opt t.tally check with Some n -> n | None -> 0 in
  Hashtbl.replace t.tally check (prev + 1);
  if t.recorded_n < t.max_recorded then begin
    t.recorded <- { time; check; detail } :: t.recorded;
    t.recorded_n <- t.recorded_n + 1
  end

let check t ~time ~name ~detail cond =
  t.checks_run <- t.checks_run + 1;
  if not cond then record t ~time ~check:name ~detail:(detail ())

let count t = t.total
let checks_run t = t.checks_run
let ok t = t.total = 0
let violations t = List.rev t.recorded

let by_check t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.tally []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let summary t =
  if t.total = 0 then Printf.sprintf "0 violations in %d checks" t.checks_run
  else
    Printf.sprintf "%d violations in %d checks: %s" t.total t.checks_run
      (String.concat ", "
         (List.map (fun (k, n) -> Printf.sprintf "%s x%d" k n) (by_check t)))

(* Every rendered violation leads with the simulation time so logs from
   monitored runs are greppable and sortable. *)
let violation_to_string v =
  Printf.sprintf "[t=%.6f] %s: %s" v.time v.check v.detail

let report t =
  let max_lines = 20 in
  let lines =
    List.filteri (fun i _ -> i < max_lines) (violations t)
    |> List.map violation_to_string
  in
  let lines =
    if t.recorded_n > max_lines || t.total > t.recorded_n then
      lines
      @ [ Printf.sprintf "... (%d violations total)" t.total ]
    else lines
  in
  String.concat "\n" (summary t :: lines)

let fold_state buf t =
  Statebuf.i buf t.total;
  Statebuf.i buf t.checks_run;
  List.iter
    (fun (k, n) ->
      Statebuf.s buf k;
      Statebuf.i buf n)
    (by_check t)

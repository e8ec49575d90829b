type row = {
  id : string;
  label : string;
  paper : string;
  measured : string;
  ok : bool;
}

let row ~id ~label ~paper ~measured ~ok = { id; label; paper; measured; ok }

let pad s n = if String.length s >= n then s else s ^ String.make (n - String.length s) ' '

let print_rows ~title rows =
  let w_id = List.fold_left (fun a r -> max a (String.length r.id)) 2 rows in
  let w_label = List.fold_left (fun a r -> max a (String.length r.label)) 5 rows in
  let w_paper = List.fold_left (fun a r -> max a (String.length r.paper)) 5 rows in
  let w_meas = List.fold_left (fun a r -> max a (String.length r.measured)) 8 rows in
  Printf.printf "\n== %s ==\n" title;
  Printf.printf "%s  %s  %s  %s  %s\n" (pad "id" w_id) (pad "case" w_label)
    (pad "paper" w_paper) (pad "measured" w_meas) "ok";
  List.iter
    (fun r ->
      Printf.printf "%s  %s  %s  %s  %s\n" (pad r.id w_id) (pad r.label w_label)
        (pad r.paper w_paper) (pad r.measured w_meas)
        (if r.ok then "yes" else "NO"))
    rows

let mbps x = Printf.sprintf "%.2f Mbit/s" (Sim.Units.to_mbps x)
let msec x = Printf.sprintf "%.2f ms" (Sim.Units.to_ms x)

type verdict = {
  oracle : string;
  scenario : string;
  expected : float;
  observed : float;
  tolerance : float;
  ok : bool;
  detail : string;
}

let check ~oracle ~scenario ~expected ~observed ~tolerance ?(detail = "") () =
  let ok =
    (not (Float.is_nan expected))
    && (not (Float.is_nan observed))
    && Float.abs (observed -. expected) <= tolerance
  in
  { oracle; scenario; expected; observed; tolerance; ok; detail }

let exact ~oracle ~scenario ~expected ~observed ?(detail = "") () =
  let ok =
    (not (Float.is_nan expected))
    && (not (Float.is_nan observed))
    && expected = observed
  in
  { oracle; scenario; expected; observed; tolerance = 0.; ok; detail }

let pass ~oracle ~scenario ?(detail = "") () =
  { oracle; scenario; expected = 1.; observed = 1.; tolerance = 0.; ok = true;
    detail }

let fail ~oracle ~scenario ?(detail = "") () =
  { oracle; scenario; expected = 1.; observed = 0.; tolerance = 0.; ok = false;
    detail }

let failures vs = List.filter (fun v -> not v.ok) vs

let to_string v =
  Printf.sprintf "%s %-24s %-28s expected %.6g observed %.6g (tol %.3g)%s"
    (if v.ok then "PASS" else "FAIL")
    v.oracle v.scenario v.expected v.observed v.tolerance
    (if v.detail = "" then "" else " — " ^ v.detail)

(* JSON has no NaN/infinity literals; encode them as strings. *)
let json_float f =
  if Float.is_nan f then "\"nan\""
  else if f = infinity then "\"inf\""
  else if f = neg_infinity then "\"-inf\""
  else Printf.sprintf "%.17g" f

let to_json v =
  let json_escape = Runner.Supervise.json_escape in
  Printf.sprintf
    {|{"oracle":"%s","scenario":"%s","expected":%s,"observed":%s,"tolerance":%s,"ok":%b,"detail":"%s"}|}
    (json_escape v.oracle) (json_escape v.scenario) (json_float v.expected)
    (json_float v.observed) (json_float v.tolerance) v.ok
    (json_escape v.detail)

let list_to_json vs =
  "[" ^ String.concat ",\n " (List.map to_json vs) ^ "]"

(* What every workload shares: output checks, digests, the pass record
   and per-layer metric rows. *)

let attempted = ref 0
let failed = ref 0

(* One output check.  A failure is reported on stderr and counted; it
   never stops the run, so every check of the pass is attempted. *)
let check name ok =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "perfbench: check failed: %s\n%!" name
  end

(* The seed whose outputs are recorded in {!Reference}; other seeds are
   checked against the seed-independent oracles only. *)
let reference_seed = 42

(* Bit-exact digest of a float sequence. *)
let digest_floats xs =
  Digest.to_hex
    (Digest.string
       (String.concat ","
          (List.map (fun x -> Printf.sprintf "%Lx" (Int64.bits_of_float x)) xs)))

let check_digest name ~expected actual =
  check
    (Printf.sprintf "%s matches the reference (got %s)" name actual)
    (actual = expected)

(* Outputs that depend on the seed are compared only on the reference
   seed. *)
let check_reference name ~seed ~expected actual =
  if seed = reference_seed then check_digest name ~expected actual

(* One untraced (or traced) pass over a workload's fixed unit of work. *)
type pass = {
  wall : float;  (** seconds of timed work *)
  digest : string;  (** outputs a traced pass must reproduce exactly *)
  sim_s : float;  (** simulated seconds covered *)
  flows : int;  (** flows simulated ([0] where the workload has no census) *)
  live_bytes : float;  (** heap bytes the results hold after the run *)
}

(* Bytes the heap holds live right now (after a full major cycle). *)
let live_bytes () =
  Gc.full_major ();
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8))

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }
let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

(* A traced pass: its pass record, the per-layer metrics it measured and
   the self time of each layer it covered.  Self times partition the sum
   of the pass's top-level spans; the closure check compares that sum
   with the wall time measured around the whole pass. *)
type traced = {
  t_pass : pass;
  layers : metric list;
  self_s : (string * float) list;
}

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Named top-level spans: [span name f] runs [f] and adds its wall time
   to [name]'s total. *)
type spans = { span : 'a. string -> (unit -> 'a) -> 'a }

let span_table () =
  let tbl = Hashtbl.create 8 in
  let get name = Option.value (Hashtbl.find_opt tbl name) ~default:0. in
  let span name f =
    let r, dt = Ledger.time f in
    Hashtbl.replace tbl name (get name +. dt);
    r
  in
  let total ?name () =
    match name with
    | Some n -> get n
    | None -> Hashtbl.fold (fun _ v a -> a +. v) tbl 0.
  in
  ({ span }, total)

(* Raised by a wrapped factory or law to stop a run the moment its set-up
   ends, so set-up can be timed on its own and repeated. *)
exception Setup_done

let setup_until_first_call run =
  let t0 = Ledger.now_ns () in
  (try run () with Setup_done -> ());
  Ledger.since t0

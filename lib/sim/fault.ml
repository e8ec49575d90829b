type event =
  | Link_blackout of { t0 : float; t1 : float }
  | Rate_step of { at : float; rate : float }
  | Buffer_resize of { at : float; buffer : int option }
  | Ack_blackhole of { flow : int; t0 : float; t1 : float }
  | Bursty_loss of {
      flow : int;
      t0 : float;
      t1 : float;
      p_enter : float;
      p_exit : float;
      loss_good : float;
      loss_bad : float;
    }

type plan = { evs : event list }

let finite x = Float.is_finite x

let check_window ~what t0 t1 =
  if (not (finite t0)) || (not (finite t1)) || t0 < 0. then
    invalid_arg (Printf.sprintf "Fault.plan: %s window times must be finite and >= 0" what);
  if t1 <= t0 then
    invalid_arg (Printf.sprintf "Fault.plan: %s window is empty (t1 <= t0)" what)

let check_prob ~what p =
  if (not (finite p)) || p < 0. || p > 1. then
    invalid_arg (Printf.sprintf "Fault.plan: %s must be in [0, 1]" what)

let validate = function
  | Link_blackout { t0; t1 } -> check_window ~what:"blackout" t0 t1
  | Rate_step { at; rate } ->
      if (not (finite at)) || at < 0. then
        invalid_arg "Fault.plan: rate-step time must be finite and >= 0";
      if (not (finite rate)) || rate < 0. then
        invalid_arg "Fault.plan: rate-step rate must be finite and >= 0"
  | Buffer_resize { at; buffer } ->
      if (not (finite at)) || at < 0. then
        invalid_arg "Fault.plan: buffer-resize time must be finite and >= 0";
      (match buffer with
      | Some b when b < 0 -> invalid_arg "Fault.plan: negative buffer"
      | _ -> ())
  | Ack_blackhole { flow; t0; t1 } ->
      if flow < 0 then invalid_arg "Fault.plan: negative flow index";
      check_window ~what:"ack-blackhole" t0 t1
  | Bursty_loss { flow; t0; t1; p_enter; p_exit; loss_good; loss_bad } ->
      if flow < 0 then invalid_arg "Fault.plan: negative flow index";
      check_window ~what:"bursty-loss" t0 t1;
      check_prob ~what:"p_enter" p_enter;
      check_prob ~what:"p_exit" p_exit;
      check_prob ~what:"loss_good" loss_good;
      check_prob ~what:"loss_bad" loss_bad;
      (* A drop probability of 1 in a state the chain can rest in means
         the flow could never deliver a packet again. *)
      if loss_good >= 1. then invalid_arg "Fault.plan: loss_good must be < 1";
      if loss_bad >= 1. && p_exit <= 0. then
        invalid_arg "Fault.plan: loss_bad = 1 with p_exit = 0 never recovers"

let plan evs =
  List.iter validate evs;
  { evs }

let none = { evs = [] }
let events p = p.evs
let is_empty p = p.evs = []

let blackouts p =
  List.filter_map
    (function Link_blackout { t0; t1 } -> Some (t0, t1) | _ -> None)
    p.evs
  |> List.sort (fun (a, _) (b, _) -> Float.compare a b)

let rate_steps p =
  List.filter_map
    (function Rate_step { at; rate } -> Some (at, rate) | _ -> None)
    p.evs
  |> List.sort (fun (a, _) (b, _) -> Float.compare a b)

let buffer_events p =
  List.filter_map
    (function Buffer_resize { at; buffer } -> Some (at, buffer) | _ -> None)
    p.evs
  |> List.sort (fun (a, _) (b, _) -> Float.compare a b)

module FSet = Set.Make (Float)

let compile_rate p base =
  let blk = blackouts p and steps = rate_steps p in
  if blk = [] && steps = [] then base
  else begin
    (* The nominal (non-blackout) rate at time t: the base schedule
       overridden by the latest rate step at or before t. *)
    let base_rate =
      match base with
      | Link.Constant r -> fun _t -> r
      | Link.Piecewise segs ->
          fun t ->
            let r = ref (if Array.length segs > 0 then snd segs.(0) else 0.) in
            Array.iter (fun (t0, rt) -> if t0 <= t then r := rt) segs;
            !r
    in
    let nominal t =
      let stepped = ref None in
      List.iter (fun (at, rt) -> if at <= t then stepped := Some rt) steps;
      match !stepped with Some r -> r | None -> base_rate t
    in
    let in_blackout t = List.exists (fun (t0, t1) -> t0 <= t && t < t1) blk in
    (* Breakpoints: base segment starts, step times, blackout edges. *)
    let bps = ref (FSet.singleton 0.) in
    (match base with
    | Link.Piecewise segs -> Array.iter (fun (t0, _) -> bps := FSet.add t0 !bps)
        segs
    | _ -> ());
    List.iter (fun (at, _) -> bps := FSet.add at !bps) steps;
    List.iter
      (fun (t0, t1) -> bps := FSet.add t0 (FSet.add t1 !bps))
      blk;
    let segs =
      FSet.elements !bps
      |> List.map (fun t -> (t, if in_blackout t then 0. else nominal t))
    in
    (* Drop redundant consecutive segments with identical rates. *)
    let segs =
      List.fold_left
        (fun acc (t, r) ->
          match acc with
          | (_, r') :: _ when r' = r -> acc
          | _ -> (t, r) :: acc)
        [] segs
      |> List.rev
    in
    Link.Piecewise (Array.of_list segs)
  end

(* ------------------------------------------------------------------ *)
(* Runtime state                                                       *)

type chain = {
  windows : (float * float * float * float * float * float) list;
      (* t0, t1, p_enter, p_exit, loss_good, loss_bad *)
  rng : Rng.t;
  mutable bad : bool;
}

type t = {
  chains : chain array;
  ack_windows : (float * float) list array;
  data_drops : int array;
  ack_drops : int array;
}

let instantiate p ~nflows ~rng =
  if nflows < 0 then invalid_arg "Fault.instantiate: negative nflows";
  let chains =
    Array.init nflows (fun i ->
        let windows =
          List.filter_map
            (function
              | Bursty_loss { flow; t0; t1; p_enter; p_exit; loss_good; loss_bad }
                when flow = i ->
                  Some (t0, t1, p_enter, p_exit, loss_good, loss_bad)
              | _ -> None)
            p.evs
        in
        { windows; rng = Rng.split rng; bad = false })
  in
  let ack_windows =
    Array.init nflows (fun i ->
        List.filter_map
          (function
            | Ack_blackhole { flow; t0; t1 } when flow = i -> Some (t0, t1)
            | _ -> None)
          p.evs)
  in
  {
    chains;
    ack_windows;
    data_drops = Array.make nflows 0;
    ack_drops = Array.make nflows 0;
  }

let data_drop t ~flow ~now =
  if flow < 0 || flow >= Array.length t.chains then false
  else
    let c = t.chains.(flow) in
    let active =
      List.find_opt (fun (t0, t1, _, _, _, _) -> t0 <= now && now < t1) c.windows
    in
    match active with
    | None ->
        c.bad <- false;
        false
    | Some (_, _, p_enter, p_exit, loss_good, loss_bad) ->
        (* One Markov transition per packet, then a drop draw in the
           resulting state. *)
        let u = Rng.float c.rng 1.0 in
        if c.bad then (if u < p_exit then c.bad <- false)
        else if u < p_enter then c.bad <- true;
        let p = if c.bad then loss_bad else loss_good in
        let dropped = p > 0. && Rng.float c.rng 1.0 < p in
        if dropped then t.data_drops.(flow) <- t.data_drops.(flow) + 1;
        dropped

let ack_drop t ~flow ~now =
  if flow < 0 || flow >= Array.length t.ack_windows then false
  else
    let hit =
      List.exists (fun (t0, t1) -> t0 <= now && now < t1) t.ack_windows.(flow)
    in
    if hit then t.ack_drops.(flow) <- t.ack_drops.(flow) + 1;
    hit

let data_drops t = Array.copy t.data_drops
let ack_drops t = Array.copy t.ack_drops

let fold_state buf t =
  Statebuf.i buf (Array.length t.chains);
  Array.iter
    (fun c ->
      Rng.fold_state buf c.rng;
      Statebuf.b buf c.bad)
    t.chains;
  Array.iter (Statebuf.i buf) t.data_drops;
  Array.iter (Statebuf.i buf) t.ack_drops

type choice = Victim_1 | Victim_2 | Victim_both | Inject_loss_1 | No_op

type state = {
  w1 : float;
  w2 : float;
  acked1 : float;
  acked2 : float;
  steps : int;
}

type verdict = {
  max_ratio : float;
  utilization : float;
  trace : choice list;
  exhaustive : bool;
}

let ratio st = Model.ratio st.acked1 st.acked2

let system ~bdp ~buffer ~allow_injected_loss =
  let deliver st =
    (* FIFO: capacity shared in proportion to demand. *)
    let demand = st.w1 +. st.w2 in
    let served = Float.min demand bdp in
    if demand <= 0. then (0., 0.)
    else (served *. st.w1 /. demand, served *. st.w2 /. demand)
  in
  let grow w = w +. 1. in
  let halve w = Float.max (w /. 2.) 1. in
  let choices st =
    let overflow = st.w1 +. st.w2 > bdp +. buffer in
    if overflow then [ Victim_1; Victim_2; Victim_both ]
    else if allow_injected_loss then [ No_op; Inject_loss_1 ]
    else [ No_op ]
  in
  let step st c =
    let a1, a2 = deliver st in
    let st = { st with acked1 = st.acked1 +. a1; acked2 = st.acked2 +. a2 } in
    let w1, w2 =
      match c with
      | No_op -> (grow st.w1, grow st.w2)
      | Victim_1 | Inject_loss_1 -> (halve st.w1, grow st.w2)
      | Victim_2 -> (grow st.w1, halve st.w2)
      | Victim_both -> (halve st.w1, halve st.w2)
    in
    { st with w1; w2; steps = st.steps + 1 }
  in
  fun ~w1_0 ~w2_0 ->
    {
      Search.initial = { w1 = w1_0; w2 = w2_0; acked1 = 0.; acked2 = 0.; steps = 0 };
      choices;
      step;
      score = ratio;
    }

let check ~bdp ~buffer ~horizon ?(allow_injected_loss = false) ?(w1_0 = 1.)
    ?(w2_0 = bdp) ?(beam_width = 4096) () =
  (* Every test fails on NaN; [infinity] is a legal [buffer]. *)
  let fn = "Aimd_check.check" in
  if not (Float.is_finite bdp && bdp > 0.) then
    invalid_arg (fn ^ ": bdp must be finite and positive");
  if not (buffer >= 0.) then invalid_arg (fn ^ ": buffer must be >= 0");
  if horizon < 0 then invalid_arg (fn ^ ": horizon must be >= 0");
  if not (Float.is_finite w1_0 && w1_0 > 0.) then
    invalid_arg (fn ^ ": w1_0 must be finite and positive");
  if not (Float.is_finite w2_0 && w2_0 > 0.) then
    invalid_arg (fn ^ ": w2_0 must be finite and positive");
  if beam_width < 1 then invalid_arg (fn ^ ": beam_width must be >= 1");
  let sys = system ~bdp ~buffer ~allow_injected_loss ~w1_0 ~w2_0 in
  (* Branching is at most 3 per step; DFS is exact up to ~13 steps even in
     the worst case, and usually much cheaper because overflow is rare. *)
  let use_dfs =
    (not allow_injected_loss) && horizon <= 16
    || (allow_injected_loss && horizon <= 12)
  in
  let best =
    if use_dfs then Search.dfs_max sys ~horizon
    else Search.beam_max sys ~horizon ~width:beam_width
  in
  let st = best.Search.state in
  let util =
    (st.acked1 +. st.acked2) /. (bdp *. float_of_int (max st.steps 1))
  in
  {
    max_ratio = best.Search.score;
    utilization = util;
    trace = best.Search.trace;
    exhaustive = use_dfs;
  }

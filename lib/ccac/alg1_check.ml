type curve = Exponential | Vegas_like

type dynamics = Aimd | Aiad

type state = {
  mu1 : float;
  mu2 : float;
  queue : float;
  acked1 : float;
  acked2 : float;
  steps : int;
}

type verdict = {
  max_ratio : float;
  min_utilization : float;
  ratio_trace : (float * float) list;
  horizon : int;
}

let threshold ~params ~curve ~d =
  match curve with
  | Exponential -> Alg1.target_rate params ~d
  | Vegas_like ->
      (* Same endpoints as the exponential curve: mu(rm + rmax) = mu-. *)
      let alpha = params.Alg1.mu_minus *. params.Alg1.rmax in
      if d <= params.Alg1.rm then infinity else alpha /. (d -. params.Alg1.rm)

let system ~params ~link_rate ~curve ~dynamics ~warmup ~score =
  let p = params in
  let rm = p.Alg1.rm in
  let jitter_levels = [ 0.; p.Alg1.d_jitter /. 2.; p.Alg1.d_jitter ] in
  let pairs =
    List.concat_map (fun j1 -> List.map (fun j2 -> (j1, j2)) jitter_levels) jitter_levels
  in
  let choices _ = pairs in
  let update mu d =
    let next =
      if mu < threshold ~params:p ~curve ~d then mu +. p.Alg1.a
      else
        match dynamics with
        | Aimd -> p.Alg1.b *. mu
        | Aiad -> mu -. p.Alg1.a
    in
    Float.max next p.Alg1.mu_minus
  in
  let step st (j1, j2) =
    let qd = st.queue /. link_rate in
    let d1 = rm +. qd +. j1 and d2 = rm +. qd +. j2 in
    let total = st.mu1 +. st.mu2 in
    let served = Float.min total link_rate in
    let share mu = if total <= 0. then 0. else served *. mu /. total in
    (* Throughput is an eventual property (Definitions 2 and 4): only
       account for service after the warmup, so the additive climb from
       the initial rates does not masquerade as unfairness. *)
    let count = st.steps >= warmup in
    {
      mu1 = update st.mu1 d1;
      mu2 = update st.mu2 d2;
      queue = Float.max 0. (st.queue +. ((total -. link_rate) *. rm));
      acked1 = (st.acked1 +. if count then share st.mu1 *. rm else 0.);
      acked2 = (st.acked2 +. if count then share st.mu2 *. rm else 0.);
      steps = st.steps + 1;
    }
  in
  {
    Search.initial =
      {
        mu1 = p.Alg1.mu_minus;
        mu2 = link_rate;
        queue = 0.;
        acked1 = 0.;
        acked2 = 0.;
        steps = 0;
      };
    choices;
    step;
    score;
  }

let ratio st = Model.ratio st.acked1 st.acked2

let check ~params ~link_rate ~curve ?(dynamics = Aimd) ~horizon ?(beam_width = 512) () =
  let fn = "Alg1_check.check" in
  Alg1.check_params fn params;
  if not (Float.is_finite link_rate && link_rate > 0.) then
    invalid_arg (fn ^ ": link_rate must be finite and positive");
  if horizon < 0 then invalid_arg (fn ^ ": horizon must be >= 0");
  if beam_width < 1 then invalid_arg (fn ^ ": beam_width must be >= 1");
  let warmup = horizon / 2 in
  let ratio_sys = system ~params ~link_rate ~curve ~dynamics ~warmup ~score:ratio in
  let best_ratio = Search.beam_max ratio_sys ~horizon ~width:beam_width in
  let underutil st =
    let measured = max (st.steps - warmup) 1 in
    let capacity = link_rate *. params.Alg1.rm *. float_of_int measured in
    1. -. ((st.acked1 +. st.acked2) /. capacity)
  in
  let util_sys = system ~params ~link_rate ~curve ~dynamics ~warmup ~score:underutil in
  let worst_util = Search.beam_max util_sys ~horizon ~width:beam_width in
  {
    max_ratio = best_ratio.Search.score;
    min_utilization = 1. -. worst_util.Search.score;
    ratio_trace = best_ratio.Search.trace;
    horizon;
  }

type pair = {
  c1 : float;
  c2 : float;
  m1 : Convergence.measurement;
  m2 : Convergence.measurement;
  epsilon : float;
  gap : float;
  probes : Convergence.measurement list;
}

let find_pair ~measure ~lambda0 ~factor ~epsilon ?(max_probes = 24) () =
  let require name ok what =
    if not ok then
      invalid_arg (Printf.sprintf "Pigeonhole.find_pair: %s must be %s" name what)
  in
  require "lambda0" (Float.is_finite lambda0 && lambda0 > 0.) "finite and positive";
  require "factor" (Float.is_finite factor && factor > 1.) "finite and greater than 1";
  require "epsilon" (Float.is_finite epsilon && epsilon > 0.) "finite and positive";
  let bucket_of m = int_of_float (Float.floor (m.Convergence.d_max /. epsilon)) in
  let rec scan i seen probes =
    if i >= max_probes then
      Error
        (Printf.sprintf
           "no pigeonhole pair within %d probes (epsilon=%.6f too fine?)" max_probes
           epsilon)
    else begin
      let rate = lambda0 *. (factor ** float_of_int i) in
      let m = measure ~rate in
      let probes = m :: probes in
      if not m.Convergence.converged then
        Error
          (Printf.sprintf "CCA did not converge at rate %.0f bytes/s — not \
                           delay-convergent at this rate" rate)
      else begin
        (* Check this probe against every earlier one: buckets catch pairs
           within the same epsilon-cell, and we also accept any pair whose
           d_max gap is directly below epsilon (buckets can split a close
           pair across a boundary). *)
        let close =
          List.find_opt
            (fun (b, prev) ->
              b = bucket_of m
              || Float.abs (prev.Convergence.d_max -. m.Convergence.d_max) < epsilon)
            seen
        in
        match close with
        | Some (_, prev) ->
            Ok
              {
                c1 = prev.Convergence.rate;
                c2 = m.Convergence.rate;
                m1 = prev;
                m2 = m;
                epsilon;
                gap = Float.abs (prev.Convergence.d_max -. m.Convergence.d_max);
                probes = List.rev probes;
              }
        | None -> scan (i + 1) ((bucket_of m, m) :: seen) probes
      end
    end
  in
  scan 0 [] []

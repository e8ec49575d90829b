type band = { d_min : float; d_max : float }

let width b = b.d_max -. b.d_min

type curve = {
  curve_name : string;
  band : rate:float -> rm:float -> band;
  delta_max : rm:float -> float;
}

let transmission_floor ~rate ~mss = float_of_int mss /. rate

let vegas (p : Vegas.params) =
  {
    curve_name = "vegas";
    band =
      (fun ~rate ~rm ->
        let tx = transmission_floor ~rate ~mss:p.mss in
        let per_pkt = float_of_int p.mss /. rate in
        {
          d_min = rm +. tx +. (p.alpha *. per_pkt);
          d_max = rm +. tx +. (p.beta *. per_pkt);
        });
    (* The alpha..beta window shrinks with C; its sup over C > lambda is at
       C = lambda, but for the paper's purposes the width tends to 0. *)
    delta_max = (fun ~rm:_ -> 0.);
  }

let fast (p : Fast_tcp.params) =
  {
    curve_name = "fast";
    band =
      (fun ~rate ~rm ->
        let tx = transmission_floor ~rate ~mss:p.mss in
        let d = rm +. tx +. (p.alpha_packets *. float_of_int p.mss /. rate) in
        { d_min = d; d_max = d });
    delta_max = (fun ~rm:_ -> 0.);
  }

let copa (p : Copa.params) =
  {
    curve_name = "copa";
    band =
      (fun ~rate ~rm ->
        let lo, hi = Copa.delay_band p ~rate ~rm in
        let tx = transmission_floor ~rate ~mss:p.mss in
        { d_min = lo +. tx; d_max = hi +. tx });
    delta_max = (fun ~rm:_ -> 0.);
  }

let bbr_pacing =
  {
    curve_name = "bbr-pacing";
    band =
      (fun ~rate ~rm ->
        let tx = transmission_floor ~rate ~mss:Cca.default_mss in
        { d_min = rm +. tx; d_max = (1.25 *. rm) +. tx });
    delta_max = (fun ~rm -> 0.25 *. rm);
  }

let bbr_cwnd (p : Bbr.params) =
  {
    curve_name = "bbr-cwnd";
    band =
      (fun ~rate ~rm ->
        let d = Bbr.equilibrium_rtt_cwnd_limited p ~rate ~rm ~n_flows:1 in
        let tx = transmission_floor ~rate ~mss:p.mss in
        { d_min = d +. tx; d_max = d +. tx });
    delta_max = (fun ~rm:_ -> 0.);
  }

let pcc_vivace =
  {
    curve_name = "pcc-vivace";
    band =
      (fun ~rate ~rm ->
        let tx = transmission_floor ~rate ~mss:Cca.default_mss in
        { d_min = rm +. tx; d_max = (1.05 *. rm) +. tx });
    delta_max = (fun ~rm -> rm /. 20.);
  }

let ledbat (p : Ledbat.params) =
  {
    curve_name = "ledbat";
    band =
      (fun ~rate ~rm ->
        let d = Ledbat.equilibrium_rtt p ~rate ~rm in
        { d_min = d; d_max = d });
    delta_max = (fun ~rm:_ -> 0.);
  }

let alg1 (p : Alg1.params) =
  {
    curve_name = "alg1";
    band =
      (fun ~rate ~rm ->
        (* Invert mu(d): d = rm + rmax - D * log_s (mu / mu-).  The AIMD
           cycle oscillates between the crossing rate and b*rate, i.e. over
           a delay interval of D * log_s (1/b). *)
        let d_of_rate r =
          p.rm +. p.rmax
          -. (p.d_jitter *. (Float.log (r /. p.mu_minus) /. Float.log p.s))
        in
        let tx = transmission_floor ~rate ~mss:p.mss in
        let hi = d_of_rate (p.b *. rate) +. tx and lo = d_of_rate rate +. tx in
        ignore rm;
        { d_min = Float.min lo hi; d_max = Float.max lo hi });
    delta_max =
      (fun ~rm:_ -> p.d_jitter *. (Float.log (1. /. p.b) /. Float.log p.s));
  }

let sweep curve ~rates ~rm = List.map (fun r -> (r, curve.band ~rate:r ~rm)) rates

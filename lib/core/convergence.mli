(** Delay-convergence measurement (paper §2.2, Definition 1).

    Runs a CCA alone on an ideal path (constant rate, no jitter, unbounded
    buffer) and extracts the converged delay band [d_min(C), d_max(C)], the
    oscillation width delta(C) = d_max - d_min, and the convergence time T
    after which every RTT sample stays inside the band. *)

type measurement = {
  cca_name : string;
  rate : float;  (** bottleneck rate, bytes/s *)
  rm : float;
  duration : float;
  converged : bool;
      (** the band was reached before the tail window began, held, and is
          stable: its extrema over the two halves of the tail window agree
          (a monotone drift — e.g. an unbounded queue — is not
          convergence even though it technically "enters" its own tail
          band) *)
  t_converge : float;  (** the paper's T; [nan] if never converged *)
  d_min : float;  (** band floor over the tail window, seconds (RTT) *)
  d_max : float;  (** band ceiling *)
  delta : float;  (** d_max - d_min *)
  throughput : float;  (** bytes/s over the tail window *)
  efficiency : float;  (** throughput / rate *)
  rtt : Sim.Series.t;  (** full RTT trajectory (ack time, rtt) *)
  rate_trace : Sim.Series.t;  (** delivery-rate trajectory, bytes/s *)
}

val measure :
  make_cca:(unit -> Cca.t) ->
  rate:float ->
  rm:float ->
  ?duration:float ->
  ?seed:int ->
  unit ->
  measurement
(** [duration] defaults to the larger of 30 s and 400 RTTs.  The band is
    measured over the tail window, the trailing 40% of the run, and
    padded by 2% of its width (plus a 10 us absolute guard) before
    searching for the earliest entry time T. *)

val is_delay_convergent :
  make_cca:(unit -> Cca.t) ->
  rates:float list ->
  rm:float ->
  ?duration:float ->
  ?seed:int ->
  unit ->
  bool * float * float
(** Check Definition 1 empirically over a set of rates: every run must
    converge.  Returns (all converged, sup d_max, sup delta) — the
    empirical d_max-bar and delta-max bounds used by the theorems. *)

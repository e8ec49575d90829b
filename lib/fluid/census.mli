(** Fluid port of the starvation census: a churning population of
    Pareto-sized flows (Poisson arrivals, per-flow constant jitter
    uniform in [0, jitter_d], all drawn from labeled {!Sim.Rng} streams
    so the population is a pure function of (seed, key)) advanced by
    one shared fluid law on one bottleneck.  Arrival [i] is the sum of
    [i + 1] exponential gaps of mean [arrival_frac * duration / n],
    capped at [duration]: an arrival that overshoots the window
    [arrival_frac * duration] comes after it, whereas {!Sim.Population}
    puts it at the window's end.  Cost per step is O(active flows), not
    O(population), but memory is O(n): {!run} draws every arrival, size
    and jitter before the first step and keeps 15 arrays of [n] entries
    plus the [n] goodputs, about 24 MB for a 200 000-flow cell; only a
    flow's law state lives from its admission to its completion. *)

type config = private {
  key : string;
  seed : int;
  n : int;
  duration : float;
  arrival_frac : float;
  rate : float;
  buffer : float;
  rm : float;
  mss : float;
  jitter_d : float;
  alpha : float;
  xm : float;
  size_cap : float;
  dt : float;
  law : Ccac.Model.fluid;
}

val config :
  key:string ->
  seed:int ->
  n:int ->
  duration:float ->
  arrival_frac:float ->
  rate:float ->
  ?buffer:float ->
  rm:float ->
  ?mss:float ->
  jitter_d:float ->
  alpha:float ->
  xm:float ->
  size_cap:float ->
  ?dt:float ->
  Ccac.Model.fluid ->
  config
(** [dt] defaults to rm/4.
    @raise Invalid_argument naming the field unless [n > 0];
    [duration], [rate], [rm], [mss], [alpha], [xm], [size_cap] and [dt]
    are finite and positive; [arrival_frac] is in (0, 1]; [jitter_d] is
    finite and [>= 0]; and [buffer] is [>= 0] (it may be [infinity]).
    NaN fails every test. *)

type result = {
  goodputs : float array;
      (** per flow, served bytes over its own lifetime; 0. = starved *)
  completed : int;
  peak_active : int;
  steps : int;
  offered_bytes : float;
  served_bytes : float;
  conservation_error : float;  (** |accepted - served - final queue| *)
}

val run : config -> result

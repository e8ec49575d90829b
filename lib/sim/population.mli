(** Churning flow population over one bottleneck — the census.

    Runs [n] finite flows (Poisson arrivals, Pareto sizes) on a
    {!Network}, which recycles flow slots ({!Network.spawn}): a departed
    flow's slot — [Flow.t], outstanding rings, ACK delay line, columnar
    CCA row — is reincarnated in place ({!Flow.respawn}) for a later
    arrival.  Memory and event-queue size scale with the birth-death
    process's concurrency bound, not with [n], which is what makes a
    one-million-flow census fit one machine; see DESIGN.md §13.

    Arrival [k] comes at the sum of [k + 1] exponential gaps of mean
    [arrival_frac * duration / n], capped at the window's end
    [arrival_frac * duration]: every arrival whose sum overshoots the
    window arrives at that instant, one after another (with seed 42,
    32 of the 250 flows of the quick heavy copa cell, at t = 3 s).

    The run is deterministic: arrivals and sizes come from
    order-independent labeled RNG streams keyed by [(seed, key)], so the
    population is identical no matter how slots happen to be recycled. *)

type config = {
  n : int;  (** flows to spawn *)
  duration : float;  (** simulated horizon, seconds *)
  arrival_frac : float;
      (** arrivals occur in [0, arrival_frac * duration]; the overshoot
          lands on the window's end *)
  rate : float;  (** bottleneck rate, bytes/s *)
  buffer : int option;  (** drop-tail capacity, bytes; [None] = unbounded *)
  rm : float;  (** one-way propagation delay after the bottleneck *)
  mss : int;
  jitter_d : float;  (** ACK-path jitter bound D (uniform in [0, D]); 0 = none *)
  seed : int;
  key : string;  (** RNG stream namespace — make it unique per cell *)
  alpha : float;  (** Pareto shape for flow sizes *)
  xm : float;  (** Pareto scale (bytes) *)
  size_cap : int;  (** flow sizes are truncated to this many bytes *)
}

type result = {
  goodputs : float array;
      (** per-flow goodput in spawn order: delivered bytes over the
          flow's own lifetime (to completion, or to the horizon while
          incomplete).  Length [n]. *)
  spawned : int;  (** always [n] *)
  completed : int;
  peak_active : int;  (** concurrency high-water mark *)
  peak_pending : int;  (** event-queue high-water mark, sampled at spawns *)
  slots : int;  (** flow slots ever created — bounded by concurrency *)
  fallbacks : int;
      (** delay-line non-monotone escapes; 0 for every shipped policy *)
}

val run :
  cca:(slot:int -> prev:Cca.instance option -> Cca.instance) ->
  config ->
  result
(** [cca ~slot ~prev] supplies the congestion controller for each
    incarnation of a slot.  [prev] is the slot's previous instance when
    the slot is being recycled: a columnar factory resets and returns it
    (allocation-free churn); returning a different instance releases the
    old one.  Called once per spawned flow.
    @raise Invalid_argument naming the field unless [n > 0]; [duration],
    [rate], [alpha] and [xm] are finite and positive; [arrival_frac] is
    in (0, 1]; [rm] and [jitter_d] are finite and [>= 0]; [buffer], if
    given, is [>= 0]; [mss > 0]; and [size_cap >= mss].  NaN fails
    every test. *)

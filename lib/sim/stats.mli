(** Streaming and batch statistics used by monitors and experiment reports. *)

(** Online mean/variance/extrema accumulator (Welford's algorithm). *)
module Online : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  (** [nan] when empty. *)

  val variance : t -> float
  (** Sample variance (n-1 denominator).  [nan] for fewer than two
      samples: a singleton has no spread estimate, and returning [0.]
      for it while [mean] of an empty accumulator is [nan] made the
      small-count conventions inconsistent. *)

  val stddev : t -> float
  (** [sqrt (variance t)]; [nan] for fewer than two samples. *)

  val min : t -> float
  (** Smallest sample seen; [nan] when empty (not [infinity]). *)

  val max : t -> float
  (** Largest sample seen; [nan] when empty (not [neg_infinity]). *)
end

val mean : float array -> float
val percentile : float array -> float -> float
(** [percentile xs p] for [p] in [0,100], linear interpolation between order
    statistics.  The input need not be sorted.
    @raise Invalid_argument on an empty array or p outside [0,100]. *)

val median : float array -> float

val jain_index : float list -> float
(** Jain's fairness index: [(sum x)^2 / (n * sum x^2)].  1 = perfectly fair.
    @raise Invalid_argument on an empty list. *)

val max_min_ratio : float list -> float
(** Ratio of the largest to the smallest value; [infinity] if the smallest is
    zero while the largest is positive, [1.] when all are zero.  Values must
    be non-negative (they are throughputs).
    @raise Invalid_argument on an empty list or any negative value. *)

(** Distribution of per-flow throughput ratios for large populations,
    with starvation reported as an explicit count rather than an
    infinite ratio.  {!max_min_ratio} collapses a 100k-flow census to
    [infinity] the moment one flow starves, which both hides how many
    starved and poisons JSON output; this summary keeps every field
    finite by construction. *)
type ratio_summary = {
  total : int;  (** population size *)
  starved : int;  (** flows with rate exactly 0 *)
  p50 : float;  (** quantiles of [max rate / rate] over non-starved flows *)
  p90 : float;
  p99 : float;
  max_ratio : float;  (** largest finite ratio (>= 1 when any flow moved) *)
}

val ratio_summary : float array -> ratio_summary
(** Quantiles are over the non-starved flows only and are therefore
    always finite; when {e every} flow starved they are reported as 0.
    No field is ever [inf] or [nan].
    @raise Invalid_argument on an empty array or any negative or
    non-finite rate. *)

val ratio_summary_in_place : float array -> ratio_summary
(** Same result as {!ratio_summary}, bit for bit, but destroys its input:
    rates are overwritten with ratios and the array is left permuted,
    the starved flows' zeros first and the live ratios after them in no
    particular order (not sorted).  Runs in expected O(n) and allocates
    nothing per element: each quantile's two order statistics are found
    by in-place selection in the caller's buffer.  This is what the
    million-flow census calls on its per-cell goodput column. *)

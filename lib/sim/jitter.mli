(** The paper's non-congestive delay element (§3).

    Sits on a flow's ACK return path and may hold each packet for an extra
    delay in [0, D] without reordering.  The element is flow-specific: the
    starvation construction gives the two flows different delay schedules.

    Policies cover every jitter source the evaluation uses, plus the
    [Controller] hook that the Theorem 1/2 machinery uses to impose an exact
    delay trajectory computed online from simulator state. *)

type request = {
  flow : int;
  arrival : float;  (** time the packet reached this element *)
  sent : float;  (** original send time (lets controllers target a total RTT) *)
}

type policy =
  | No_jitter
  | Constant of float  (** every packet held exactly this long *)
  | Uniform of { lo : float; hi : float }  (** i.i.d. uniform extra delay *)
  | Trace of (float -> float)  (** extra delay as a function of arrival time *)
  | Controller of (request -> float)
      (** arbitrary online adversary; the element clamps the result to
          [0, bound] and counts the clamp as a violation *)

type t

val create : ?bound:float -> rng:Rng.t -> policy -> t
(** [bound] is the model's D; defaults to [infinity] (policy output is
    trusted).  Draws for [Uniform] come from [rng].

    [Uniform] parameters are validated here rather than surfacing as
    garbage mid-run: both bounds must be finite with [0 <= lo <= hi].
    ([hi] larger than [bound] is allowed — the element clamps at release
    time and counts violations, which the threshold experiments rely
    on.)  [bound] itself must be non-negative ([infinity] ok).
    [Constant]/[Trace]/[Controller] delays are deliberately not
    validated: out-of-range requests from them are the adversarial
    inputs the violation counters exist to measure.
    @raise Invalid_argument on an invalid [Uniform] or negative/NaN
    [bound]. *)

val release_at : t -> flow:int -> arrival:float -> sent:float -> float
(** Time at which the packet leaves the element: arrival + clamped policy
    delay, pushed forward if needed so that releases never reorder.  The
    forward push means successive release times are always monotone
    non-decreasing — the property {!Delay_line} relies on.  The
    arguments are the {!request} fields; the record is built only for
    the [Controller] policy. *)

val violations : t -> int
(** Number of packets whose requested delay fell outside [0, bound] (the
    element clamped it).  The theorem checkers require this to stay 0. *)

val max_requested : t -> float
(** Largest delay any policy invocation requested (before clamping). *)

val worst_excess : t -> float
(** Largest distance by which a request fell outside [0, bound] — 0 when
    there were no violations.  Distinguishes packet-granularity boundary
    riding (sub-millisecond) from a genuinely infeasible schedule. *)

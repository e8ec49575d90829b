(** Sliding-window filters over timestamped samples.

    Used by BBR (windowed-max bandwidth), Copa (standing RTT = windowed-min
    over half an RTT), and the experiment analysis code.  Samples must be
    pushed with non-decreasing timestamps.  Stale samples are evicted only
    on push: a sample is kept while its time is [>= now - window], where
    [now] is the time of the sample being pushed.  Queries never evict,
    so they report the extremum as of the last push. *)

(** Windowed minimum/maximum filter: a monotonic deque in a growable ring
    of unboxed float arrays.  O(1) amortized per push, O(1) per query, and
    no allocation in steady state. *)
module Extremum : sig
  type t

  val create_min : window:float -> t
  (** Filter reporting the minimum over the last [window] seconds.
      @raise Invalid_argument if [window] is NaN or negative. *)

  val create_max : window:float -> t
  (** Filter reporting the maximum over the last [window] seconds.
      @raise Invalid_argument if [window] is NaN or negative. *)

  val push : t -> time:float -> float -> unit
  (** Insert a sample.  A new sample displaces every older one it ties or
      beats ([<=] for a min filter, [>=] for a max filter).
      @raise Invalid_argument if [time] is earlier than the newest sample
      still in the filter. *)

  val is_empty : t -> bool
  (** [true] before the first push and after {!clear}. *)

  val get : t -> float option
  (** Current extremum over the window, [None] if the window is empty. *)

  val get_default : t -> float -> float
  (** [get_default t d] is the extremum, or [d] when empty.  Unlike {!get}
      it does not allocate. *)

  val set_window : t -> float -> unit
  (** Change the window length (takes effect on subsequent evictions).
      @raise Invalid_argument if the window is NaN or negative. *)

  val clear : t -> unit
  (** Drop every sample, keeping the window and the ring's storage. *)
end

(** Exponentially weighted moving average. *)
module Ewma : sig
  type t

  val create : gain:float -> t
  (** [gain] in (0, 1]: weight of each new sample. *)

  val push : t -> float -> unit
  val get : t -> float option
  val get_default : t -> float -> float
end

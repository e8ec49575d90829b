(** Deterministic, splittable pseudo-random number generator.

    xoshiro256** seeded through splitmix64.  Every stochastic element of a
    simulation (random loss, BBR probe phases, uniform jitter) draws from a
    stream split off a single experiment seed, so runs are reproducible and
    flows are statistically independent.

    The state is held unboxed, so a draw allocates at most the boxed
    [float] or [int64] it returns: {!int} and {!bool} allocate nothing. *)

type t

val create : seed:int -> t

val split : t -> t
(** A new generator statistically independent of the parent.  Splitting
    {e advances} the parent, so the child depends on how many draws and
    splits preceded it — use {!stream} when the derivation must not
    depend on call order. *)

val stream : t -> label:string -> t
(** [stream t ~label] derives a generator from the parent's current
    state and the label, {e without} advancing the parent.  Consequences:
    deriving the same label twice from an untouched parent yields
    identical generators; deriving distinct labels yields statistically
    independent ones; and the order in which labels are derived is
    irrelevant.  This is what reproducible fuzzing wants: scenario [i]'s
    generator is a pure function of (master seed, label), no matter
    which scenarios ran before it. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound). *)

val uniform : t -> lo:float -> hi:float -> float

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound).  [bound] must be positive. *)

val bool : t -> p:float -> bool
(** Bernoulli draw: [true] with probability [p]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed draw with the given mean (rate [1/mean]),
    via inverse-CDF — one uniform per draw, always finite and
    non-negative.  [mean] must be positive.  Used by the open-loop
    Poisson traffic source ({!Source}). *)

val pareto : t -> alpha:float -> xm:float -> float
(** Pareto-distributed draw (minimum [xm], shape [alpha]) via
    inverse-CDF — one uniform per draw, always finite and >= [xm].
    Both parameters must be positive.  Heavy-tailed flow sizes for the
    churn model use [alpha] close to the classic 1.5: most flows are a
    few segments, a few are elephants. *)

val bits64 : t -> int64

val fold_state : Buffer.t -> t -> unit
(** Append the full generator state (the four xoshiro words) to a
    {!Statebuf} encoding — part of {!Network.state_hash}. *)

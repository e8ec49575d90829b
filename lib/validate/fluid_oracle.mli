(** Cross-validation of the fluid backend (lib/fluid) against the
    packet-level simulator, plus the fluid and hybrid byte-conservation
    oracles.

    Tolerances follow the z=5 discipline of {!Queueing}: z times the
    empirical standard error of the packet-side measurement (from
    disjoint subintervals of the measurement window), floored by the
    CCA's own oscillation band — the same sawtooth / alpha..beta slack
    the {!Equilibrium} oracles grant the packet simulator itself. *)

val hybrid_threshold : ?duration:float -> unit -> Oracle.verdict list
(** End-to-end hybrid run of the E14 threshold scenario at D far below
    and far above the Copa starvation threshold: conservation holds at
    both, the high-D run starves (ratio > 4 — requires the poisoned
    min-RTT to survive the seams), the low-D run does not. *)

val all : ?seed:int -> ?quick:bool -> unit -> Oracle.verdict list
(** Fluid vs packet agreement on a symmetric 2-flow scenario for Reno,
    Copa and Vegas (equilibrium throughput ratio, standing queue, the
    fluid run's byte conservation), then the hybrid checks. *)

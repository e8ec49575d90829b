(** Declarative fault injection for simulated networks.

    A fault plan is a list of scheduled events applied to a
    {!Network.config}: link blackouts (service rate forced to 0 over a
    window), rate renegotiation steps, mid-run buffer resizes,
    Gilbert-Elliott bursty loss on a flow's data path, and ACK blackhole
    windows on a flow's return path.  Link-rate faults compile into a
    {!Link.Piecewise} schedule, so the existing service loop needs no
    special cases; stochastic faults draw from a dedicated {!Rng} stream
    split off the experiment seed, so every faulty scenario replays
    bit-identically for a given seed. *)

type event =
  | Link_blackout of { t0 : float; t1 : float }
      (** bottleneck rate forced to 0 on [t0, t1); queued packets wait,
          arrivals still obey the drop-tail buffer *)
  | Rate_step of { at : float; rate : float }
      (** capacity renegotiation: the nominal link rate becomes [rate]
          (bytes/s) from [at] until the next step *)
  | Buffer_resize of { at : float; buffer : int option }
      (** drop-tail capacity becomes [buffer] bytes at [at] ([None] =
          unbounded).  Already-queued packets are never evicted; a shrink
          below the current occupancy only blocks new admissions until
          the queue drains. *)
  | Ack_blackhole of { flow : int; t0 : float; t1 : float }
      (** ACKs of this flow arriving at the return path on [t0, t1) are
          silently discarded *)
  | Bursty_loss of {
      flow : int;
      t0 : float;
      t1 : float;
      p_enter : float;  (** per-packet good->bad transition probability *)
      p_exit : float;  (** per-packet bad->good transition probability *)
      loss_good : float;  (** drop probability in the good state *)
      loss_bad : float;  (** drop probability in the bad state *)
    }
      (** Gilbert-Elliott two-state Markov loss on the flow's data path,
          active on [t0, t1) (the chain rests in the good state outside
          the window).  Replaces the i.i.d. Bernoulli [loss_rate] with
          correlated loss bursts. *)

type plan

val plan : event list -> plan
(** Validate and freeze a schedule.
    @raise Invalid_argument on an empty window ([t1 <= t0]), a negative
    time, rate or buffer, a probability outside [0, 1], a drop
    probability of 1 (the flow could never recover), or a negative flow
    index. *)

val none : plan
(** The empty plan (no faults). *)

val events : plan -> event list
val is_empty : plan -> bool

val buffer_events : plan -> (float * int option) list
(** Buffer resizes, sorted by time. *)

val compile_rate : plan -> Link.rate -> Link.rate
(** Fold the plan's blackouts and rate steps into a service-rate
    schedule.  Returns the base rate unchanged when the plan carries no
    link-rate faults. *)

(** {1 Runtime state}

    The stochastic faults (Gilbert-Elliott chains) and the drop counters
    live in an instance bound to one simulation run. *)

type t

val instantiate : plan -> nflows:int -> rng:Rng.t -> t
(** Fresh runtime state; per-flow chains draw from independent streams
    split off [rng]. *)

val data_drop : t -> flow:int -> now:float -> bool
(** Ask whether the data packet a flow is transmitting at [now] is
    consumed by a fault.  Advances the flow's Gilbert-Elliott chain (one
    transition per packet) and counts the drop.  Flows outside any
    bursty-loss window never drop and their chain rests in good. *)

val ack_drop : t -> flow:int -> now:float -> bool
(** Ask whether an ACK (batch) arriving at the return path at [now]
    falls into one of the flow's blackhole windows; counts the drop. *)

val data_drops : t -> int array
(** Packets consumed by bursty loss, per flow. *)

val ack_drops : t -> int array
(** ACK batches blackholed, per flow. *)

(** Open-loop traffic source: packets arrive by a stochastic process,
    independent of any feedback from the network.

    The closed-loop flows in {!Flow} are what the paper studies, but
    they cannot be validated against queueing theory — their arrival
    process depends on the queue.  An open-loop source can: Poisson
    arrivals with exponential sizes into a constant-rate FIFO is an
    M/M/1 queue, and with fixed sizes an M/D/1 queue, both with
    closed-form mean waiting times.  [lib/validate] drives one of these
    into a bare {!Link} and checks the simulator's measured sojourn
    times and occupancy against the formulas — an oracle that no amount
    of self-consistent byte-identity can fake. *)

(** Inter-arrival process. *)
type arrivals =
  | Poisson of { rate : float }
      (** exponential gaps with mean [1/rate] (arrivals per second) *)

(** Packet-size distribution, bytes. *)
type sizes =
  | Fixed of int
  | Exponential of { mean : float }
      (** sizes are drawn exponentially and rounded to at least one byte;
          use a large mean (≥ 10^3) so discretization error is
          negligible relative to the mean *)

type t

val create :
  eq:Event_queue.t -> rng:Rng.t -> arrivals:arrivals -> sizes:sizes ->
  ?until:float -> send:(Packet.t -> unit) -> unit -> t
(** Arm the source on the event queue: from the first arrival (one gap
    after [Event_queue.now]) until [until] (default: forever), each
    arrival draws a size and hands a fresh packet to [send].  Packets
    carry flow id 0 and consecutive [seq]; [sent_at] is the arrival
    time.  All draws come from [rng] in arrival order — one gap
    draw, then one size draw when the distribution needs it — so a
    source is reproducible from its generator.

    @raise Invalid_argument on a non-positive rate, size or mean. *)

val sent_packets : t -> int
val sent_bytes : t -> int
(** Arrivals generated so far (counted when handed to [send]). *)

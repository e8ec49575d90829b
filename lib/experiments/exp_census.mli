(** E19: the starvation census.

    The headline experiments measure two long-lived flows; this one asks
    the population question: across a churning workload of up to one
    million finite flows — Poisson arrivals, Pareto(1.5) sizes — how is
    throughput distributed, and how many flows starve outright?

    One cell per (variant, CCA, ACK-path jitter) triple.  The [std]
    variant offers 70% load against an unbounded buffer; the [heavy]
    variant overdrives a 20-packet buffer at 140% load, so drops — not
    just latecomer disadvantage — shape the distribution.  Each flow's
    rate is its goodput over its own lifetime (start to completion or
    the horizon), so the measure is meaningful for flows that lived only
    a fraction of the run.  Results are reported as a
    {!Sim.Stats.ratio_summary}: finite quantiles of
    [best rate / flow rate] over the non-starved flows plus an explicit
    starved count — never an infinite ratio, so the JSON line printed
    per cell is always parseable.

    This is also the scale exercise for the simulator itself: cells run
    on {!Sim.Population} (slot recycling, columnar CCA state,
    concurrency-bounded memory), the workload DESIGN.md §13 exists for.
    Cell jobs are silent — JSON lines and tables are printed by the
    merge in the parent — so serial and forked runs are byte-identical. *)

type cell = {
  variant : string;  (** ["std"] or ["heavy"] *)
  cca_name : string;
  backend : string;  (** ["packet"], ["fluid"] or ["hybrid"] *)
  jitter_ms : float;
  flows : int;
  completed : int;  (** flows that finished their size before the horizon *)
  summary : Sim.Stats.ratio_summary;
  peak_pending : int;  (** event-queue high-water mark, sampled at spawns *)
  peak_active : int;  (** concurrency high-water mark *)
  slots : int;  (** flow slots ever created — bounded by concurrency *)
  fallbacks : int;  (** delay-line non-monotone escapes; must be 0 *)
}

val plan :
  quick:bool ->
  backend:Fluid.Backend.t ->
  Runner.Job.t list * (bytes list -> Report.row list)
(** One job per cell, keys embedding the backend.  Quick runs 250 flows
    per cell; full runs 1M per [std] cell and 250k per [heavy] cell.
    The merge prints one ["census {...}"] JSON line per cell on stdout
    and yields one row per cell.  [backend] selects the substrate;
    [Fluid] and [Hybrid] both run the {!Fluid.Census} port (the census
    has no event schedule to hand a hybrid switcher), whose per-flow
    law state is admitted and released with the flow — peak concurrent
    state rows take the [slots] column, the packet-only counters report
    zero. *)

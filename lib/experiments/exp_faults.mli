(** E18: fault-scenario matrix — CCA recovery under injected faults.

    Runs each CCA through the {!Sim.Fault} scenario matrix (link
    blackout, capacity renegotiation, Gilbert-Elliott bursty loss, ACK
    blackhole, mid-run buffer shrink) with the runtime invariant monitor
    enabled, and reports how long the flow takes to resume delivering
    after the fault clears, the post/pre-fault throughput ratio, and the
    invariant-violation count (which must be zero: faults stress the
    protocols, never the simulator's own conservation laws). *)

type outcome = {
  cca : string;
  scenario : string;
  fault_window : float * float;  (** [(start, end)] of the injected fault *)
  pre_rate : float;  (** throughput (bytes/s) before the fault *)
  post_rate : float;  (** throughput after the fault clears *)
  recovery : float option;
      (** seconds after the fault clears until the flow delivers again;
          [None] if it never recovers *)
  violations : int;  (** invariant monitor total (expected 0) *)
  stall_probes : int;  (** forced probes that un-wedged the flow *)
  degraded : int;  (** clamped insane CCA outputs *)
}

val plan : quick:bool -> Runner.Job.t list * (bytes list -> Report.row list)
(** One job per (CCA, fault scenario) cell — the natural parallel grain
    of the matrix; each job's payload is its {!outcome}, and the merge
    yields one row per cell. *)

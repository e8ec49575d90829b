(** Theorem 3: in the "strong" model (adversary also controls the link
    rate), every deterministic, f-efficient, delay-bounding CCA starves.

    Constructive iteration from Appendix B: let d_1(t) be the queueing
    delay of the CCA alone on an ideal link of rate lambda; build traces
    d_{n+1}(t) = max(0, d_n(t) - D).  Each trace is imposed on the flow
    with a delay controller (the strong-model adversary can create any
    queue trajectory by varying the rate).  Throughputs x_n grow as the
    delays shrink; within ceil(max d_1 / D) steps either two consecutive
    traces differ by more than s — giving a two-flow starvation scenario
    where one flow's packets get +D of non-congestive delay and the
    other's get 0 — or the delay hits 0 and f-efficiency forces the
    throughput ratio above s anyway. *)

type step = {
  index : int;
  throughput : float;  (** bytes/s on this trace *)
  max_delay : float;  (** sup of the imposed queueing delay *)
}

type outcome = {
  steps : step list;
  witness : (int * int) option;
      (** indices (n, n+1) of consecutive traces whose throughput ratio
          exceeds s — the starvation pair *)
  ratio : float;  (** largest consecutive ratio observed *)
  target_s : float;
}

val run :
  make_cca:(unit -> Cca.t) ->
  lambda:float ->
  rm:float ->
  big_d:float ->
  s:float ->
  ?duration:float ->
  ?seed:int ->
  unit ->
  outcome
(** [lambda] is the initial ideal-link rate (bytes/s); [big_d] the model's
    D.  The fast link used to impose the traces is sized automatically. *)

(** Step 1 of the Theorem 1 proof (Figure 4).

    Scan the geometric rate sequence lambda_i = lambda0 * factor^i,
    measuring each rate's converged delay band, until two rates are found
    whose d_max values land in the same epsilon-sized bucket of the
    [Rm, d_max-bar] interval.  Because the sequence is infinite and the
    buckets finite, such a pair always exists for a delay-convergent CCA;
    the search surfaces it constructively. *)

type pair = {
  c1 : float;  (** slower link rate, bytes/s *)
  c2 : float;  (** faster link rate; c2 >= factor * c1 *)
  m1 : Convergence.measurement;
  m2 : Convergence.measurement;
  epsilon : float;
  gap : float;  (** |d_max(c1) - d_max(c2)|, < epsilon by construction *)
  probes : Convergence.measurement list;
      (** every rate measured during the search, for the Figure 4 plot *)
}

val find_pair :
  measure:(rate:float -> Convergence.measurement) ->
  lambda0:float ->
  factor:float ->
  epsilon:float ->
  ?max_probes:int ->
  unit ->
  (pair, string) result
(** [factor] is the paper's s/f.  [measure] typically wraps
    {!Convergence.measure} with the CCA and Rm fixed.  Fails (with a
    diagnostic) only if a probe does not converge or [max_probes]
    (default 24) is exhausted — which for a delay-convergent CCA means
    epsilon was too small for the probe budget.
    @raise Invalid_argument naming the parameter unless [lambda0] and
    [epsilon] are finite and positive and [factor] is finite and above 1
    (NaN fails every check). *)

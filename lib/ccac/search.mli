(** Bounded adversarial search over discretized network traces.

    The paper (and its Appendix C extension) uses the CCAC SMT verifier to
    ask "does a network trace of length T exist on which the CCA misbehaves
    (starves, or under-utilizes)?".  No SMT solver is available in this
    environment, so we answer the same bounded question by explicit search
    over a discretized adversary-choice alphabet: exhaustive DFS when the
    tree is small, beam search otherwise.  DFS results are exact for the
    discretized model; beam results are lower bounds on the adversary's
    best score. *)

type ('s, 'c) system = {
  initial : 's;
  choices : 's -> 'c list;  (** adversary moves available in this state *)
  step : 's -> 'c -> 's;  (** must be pure: states are shared across branches *)
  score : 's -> float;
      (** objective the adversary maximizes, at horizon; must be pure, as
          the beam search scores each state once and reuses the value *)
}

type ('s, 'c) best = { state : 's; score : float; trace : 'c list }

val dfs_max : ('s, 'c) system -> horizon:int -> ('s, 'c) best
(** Exhaustive depth-first maximization over all choice sequences of length
    [horizon].  Exact; exponential in the horizon.
    @raise Invalid_argument if [horizon] is negative. *)

val beam_max : ('s, 'c) system -> horizon:int -> width:int -> ('s, 'c) best
(** Keep the [width] best-scoring partial states per depth (scored with
    [score] on intermediate states).  A lower bound on the true optimum.

    Selection order: a depth's children are generated frontier entry by
    frontier entry, each in [choices] order; a dead end ([choices = []])
    carries its state over as its own child.  The survivors are the
    [width] first children under a stable sort by descending score with
    [Float.compare], so NaN ranks last and an equal score keeps
    generation order; they form the next frontier in that order.  The
    result is the first final survivor if its score is above
    [neg_infinity], else [{ state = initial; score = neg_infinity;
    trace = [] }].

    Cost: with [n] children in a depth, [n] calls each of [step] and
    [score], and O(n log width) comparisons of scores held unboxed.  Each
    child is offered to a bounded heap as it is generated, so a child
    that does not survive is garbage at once; the search holds at most
    2 [width] states.
    @raise Invalid_argument if [width < 1] or [horizon] is negative. *)

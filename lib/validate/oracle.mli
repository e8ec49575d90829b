(** Verdict records: one oracle's judgment on one scenario.

    Every oracle in [lib/validate] — analytic, conservation, equilibrium,
    metamorphic, fuzz — reports through this one record so CI failures
    are diagnosable from the verdict alone (which oracle, on which
    scenario, expected what, saw what, with what tolerance) without
    rerunning anything. *)

type verdict = {
  oracle : string;  (** oracle name, e.g. ["mm1-sojourn"] *)
  scenario : string;
      (** scenario identifier: a matrix scenario name or a fuzz digest *)
  expected : float;
  observed : float;
  tolerance : float;
      (** absolute half-width of the acceptance band; [ok] iff
          [|observed - expected| <= tolerance] at creation time *)
  ok : bool;
  detail : string;  (** free-form context: parameters, sample counts *)
}

val check :
  oracle:string -> scenario:string -> expected:float -> observed:float ->
  tolerance:float -> ?detail:string -> unit -> verdict
(** Judge [observed] against [expected ± tolerance].  NaN observed or
    expected never passes. *)

val exact :
  oracle:string -> scenario:string -> expected:float -> observed:float ->
  ?detail:string -> unit -> verdict
(** Zero-tolerance comparison ([expected = observed] bitwise, NaN fails)
    — for conservation identities and metamorphic transformations that
    must hold exactly. *)

val pass : oracle:string -> scenario:string -> ?detail:string -> unit -> verdict
val fail : oracle:string -> scenario:string -> ?detail:string -> unit -> verdict
(** Boolean oracles (determinism, zero-violation counts) expressed as
    1-vs-1 or 1-vs-0 verdicts. *)

val failures : verdict list -> verdict list
val to_string : verdict -> string
(** One line: PASS/FAIL, oracle, scenario, expected/observed/tolerance. *)

val to_json : verdict -> string
(** Self-contained JSON object (no trailing newline). *)

val list_to_json : verdict list -> string
(** JSON array of {!to_json} objects. *)

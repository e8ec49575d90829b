(** CSV export of the figure series, for external plotting. *)

val write_csv : path:string -> cols:string list -> float list list -> unit
(** Write a header row and one line per sample. *)

val series_to_rows : ?stride:int -> Sim.Series.t -> float list list
(** (time, value) rows, optionally keeping every [stride]-th sample. *)

val figures : dir:string -> quick:bool -> (string list, string) result
(** Regenerate every figure's data and write one CSV per series under
    [dir] (created if missing).  Returns the paths written, or the
    Theorem 1 construction's error when Figures 4-6 cannot be drawn
    (every other series is still written). *)

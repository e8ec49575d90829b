(** Terminal rendering of figure series.

    Good enough to eyeball the paper's figures without leaving the
    terminal: multiple series share one canvas, each drawn with its own
    marker, with min/max axis labels and a legend. *)

val render :
  ?width:int ->
  ?height:int ->
  ?title:string ->
  ?x_label:string ->
  ?y_label:string ->
  (string * (float * float) list) list ->
  string
(** [render series] plots every (name, points) list onto one canvas
    (default 72x20 characters).  Points are scaled to the joint data
    bounds; degenerate ranges (a single x or constant y) are padded.
    Returns the multi-line string; empty series lists yield a stub. *)

(** Paper-vs-measured reporting shared by [repro] and the benchmark
    harness. *)

type row = {
  id : string;  (** experiment id from DESIGN.md (E1, F7, ...) *)
  label : string;
  paper : string;  (** what the paper reports *)
  measured : string;
  ok : bool;  (** the qualitative shape holds *)
}

val row : id:string -> label:string -> paper:string -> measured:string -> ok:bool -> row

val print_rows : title:string -> row list -> unit
(** Render an aligned ASCII table on stdout. *)

val mbps : float -> string
(** Format bytes/s as "12.3 Mbit/s". *)

val msec : float -> string
(** Format seconds as "12.3 ms". *)

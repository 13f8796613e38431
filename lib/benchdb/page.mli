(** The self-contained HTML trend page (docs/BENCHDB.md): inline CSS
    and SVG sparklines, no scripts, rendered deterministically from the
    database so the golden-fixture test can compare bytes. *)

val render : ?generated:string -> (string * Db.run list) list -> string
(** [(experiment, runs oldest-first)] sections in the given order.
    [generated] is a caller-supplied stamp (omitted from tests to keep
    output deterministic). *)

val write :
  file:string -> ?generated:string -> (string * Db.run list) list -> unit

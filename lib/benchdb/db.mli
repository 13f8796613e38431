(** The append-only benchmark database (docs/BENCHDB.md): one JSONL
    file per experiment under [bench/db/], one line per run, newest
    last.  Rows carry the run's provenance + cost ["meta"] block and
    its point count — never the points — so history stays small and
    diffs reviewable. *)

type run = {
  exp : string;
  reference : bool;  (** the gate compares against the newest reference *)
  points : int;      (** length of the source report's points array *)
  meta : Etrace.Json.value;  (** the meta object, schema-checked *)
}

val validate_meta : Etrace.Json.value -> (unit, string) result
(** The meta schema every [BENCH_<exp>.json] must satisfy: the
    [Report.Meta] fields, present and correctly typed. *)

val of_bench_json :
  exp:string -> Etrace.Json.value -> (run, string) result
(** Fold a freshly written [BENCH_<exp>.json] into one DB row
    (validates the experiment tag and the meta schema). *)

val path : db_dir:string -> string -> string
(** [path ~db_dir exp] is [db_dir/exp.jsonl]. *)

val append : db_dir:string -> run -> unit
(** Append one row (a single JSON line), creating the directory and
    file on first use. *)

val load : db_dir:string -> string -> (run list, string) result
(** All rows, oldest first; [Ok []] when the file does not exist yet;
    [Error "file:line: ..."] on the first malformed row. *)

val latest : run list -> run option

val reference : run list -> run option
(** The newest row marked [reference], else the oldest row (the first
    append seeds the baseline), else [None] on an empty database. *)

val metric : run -> string -> float option
(** Numeric meta fields by name, plus the row-level point count under
    the pseudo-metric ["points"]. *)

val series : metric:string -> run list -> float option list
(** [metric] per run, oldest first. *)

val str_field : run -> string -> string option

val label : run -> string
(** ["<date> <commit>[+]"] — the run's provenance stamp ([+] marks a
    dirty work tree). *)

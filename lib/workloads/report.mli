(** Plain-text table formatting for the benchmark harness. *)

val table :
  title:string ->
  row_label:string ->
  columns:string list ->
  (string * string list) list ->
  string
(** [table ~title ~row_label ~columns rows] renders right-aligned
    columns; each row is (label, preformatted cells). *)

val ops : Sim.stats -> string
(** One-line [reads/writes/rmws] summary of a run's engine-level
    operation counters, e.g. ["1052r/312w/97rmw"]. *)

val latency_cell : Etrace.Histogram.summary -> string
(** ["p50/p90/p99"] of a latency distribution, e.g. ["41/96/204"]. *)

val float1 : float -> string
val float2 : float -> string
val percent : float -> string
val int_ : int -> string

(** {2 JSON emission}

    A minimal hand-rolled emitter (the image carries no JSON library)
    for the benchmark harness's [--json] output. *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** non-finite values render as [null] *)
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

val opt : ('a -> json) -> 'a option -> json
val write_json : file:string -> json -> unit
(** Writes [j] followed by a newline, overwriting [file]. *)

val mem_fields : Sim.stats -> (string * json) list
(** A run's engine-level counters as the JSON fields every simulated
    point carries: reads, writes, rmws, events, end clock, crashed
    processors, fault defers and queue-wait cycles. *)

(** {2 Trace-derived reporting} *)

val histogram_json : Etrace.Histogram.summary -> json

val attribution_table : title:string -> Etrace.Attribution.summary -> string
(** The flamegraph-style cycle-attribution table: one row per tree
    layer (plus the outside-the-tree pseudo-layer and a total row),
    one column per {!Etrace.Attribution.category}, cells as shares of
    total simulated cycles. *)

val attribution_json : Etrace.Attribution.summary -> json

(** {2 Meta: the per-run provenance + cost probe}

    Snapshots host cost ([Sys.time], [Gc.minor_words], [Gc.quick_stat])
    and the simulator's cumulative event/op odometer ({!Sim.totals})
    around a benchmark run, yielding the ["meta"] block every
    [BENCH_<exp>.json] carries and the ["# host ..."] stderr line — both
    rendered from the same record, so they can never disagree.  Minor
    words are exact: [Gc.minor_words] counts up to the call, where
    [Gc.quick_stat] stops at the last minor collection.  The
    deterministic columns (events, reads/writes/rmws, minor words per
    event) are the ones the perf-regression gate compares
    (docs/BENCHDB.md); wall-clock columns are recorded but advisory. *)

module Meta : sig
  type t = {
    experiment : string;
    seed : int;
    date : string;      (** UTC [YYYY-MM-DD]; ["unknown"] off-host *)
    commit : string;    (** short SHA; ["unknown"] outside a checkout *)
    dirty : bool;       (** tracked files modified at run time *)
    toolchain : string; (** e.g. ["ocaml-5.1.1/64-bit"] *)
    events : int;       (** simulated events fired during the run *)
    reads : int;
    writes : int;
    rmws : int;
    cpu_s : float;      (** host CPU seconds (advisory) *)
    minor_words : float;
    major_words : float;
    major_collections : int;
    events_per_sec : float;         (** derived; 0 when cpu_s = 0 *)
    minor_words_per_event : float;  (** derived; 0 when events = 0 *)
  }

  type probe

  val start : unit -> probe
  val stop : probe -> experiment:string -> seed:int -> t
  val json : t -> json
  val host_line : t -> string
end

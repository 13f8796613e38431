(** The perf-regression gate: ci_bench-style threshold comparison of a
    fresh run's meta block against the database's reference entry
    (docs/BENCHDB.md). *)

type tolerance = Tight | Loose

type direction =
  | Both      (** any movement past tolerance regresses (determinism) *)
  | Increase  (** only growth regresses (allocation) *)
  | Decrease  (** only shrinkage regresses (throughput) *)

type spec = { metric : string; tolerance : tolerance; direction : direction }

val default_specs : spec list
(** points / events / reads / writes / rmws at [Tight, Both],
    minor_words_per_event at [Tight, Increase], events_per_sec at
    [Loose, Decrease]. *)

val default_tight_pct : float
(** 5.0 — wide enough to absorb compiler-version allocation drift on
    the minor-words column; the pure counter columns are exact. *)

val default_loose_pct : float
(** 50.0 — events/sec varies with host load; only a halving fails. *)

type delta = {
  d_metric : string;
  d_tolerance : tolerance;
  d_direction : direction;
  d_reference : float;
  d_current : float;
  d_pct : float;  (** 100 * (current - reference) / reference *)
  d_regressed : bool;
}

type verdict =
  | Pass of delta list
  | Regression of delta list  (** every delta, regressed ones included *)
  | No_baseline

val delta_pct : reference:float -> current:float -> float

val check :
  ?specs:spec list ->
  ?tight_pct:float ->
  ?loose_pct:float ->
  reference:Db.run option ->
  current:Db.run ->
  unit ->
  verdict
(** Metrics missing on either side are skipped (the schema check on
    entry keeps the standard ones present). *)

val exit_code : verdict -> int
(** 0 pass / 1 regression / 3 no baseline, in the [etrees_run check]
    exit-code style. *)

val combined_exit_code : verdict list -> int
(** Worst verdict across experiments: 1 dominates 3 dominates 0. *)

val format : exp:string -> tight_pct:float -> loose_pct:float -> verdict -> string

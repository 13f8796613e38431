(** A1 — the adaptive crossover (docs/ADAPTIVE.md): produce-consume at
    a fixed processor count across think-time workloads, hand-tuned
    static spin schedules versus the reactive controller.  Emitted as
    BENCH_adapt.json by [bench/main.exe adapt] and shape-checked by
    test/test_bench_shapes.ml. *)

type point = {
  method_name : string;
  reactive : bool;
  workload : int;  (** think-time bound, cycles; load falls as it grows *)
  procs : int;
  throughput_per_m : int;
  latency : float;
  lat : Etrace.Histogram.summary;
  elim_rate : float option;
  final_adapt : (int * int list) list list option;
      (** reactive only: per-depth [(spin, widths)] after the run *)
}

type method_spec = {
  label : string;
  reactive : bool;
  make : procs:int -> int Pool_obj.pool;
}

val default_workloads : int list

val methods :
  ?width:int ->
  ?spin_bases:int list ->
  ?config:Adapt.config ->
  unit ->
  method_spec list
(** Static "Etree-w/s<base>" columns for each spin base plus one
    reactive "Etree-w/adapt" column. *)

val run_point :
  ?seed:int ->
  ?horizon:int ->
  procs:int ->
  workload:int ->
  method_spec ->
  point

val sweep :
  ?seed:int ->
  ?horizon:int ->
  ?workloads:int list ->
  procs:int ->
  method_spec list ->
  point list list
(** One inner list per method, across the workload axis. *)

(** {2 Shape predicates} (shared with the regression test) *)

val saturation_ok : ?tolerance_pct:int -> point list -> bool
(** At the smallest workload: reactive throughput within
    [tolerance_pct] (default 5) percent of the best static schedule.
    [false] when the reactive or static columns are missing. *)

val low_load_ok : point list -> bool
(** At the largest workload: reactive latency strictly below every
    static schedule's. *)

val shape_failures : point list -> string list
(** One message per shape predicate that fails; [[]] when both hold. *)

(** {2 Rendering} *)

val format_adapt : (int * int list) list list -> string
(** A reactive pool's per-depth [(spin, widths)], as
    ["64:[32;8] | 32:[16;4],32:[16;4] | ..."]. *)

val to_json : point -> Report.json
(** One BENCH_adapt.json point. *)

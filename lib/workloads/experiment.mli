(** The experiment table: one descriptor per experiment of the
    evaluation (Figures 7–10 and Table 1, plus the chaos, service,
    adapt, ablation and extra experiments), iterated by
    [bench/main.exe], [etrees_run perf], the [@perf] rule and the smoke
    test.  Adding an experiment is adding an entry to {!all}. *)

type scale = {
  horizon : int;  (** simulated cycles per run *)
  counts : int list;  (** processor-count axis *)
  rt_total : int;  (** elements handed off per Figure 10 response-time run *)
  sessions : int;  (** client sessions per service point *)
  adapt_workloads : int list;  (** A1's think-time axis *)
}

val quick : scale
(** CI scale: 50k cycles, 4–256 processors. *)

val default : scale
(** 200k cycles, 2–256 processors. *)

val full : scale
(** The paper's 10^6 cycles. *)

type trace = {
  level : Etrace.Level.t;  (** detail of the Chrome timeline *)
  out : string option;  (** where to write the timeline, if anywhere *)
}
(** A traced Figure 7 run (docs/TRACING.md). *)

type output = {
  text : string;  (** the experiment's tables, as printed *)
  points : Report.json list option;
      (** [Some] for experiments that write BENCH_<name>.json *)
  extra : (string * Report.json) list;
      (** more top-level report members (fig7's ["attribution"]) *)
  failures : string list;  (** verdicts that must fail the run *)
}

type t = {
  name : string;
  tracked : bool;  (** gated by [@perf] and [etrees_run perf] *)
  run : ?trace:trace -> scale -> output;
      (** Runs the experiment, announcing progress on stderr.  Only
          fig7 reads [trace]. *)
}

val all : t list
(** fig7 fig8 table1 fig9 fig10 chaos service adapt ablate extra, in
    run order. *)

val names : string list
val tracked : string list
(** The tracked experiments' names: fig7 chaos service adapt. *)

val progress : ('a, unit, string, unit) format4 -> 'a
(** A ["# ..."] line on stderr. *)

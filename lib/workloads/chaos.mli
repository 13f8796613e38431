(** The robustness sweep (etrees.faults): the §2.5.1 produce-consume
    workload run under a deterministic fault plan, with a value ledger
    feeding a post-run conservation audit and a termination-bound
    verdict.  Crashed and starved processors are data here, not bugs —
    the experiment quantifies how gracefully each method degrades as
    fault intensity rises. *)

type point = {
  method_name : string;
  procs : int;
  plan : string;            (** {!Faults.Fault_plan.describe}, stable *)
  ops : int;                (** ops completed inside the window *)
  started : int;            (** pool ops issued, completed or not *)
  throughput_per_m : int;   (** ops per 10^6 cycles *)
  latency : float;          (** average cycles per completed op *)
  elim_rate : float option; (** eliminated/entries, trees only *)
  starved : int;            (** dequeues that gave up empty-handed *)
  crashed : int;            (** crash-stopped processors *)
  stuck : int;              (** aborted (non-crashed) processors *)
  end_clock : int;
  races : int option;       (** [Some n] when run under the detector *)
  mem : Sim.stats;
  conservation : Analysis.Conservation.report;
  termination : Faults.Termination.verdict;
}

val default_methods : string list
(** ["etree"; "estack"; "mcs"; "ctree"; "dtree32"] — names in
    {!Methods.pool_registry}. *)

val run :
  ?seed:int ->
  ?horizon:int ->
  ?config:Sim.Memory.config ->
  ?grace:int ->
  ?workload:int ->
  ?races:bool ->
  plan:Faults.Fault_plan.t ->
  procs:int ->
  (procs:int -> int Pool_obj.pool) ->
  point
(** One method under one plan.  [grace] (default 25_000) bounds how
    long a dequeuer waits past [horizon] before counting as starved;
    [races:true] additionally runs the whole simulation under
    {!Analysis.Race_detector.run}.  Deterministic in every argument. *)

val sweep :
  ?seed:int ->
  ?fault_seed:int ->
  ?horizon:int ->
  ?config:Sim.Memory.config ->
  ?grace:int ->
  ?workload:int ->
  ?races:bool ->
  ?methods:string list ->
  procs:int ->
  unit ->
  (int * string * point list) list
(** The degradation ladder: every method of [methods] (names resolved
    via {!Methods.pool_method}) under each
    {!Faults.Fault_plan.ladder} level, as
    [(level, level_label, points)]. *)

val format_point : point -> string
(** Stable one-line rendering; the determinism regression test compares
    these byte-for-byte. *)

val format_ladder : (int * string * point list) list -> string
(** The {!sweep} result as text: per level a ["-- fault level N (label)
    --"] header, its plan and one {!format_point} line per method. *)

val to_json : level:int -> label:string -> point -> Report.json
(** One BENCH_chaos.json point at the given ladder level. *)

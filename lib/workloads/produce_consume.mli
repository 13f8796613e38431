(** The produce-consume benchmark of §2.5.1 (Figures 7 and 8): each
    processor alternately enqueues, dequeues, and thinks U[0, workload]
    cycles, for [horizon] simulated cycles. *)

type point = {
  procs : int;
  throughput_per_m : int; (** produce+consume ops per 10^6 cycles *)
  latency : float;        (** average cycles per operation *)
  lat : Etrace.Histogram.summary;
      (** per-operation latency distribution (p50/p90/p99) *)
  ops : int;              (** raw operations completed in the window *)
  elim_rate : float option;
      (** eliminated/entries over all tree levels; [None] for methods
          without per-level stats *)
  races : int option;
      (** number of races the dynamic race detector reported; [None]
          unless the run was made with [~races:true] *)
  mem : Sim.stats;        (** engine-level op counters of the run *)
}

val run :
  ?seed:int ->
  ?horizon:int ->
  ?config:Sim.Memory.config ->
  ?races:bool ->
  workload:int ->
  procs:int ->
  (procs:int -> int Pool_obj.pool) ->
  point
(** Raises [Failure] if any processor failed to terminate (which would
    indicate a broken pool, cf. P1/P2).  With [~races:true] the whole
    run executes under {!Analysis.Race_detector} and the point's
    [races] field carries the race count. *)

val to_json : method_name:string -> workload:int -> point -> Report.json
(** One BENCH_fig7/fig8.json point. *)

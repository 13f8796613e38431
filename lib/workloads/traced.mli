(** Running workloads under tracing sinks: cycle attribution, plus
    optional Chrome/Perfetto export (see docs/TRACING.md). *)

type 'a traced = {
  value : 'a;  (** the thunk's own result *)
  attribution : Etrace.Attribution.summary;
  chrome : Etrace.Chrome.t option;
      (** present iff [chrome_level] was given; render with
          {!Etrace.Chrome.write} or {!Etrace.Chrome.contents} *)
}

val run : ?chrome_level:Etrace.Level.t -> procs:int -> (unit -> 'a) -> 'a traced
(** [run ~procs f] executes [f] with tracing installed and folds its
    event stream into a cycle-attribution summary.  [procs] must cover
    every simulated processor id [f] can spawn.  The previous trace
    state is restored on exit (including on exceptions); the simulated
    results of [f] are identical to an untraced run. *)

type report = {
  text : string;  (** the attribution table and a blank line *)
  failures : string list;
      (** unbalanced attribution books; a written trace that fails
          validation *)
  validated : Etrace.Chrome.stats option;
      (** the written trace's counts, when it was validated *)
}

val report :
  name:string ->
  workload:int ->
  ?out:string ->
  ?validate:bool ->
  'a traced ->
  report
(** The traced produce-consume report of a run of method [name] at
    [workload]: the cycle-attribution table and its books check, plus
    the Chrome timeline written to [out] (when the run carried one) and
    read back through {!Etrace.Chrome.validate_file} unless
    [validate] is [false]. *)

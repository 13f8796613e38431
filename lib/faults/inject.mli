(** Running simulations under a fault plan. *)

val run :
  ?seed:int ->
  ?config:Sim.Memory.config ->
  ?abort_after:int ->
  plan:Fault_plan.t ->
  procs:int ->
  (int -> unit) ->
  Sim.stats
(** [run ~plan ~procs body] is [Sim.run] with [plan] compiled and
    installed as the scheduler's fault injector.  The run leaves the
    injector once the plan has gone quiet
    ({!Sim.Scheduler.injector}), so {!Fault_plan.none}, quiet from cycle
    0, runs as the plain simulator does.  Deterministic in
    [(seed, config, plan)].  Crash-stopped processors are reported in
    [stats.crashed_procs]; they are {e not} counted as aborted. *)

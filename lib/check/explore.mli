(** Stateless exhaustive-interleaving explorer over the simulator's
    controlled scheduler, with sleep-set dynamic partial-order
    reduction (Flanagan–Godefroid), spin-loop deadlock detection, and
    replayable, minimizable counterexample schedules. *)

type instance = {
  body : int -> unit;  (** per-processor program *)
  at_quiescence : unit -> Monitor.verdict list;
      (** monitors over the final state of a completed execution *)
}

type program = { name : string; procs : int; prepare : unit -> instance }
(** [prepare] must build a fresh structure (and ledger) per execution:
    the explorer replays the program from scratch for every explored
    interleaving.  It and [body] must be deterministic functions of the
    schedule, down to the order in which they allocate locations. *)

type status =
  | Complete
  | Deadlocked of (int * int) list
      (** every unfinished processor spin-blocked: (pid, location id) *)
  | Sleep_blocked  (** pruned by the sleep set: a redundant execution *)
  | Step_budget  (** per-run step cap hit (unbounded spinning) *)

type run = {
  schedule : int array;
      (** committed accesses, as chosen pids in order.  Only the runs a
          caller sees carry one: {!explore} builds it for its
          counterexample alone, not for every execution, and {!replay}
          for its result. *)
  status : status;
  violations : Monitor.violation list;
      (** deadlock / crash / failed quiescent monitors *)
}

type outcome = {
  runs : int;  (** executions performed (sleep-blocked ones included) *)
  complete : int;
  deadlocks : int;
  sleep_blocked : int;
  budget_hits : int;
  max_depth : int;
      (** most accesses committed by one execution: the length its
          schedule would have *)
  capped : bool;  (** stopped at [max_interleavings] before exhausting *)
  counterexample : (Monitor.violation * run) option;  (** first found *)
}

exception Replay_diverged of string
(** Raised by {!explore} when a replayed step's pending access is not
    the one logged for it by the execution that decided the step: the
    program is not a deterministic function of its schedule (counting
    location ids from the allocation watermark before [prepare]).  The
    message names the program, the step and its pid. *)

val explore :
  ?dpor:bool ->
  ?max_interleavings:int ->
  ?max_steps:int ->
  ?spin_threshold:int ->
  ?seed:int ->
  ?stop_on_violation:bool ->
  program ->
  outcome
(** Systematically execute every (sleep-set-irredundant, when [dpor];
    all, otherwise) interleaving of the program's shared-memory
    accesses, up to [max_interleavings] executions of [max_steps]
    accesses each.  Defaults: DPOR on, 100k executions, 20k steps,
    spin threshold 3, stop at the first violation. *)

val replay : ?seed:int -> ?spin_threshold:int -> ?max_steps:int ->
  program -> int array -> run
(** Re-execute one schedule.  Tolerant: if the forced pid is not
    enabled at some step the smallest enabled one is substituted; the
    returned [run.schedule] is what actually executed. *)

val minimize : ?seed:int -> ?spin_threshold:int -> ?max_steps:int ->
  program -> Monitor.violation -> int array -> int array
(** Greedily coalesce a violating schedule's context switches by
    adjacent transposition, keeping only candidates whose replay still
    violates the same property. *)

val switches : int array -> int
(** Context switches in a schedule. *)

val format_schedule : int array -> string
(** Run-length rendering, e.g. ["0x5,1x3"]. *)

val parse_schedule : string -> int array
(** Inverse of {!format_schedule}; also accepts bare pids ["0,1,0"].
    Raises [Invalid_argument]/[Failure] on malformed input. *)

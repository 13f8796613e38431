(** A deterministic discrete-event shared-memory multiprocessor simulator.

    This is the repository's stand-in for the Proteus simulator running a
    256-node Alewife-like machine, on which the paper's experiments were
    performed.  Like Proteus, it is not cycle-accurate hardware
    simulation: local computation is charged to the local clock in bulk,
    and only globally visible operations are ordered by timestamps.
    Contention is modeled by serializing writes and read-modify-writes
    per memory location (see {!Memory}), which reproduces the hot-spot
    behaviour the paper's constructions are designed around.

    Usage:
    {[
      let stats =
        Sim.run ~procs:256 ~seed:1 (fun pid ->
            (* runs as simulated processor [pid]; use Sim.Engine ops *)
            ...)
    ]}

    Processor bodies use {!Engine}, the simulator's implementation of
    [Engine.S]; data structures functorized over [Engine.S] are
    instantiated with it to run under simulation. *)

module Memory = Memory
module Event_heap = Event_heap
module Event_wheel = Event_wheel
module Scheduler = Scheduler

module Engine : Engine.S with type 'a cell = 'a Memory.cell = Engine_impl
(** The simulated shared-memory engine.  Its operations may only be
    called from inside a processor body passed to {!run}. *)

type stats = Scheduler.stats = {
  end_clock : int;       (** simulated cycle at which the run ended *)
  events_fired : int;    (** total discrete events processed *)
  aborted_procs : int;   (** processors cut off by [abort_after] *)
  crashed_procs : int;   (** crash-stopped by a fault injector *)
  fault_defers : int;    (** events postponed by injected stalls *)
  reads : int;           (** atomic reads issued *)
  writes : int;          (** atomic writes issued *)
  rmws : int;            (** swaps / CASes / fetch&adds issued *)
  queue_wait_cycles : int;
      (** cycles serialized ops spent queueing behind busy locations *)
}

type totals = Scheduler.totals = {
  t_events : int;  (** events fired, summed over completed runs *)
  t_reads : int;
  t_writes : int;
  t_rmws : int;
}

let totals = Scheduler.totals
(** Process-cumulative {!stats} counters over every completed {!run} —
    the deterministic odometer benchmark meta probes snapshot around
    each experiment (docs/BENCHDB.md). *)

exception Aborted = Scheduler.Aborted

let run = Scheduler.run
(** [run ?seed ?config ?abort_after ?injector ~procs body] simulates
    [procs] processors each executing [body pid] from cycle 0, and
    returns aggregate statistics.  The simulation is a deterministic
    function of [seed] and [config] — and of the [injector]'s plan, when
    one is installed (see [Faults.Fault_plan]).  If [abort_after] is
    given, processors still running past that cycle are unwound with
    {!Aborted} (their effects already applied to shared memory remain
    applied; in-flight operations are dropped).

    Once every live processor waits in [Engine.spin_until] on a
    predicate that fails on its cell's current value, no wait can end.
    A run with no injector left detects this.  With [abort_after] it
    skips ahead to the horizon, unless reads serialize, and reports
    what stepping would have (the stats, the race detector's reads, the
    unwinding order).  Without it, [run] raises [Failure] naming the
    cycle, and so does a run that keeps an injector to the end; with
    [abort_after], such a run steps to the horizon (Scheduler.run). *)

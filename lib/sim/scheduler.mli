(** The discrete-event scheduler at the heart of the simulator.

    Each simulated processor is an effect-handler coroutine; a
    shared-memory effect parks the processor until the operation's
    completion time (queueing behind earlier operations on the same
    location, see {!Memory}), and the main loop fires events in
    (time, seq) order — making runs deterministic functions of the
    seed.  An operation's side effect runs when its event fires, so
    operations linearize in completion-time order.

    A processor has at most one pending event.  Its parked operation
    sits in a per-pid {!slot}, and the queue ({!Event_wheel}) holds the
    pid under its (time, seq) key: a timing wheel of 1,024 one-cycle
    buckets, each a FIFO of pids, with an {!Event_heap} as the overflow
    tier for events due further ahead.  Every {!park} takes a fresh
    seq, so a bucket's FIFO order is its seq order; overflow events
    move into their bucket, in heap order, as soon as the wheel's
    window reaches them and before anything fires there, so they
    precede every later park at their time.  The step loop takes each
    event off the queue with one {!Event_wheel.pop_due}, and the fired
    processor's next {!park} appends.

    A spin-wait is one {!Spin} effect: its slot stays parked for the
    whole wait while the scheduler alternates the read and the
    [Delay 1] itself, each step re-entering the queue under a fresh seq
    with the events, seqs, counters and tracer calls of the hand-written
    [get]/[cpu_relax] loop.  The processor resumes only on a read that
    satisfies the predicate, and its slot is cleared then.  In a run
    with no controller and non-serialized reads, from the start with no
    injector or once the run has left its injector (see {!injector}),
    the spin steps due in one cycle in one phase under consecutive seqs
    are one queue entry, a spin group, and fire back to back; the
    events, seqs, counters and hook calls are still those of firing
    each step alone (the argument is in scheduler.ml).  A run in which
    no wait can end fast-forwards or fails (see {!run}).

    This module is the simulator's engine room; user code should go
    through [Sim.run] and [Sim.Engine]. *)

exception Aborted
(** Raised inside a simulated processor cut off by [abort_after]. *)

(** One effect per engine operation.  Writes and RMWs queue behind
    their location's [busy_until]; reads do only under the config's
    [reads_serialize].  The operation's memory semantics apply when its
    event fires. *)
type _ Effect.t +=
  | Get : 'a Memory.cell -> 'a Effect.t
  | Set : 'a Memory.cell * 'a -> unit Effect.t
  | Exchange : 'a Memory.cell * 'a -> 'a Effect.t
  | Cas : 'a Memory.cell * 'a * 'a -> bool Effect.t
      (** compare-and-set, by physical equality *)
  | Faa : int Memory.cell * int -> int Effect.t
  | Delay : int -> unit Effect.t  (** local computation / spin-waiting *)
  | Spin : {
      cell : 'a Memory.cell;
      until : 'a -> bool;
      mutable pausing : bool;
          (** set by the scheduler while the slot is in its [Delay 1];
              a wait starts with it clear *)
    }
      -> 'a Effect.t
      (** [spin_until]: one effect per wait.  Its slot alternates a read
          of the cell, charged as a [Get], and a [Delay 1] issued when a
          read fails the predicate; the processor resumes with the first
          value that satisfies it.  The predicate runs in the scheduler,
          outside any processor. *)

(** A processor's pending event. *)
type slot =
  | Idle  (** none: the processor is running, finished or crashed *)
  | Start  (** the processor has not started yet *)
  | Parked : ('a, unit) Effect.Deep.continuation * 'a Effect.t -> slot
      (** parked on an effect; resumed with its result when it fires *)

(** {1 Controlled scheduling (etrees.check)}

    A {!controller} takes over every scheduling decision, turning the
    simulator into the substrate for a stateless model checker: each
    processor's pending event stays in its slot instead of the event
    queue, local steps (proc starts, delays, a spinner's pauses) fire
    eagerly in pid order, and whenever every live processor is parked
    on a shared-memory access the controller picks which one commits
    next.  Each decision commits exactly one access, so the chosen pid
    sequence fully determines the interleaving — runs are replayable
    from the pid sequence alone.  When nothing else is pending, the
    processor that has just issued a step finishes it without parking
    ({!ctl_perform}); the run is the same. *)

type access_kind = Acc_read | Acc_write | Acc_rmw

type choice =
  | Fire of int  (** commit this processor's pending access *)
  | Quit         (** stop: unwind every parked processor with {!Aborted} *)

(** {1 Fault injection (etrees.faults)}

    An {!injector} is the scheduler-side surface of a fault plan (see
    [Faults.Fault_plan]).  All three hooks must be pure functions of
    their arguments so that a run under an injector remains a
    deterministic function of [(seed, plan)].

    A run leaves its injector once the injector has gone quiet: from
    the first event at or after [quiet_from], and after each later
    crash, it checks that every processor with a pending event proceeds
    at [quiet_from].  Once that holds, it leaves at the first event due
    after [quiet_from] and after every spin step pending then: [injector]
    becomes [None], and the run goes on in the spin-group loop.  Nothing
    a run reports changes (the argument is in scheduler.ml). *)

type fault_action =
  | Fault_proceed            (** no fault: fire the event now *)
  | Fault_defer of int       (** processor stalled: refire at this time *)
  | Fault_drop               (** crash-stop: the event (and with it the
                                 processor) is silently discarded *)

type injector = {
  on_event : pid:int -> time:int -> fault_action;
      (** consulted every time one of [pid]'s events is about to fire *)
  mem_latency : loc:Memory.loc -> pid:int -> now:int -> base:int -> int;
      (** the service cost of an access of base cost [base] issued at
          [now] (hot spots, latency spikes); a result below 1 is
          clamped to 1 *)
  delay_jitter : pid:int -> now:int -> base:int -> int;
      (** extra cycles added to a [Delay base] issued at [now] *)
  quiet_from : int;
      (** the cycle from which the hooks no longer depend on time.  For
          every [time >= quiet_from]:
          - [on_event ~pid ~time] is [on_event ~pid ~time:quiet_from],
            and never [Fault_defer];
          - [mem_latency] returns [base];
          - [delay_jitter] returns 0.

          A [Fault_defer until] returned before it has
          [until <= quiet_from].  [max_int] promises nothing: the run
          keeps the injector to its end. *)
}

val no_injector : injector
(** The identity injector: proceeds, never scales, never jitters.  Its
    [quiet_from] is [max_int], so an injector built from it with
    [{ no_injector with on_event }] keeps its hook for the whole run. *)

type controller = t -> int -> choice
(** [choose t runnable] is called with the running scheduler and the
    runnable processors as a bitmask (bit [p] set iff processor [p] has
    a pending shared-memory access), never [0]; {!pending_loc} and
    {!pending_kind} read each one's access.  It is called once every
    other live processor is parked on an access: from the step loop, or
    from inside the processor that has just issued its access, which
    then counts as runnable and goes on at once if the controller fires
    it ({!ctl_perform}).  Either way the call sees the same state and
    its answer has the same effect.  It must be a pure host-level
    function and may not perform engine effects.  It may raise: the
    exception leaves {!run} from the step loop, after the calling
    processor has parked, so no processor code sees it, and the
    controller is not called again.  The bitmask limits controlled runs
    to 62 processors. *)

and t = {
  nprocs : int;
  config : Memory.config;
  body : int -> unit;
  queue : Event_wheel.t;
      (** pids by (time, seq); controlled runs share {!Event_wheel.none} *)
  rngs : Engine.Splitmix.t array;
  mutable injector : injector option;
      (** the run's injector, [None] from the start without one or once
          the run has left it *)
  controller : controller option;
  slots : slot array;  (** per-pid pending event *)
  issued : int array;  (** per-pid: when the parked operation was issued *)
  begins : int array;  (** per-pid: when its service began *)
  finish : int array;  (** per-pid: when it completes (a delay: as planned) *)
  seqs : int array;  (** per-pid: its seq, the commit's epoch stamp *)
  pending : int array;
      (** controller mode only: per-pid time the parked event is due *)
  mutable clock : int;
  mutable seq : int;
  mutable live : int;
  mutable current : int; (** pid of the processor now executing *)
  mutable events_fired : int;
  mutable aborted : int;
  mutable crashed : int;      (** processors crash-stopped by the injector *)
  mutable fault_defers : int; (** events postponed by stalls *)
  mutable op_reads : int;  (** engine-level operation counters *)
  mutable op_writes : int;
  mutable op_rmws : int;
  mutable queue_wait : int;
      (** cycles serialized operations spent queueing behind busy
          locations — the simulator's aggregate hot-spot cost *)
  mutable locals : int;
      (** controller mode only: the pids with a pending local step (a
          start, a delay or a spinner's pause), as a bitmask *)
  mutable accesses : int;
      (** controller mode only: the pids with a pending access, parked
          or decided in place, as a bitmask *)
  mutable decide_until : int;
      (** controller mode only: the horizon, the latest due time a step
          may fire at or be decided at; [-1] once the loop unwinds *)
  mutable in_loc : Memory.loc;
      (** controller mode only: the access of the processor deciding in
          place *)
  mutable in_kind : access_kind;
  mutable held : choice;
      (** controller mode only: an answer made in place for the loop to
          act on next *)
  mutable raised : exn option;
      (** controller mode only: the exception a controller raised in
          place, for the loop to raise *)
}

type stats = {
  end_clock : int;
  events_fired : int;
  aborted_procs : int;
  crashed_procs : int;  (** crash-stopped by the fault injector *)
  fault_defers : int;   (** events postponed by injected stalls *)
  reads : int;   (** atomic reads issued *)
  writes : int;  (** atomic writes issued *)
  rmws : int;    (** swaps / CASes / fetch&adds issued *)
  queue_wait_cycles : int;
      (** total cycles serialized operations queued behind busy
          locations *)
}

val active : t option ref
(** The running scheduler, [None] outside a run.  Only {!run} sets it
    (and gives the enclosing run's back); the engine reads it on every
    operation. *)

val the_sched : unit -> t
(** The running scheduler; raises [Failure] outside a run. *)

val pending_loc : t -> int -> Memory.loc
(** The location processor [p]'s parked access will commit to.  Its
    epoch stamps (see {!Memory.loc}) let a controller detect
    unchanged-location polling.  A spinning processor is parked on an
    access, a read of its cell, only between pauses.  Raises
    [Invalid_argument] if [p] is not parked on an access. *)

val pending_kind : t -> int -> access_kind
(** The kind of processor [p]'s parked access; raises like
    {!pending_loc}. *)

val pending_access : t -> int -> access_kind array -> Memory.loc
(** [pending_access t p kinds] is [pending_loc t p], with
    [pending_kind t p] stored in [kinds.(p)]: both read in one match on
    [p]'s slot, for a controller that reads every runnable pid's access
    at each decision.  Raises like {!pending_loc}. *)

val ctl_perform : t -> 'a Effect.t -> 'a
(** [ctl_perform t eff]: under a controller, the running processor
    performs [eff], an access or a [Delay] ([Engine_impl] calls it in
    place of [Effect.perform]; a [Spin] is performed as always).  It is
    charged as the step loop charges it, then, when no other processor
    has a local step pending and the step is due by
    [t.decide_until], finished here: a delay fires at once, and for an
    access the controller is asked now, and [Fire] of this processor
    commits it.  Otherwise, or on any other answer, which the step loop
    then acts on without asking again, the processor parks. *)

val in_place_decisions : unit -> int
(** The controller calls {!ctl_perform} made from inside a running
    processor, summed over this process's runs.  Tests and probes read
    it around a run. *)

val park : t -> int -> int -> slot -> unit
(** [park t p time op] makes [op] processor [p]'s pending event, due at
    [time].  Raises [Invalid_argument] if [p] already has one, as a
    spinning processor does for its whole wait. *)

type totals = { t_events : int; t_reads : int; t_writes : int; t_rmws : int }
(** Process-cumulative counters summed over every completed {!run} in
    this process — the deterministic odometer the benchmark meta probe
    snapshots around each experiment (docs/BENCHDB.md).  Runs that end
    abnormally (an escaping exception) are not counted. *)

val totals : unit -> totals

val skipped_events : unit -> int
(** The events that dead-spin fast-forwards skipped, summed over this
    process's runs: counted in each run's [events_fired], never
    stepped.  Tests and probes read it around a run to see whether the
    run fast-forwarded (see {!run}). *)

val run :
  ?seed:int ->
  ?config:Memory.config ->
  ?abort_after:int ->
  ?injector:injector ->
  ?controller:controller ->
  procs:int ->
  (int -> unit) ->
  stats
(** See [Sim.run].  [controller] and [injector] are mutually
    exclusive, and a [controller] accepts at most 62 processors;
    either misuse raises [Invalid_argument].

    Dead spins.  In a run with no controller, from the start with no
    injector or once the run has left it, the scheduler checks, once a
    processor has started a wait or finished, whether every live
    processor waits in a [Spin] whose predicate fails on its cell's
    current value.  Then no processor can run again.  With an
    [abort_after], the run skips all but the last whole spin period
    before it: [events_fired] and [reads] count the skipped steps, an
    installed {!Memory.tracer} gets the skipped reads in one
    [on_reads] call, which expands to the [on_read] calls stepping
    gives, and the last period and the unwinding are stepped.  It keeps stepping with serialized
    reads, with full-level tracing on, or when a read's latency is
    1,024 cycles or more.  With no [abort_after] the run raises
    [Failure], naming the cycle from which no wait could end.  A run
    that keeps its injector to the end makes the check only with no
    [abort_after], and then fails the same way; with one, it steps to
    the horizon. *)

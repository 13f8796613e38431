(* The discrete-event scheduler at the heart of the simulator.

   Each simulated processor is an OCaml 5 effect-handler coroutine.  A
   processor runs its OCaml code instantaneously (local computation is
   charged explicitly through [Delay]) until it performs a shared-memory
   effect; the handler then computes the operation's completion time —
   including any queueing behind earlier operations on the same location
   — and parks the processor until then.  The main loop fires events in
   (time, seq) order, so the whole machine is a deterministic function
   of the seed.

   A processor has at most one pending event, so an event is not an
   object: the parked operation (the continuation and the effect it
   performed) sits in the processor's slot, its trace-only timestamps in
   per-pid int arrays, and the queue ({!Event_wheel}) holds the pid
   under its (time, seq) key.  The queue is a timing wheel of one-cycle
   buckets with a binary heap as its overflow tier for events due 1,024
   or more cycles ahead, so parking and firing cost O(1) whatever the
   number of processors.  Every event queued takes a fresh seq, which
   is what lets the wheel's FIFO buckets keep exact (time, seq) order;
   see event_wheel.ml for the argument.  The step loop takes each event
   off the queue with one [Event_wheel.pop_due], which also tells it
   when the next event is past the horizon, and the fired processor's
   next [park] appends a new one.

   A spin-wait ([Engine.S.spin_until], the [Spin] effect) is one parked
   slot for the whole wait, cleared only when its processor resumes.
   The scheduler runs the loop itself: when a read fails the predicate
   it marks the effect [pausing] and queues the slot again for the
   [cpu_relax], and when that ends, for the next read, each time
   through [enqueue], the half of [park] that leaves the slot alone.
   Each step issues, charges, traces and takes its seq exactly as the
   resumed processor's [get] or [cpu_relax] would have, so a run is
   event-for-event the hand-written loop.  What changes is host cost:
   the processor resumes, and its effect is allocated, once per wait
   instead of twice per iteration.

   Spin groups.  Waiters in step with one another make most of the
   events of a polling workload, and they fire together.  The step loop
   of a run with no controller and no injector ([group_loop]) fires
   each event alone ([fire_at]), except the spin steps of a run whose
   reads do not serialize: each costs the same, a read [read_latency]
   and a pause 1.  The loop keeps each run of such steps in one phase,
   due in one cycle under consecutive seqs, as one queue entry: a group,
   whose leader's pid stands for its [k] members in seq order.  Firing
   the entry fires the members back to back, takes on any spin entry in
   the same phase right behind it in its bucket, and queues the members'
   next steps as one entry again.  A read that satisfies its predicate
   splits the group: the failed members before it are queued, then its
   processor resumes, and the members after it go on.  Every event, seq,
   counter and value is what firing each step alone produces:
   - Within a bucket, FIFO order is seq order (event_wheel.ml).  A
     group queued at seq [s] takes [s .. s + k - 1], and [t.seq]
     advances by [k], so no other entry can sit between its members,
     and firing them back to back is the order the loop would fire
     them in.
   - A failed spin step runs no processor code, so the loop would queue
     the next steps of consecutive failing members consecutively: they
     again hold consecutive seqs.
   - The same-phase spin entry at the head of the bucket right after a
     group is the next event the loop fires, so it may join the group.
   - A read that succeeds first queues the failed members ahead of it,
     so every entry its processor queues takes the loop's seq, and the
     epoch stamps and race reports, which carry seqs, do not change.
   - [events_fired] counts every member's step, and [op_reads] every
     member's re-issued read.
   Two hooks can be switched on or off inside a run: full-level tracing
   and the race detector's [Memory.tracer].  A group serves them member
   by member, with one [Mem_op] or [Delay_done] and one [on_read] per
   member, as [commit] would.  A member's [issued], [begins], [finish]
   and [seqs] entries are not kept: the first three are read only by
   those hooks, and [seqs] only when a write commits.  So a hooked group
   step writes what the loop would have, a read issued at
   [time - read_latency] and a pause at [time - 1].  With no hook on, a
   group's pauses end with its member list as it is, and only their
   count is added.  At the horizon, [Event_wheel.drain] hands a group's
   members to [abort] one by one, in seq order.  Inside an injector's
   fault window each member would get its own verdict, latency and
   jitter, so a run forms no group until it has left its injector.

   Leaving an injector.  From its [quiet_from] cycle on, an injector's
   hooks no longer depend on time (scheduler.mli), so a run can leave
   it once its plan has gone quiet.  At the first event at or after
   [quiet_from], and again at the first event after each later crash,
   [inject_loop] checks that every processor with a pending event
   proceeds at [quiet_from]; a processor whose planned crash has not
   fired yet fails the check until it is dropped.  Once the check
   holds, the run leaves at the first event due after [quiet_from] and
   after every spin step pending then ([t.finish]): [t.injector]
   becomes [None], and the run goes on in [group_loop].  The run is
   exactly the one that never leaves:
   - From the check on, the hooks are the identity for every live
     processor: each verdict is its verdict at [quiet_from], [Proceed],
     and latencies and delays issued at or after [quiet_from] cost
     their base.  So the injector loop fires, charges and counts
     exactly as [fire_at] with no hook would, and leaving changes
     nothing there.
   - [group_loop] fires as [fire_at] would, by the spin-group argument
     above.  Its cost assumptions hold for every spin step issued at or
     after [quiet_from]; the steps pending at the check may have been
     costed by the injector, with a hot spot's latency or a jittered
     pause, and a hooked group step would re-derive their issue times
     from the base cost.  They all fire before the run leaves, and
     every step pending when it leaves was issued after the check.  A
     deferral ends by [quiet_from], so no deferred step is left either.
   - Entries queued before leaving keep their keys.  They are
     single-member entries, and they fire in key order.

   Dead spins.  A run in [group_loop] is dead when every live processor
   is parked in a [Spin] whose predicate fails on its cell's current
   value.  Predicates are pure functions of the value (the [Engine.S]
   contract), and a failed spin step runs no processor code and writes
   nothing, so no predicate can start to hold: no processor code runs
   again before the horizon.  Where reads do not serialize, each of the
   [n] waiters fires one read and one pause every [P = read_latency + 1]
   cycles, and the queue repeats every period.  Write [L] for
   [read_latency]:
   - Take the dead state at a bucket boundary [T]: every event due
     before [T] has fired and none due later.  A pending read was
     issued before [T] and is due at [T] or later, so it is due in
     [T, T+L-1]; a pending pause is due at [T].
   - Within a bucket, FIFO order is queueing order.  Every read is
     queued [L] cycles before it is due, by the pause before it, and
     every pause 1 cycle before, by the read before it; the same in
     every period.
   - So over [T, T+P-1] each waiter fires its pending step and the one
     after, and its step [P] later is queued in place of the pending
     one: a read due at [r] by the pause at [r+1], a pause due at [T]
     by the read at [T+L].  Two entries due together are replaced by
     two due together.  If they are of one kind, their successors'
     queuers are queued in the order the two fired, and so fire and
     queue in that order.  If one is a read and one a pause, both due
     at [T], the read was queued first (at [T-L] against [T-1]), and so
     is its successor (at [T+1] against [T+L]); with [L = 1] both pairs
     are queued in firing order.  The queue at [T+P] is therefore the
     queue at [T] with every key [P] later, in the same order, and by
     induction the same holds [k] periods on.  Whether neighbouring
     steps share a group entry changes nothing that fires (the
     spin-group argument above).
   [fast_forward] therefore moves every entry [k·P] later by rotating
   the wheel's buckets ([Event_wheel.shift]), keeping their order and
   chains, and adds what the skipped periods count: [2·k·n] events,
   [k·n] reads and [2·k·n] seqs.  It keeps the last whole period before
   the horizon and what follows it to step, so [end_clock] and the
   unwinding order come from the loop itself.  Every waiter fires a
   read in that period, so the per-pid [issued], [begins] and [finish]
   entries a hooked read writes are rewritten as the loop leaves them.
   Hooks see what they saw.  With full-level tracing on, the run steps.
   With a [Memory.tracer] installed, one period is stepped through a
   recorder that forwards the tracer's reads and keeps their arguments.
   The tracer then gets those reads, [P] and [k] in one count-only
   call, [on_reads].  In the [j]-th skipped period the loop would make
   each recorded read again, in the same order, with its [issued] and
   [fired] [j·P] later and every other argument the same: the queue
   repeats every period, and a failed read runs no processor code.  So
   the call, expanded so, is exactly the loop's reads.  Nothing commits
   or issues while they are skipped, so values, shadows and service
   windows stay what they are at the call, and a tracer can answer for
   all [k] periods at once: the race detector does in O(reads per
   period) (race_detector.ml).
   The check is cheap.  The loop's state counts the live processors
   parked in a [Spin]: [issue] adds one when a processor starts a wait,
   and [end_wait] takes one off when a wait ends.  Every live processor
   can come to wait only when one starts a wait or stops, so only those
   arm the check, and only when the count then equals [t.live]; any
   other step pays one test of the flag.  At the next bucket boundary,
   if the count still equals [t.live], the check evaluates each
   waiter's predicate once; it checks again only once re-armed.
   Three cases step on: serialized reads, an entry in the wheel's
   overflow tier (a read latency of 1,024 cycles or more), which the
   rotation cannot move, and a horizon fewer than two whole periods
   away (three with a tracer).  A dead run with no horizon would spin
   forever, so it fails instead, naming the cycle.  A run that keeps
   its injector to the end cannot skip ahead, since every step is put
   to the injector, but with no horizon [inject_loop] makes the same
   check, on its own count of waiters, and fails the same way: an
   injector only delays or drops processors, and neither can make a
   predicate hold.

   Deciding in place.  Under a controller ([ctl_loop]), most decisions
   pick the processor that just ran, and parking it with an effect only
   to resume it costs a [perform] and a [continue] each time.  So the
   running processor finishes its step itself ([ctl_perform], which
   [Engine_impl] calls in place of [Effect.perform]) when three things
   hold: no other processor has a local step pending ([t.locals] is 0),
   the step is due by the horizon, and the loop is not unwinding
   ([t.decide_until] is -1 once it is, after [Quit] or an overrun,
   since unwinding code performs accesses of its own).  The step is
   charged first, exactly as [issue] would charge it.  A delay then
   fires at once; an access becomes the processor's pending access, and
   the controller is asked now with the runnable set the loop would
   pass.  On [Fire p] the access commits here, through [apply], as
   [commit] would; on any other answer the processor parks under the
   key it already holds, and the loop acts on the held answer without
   asking again.  This is exactly the loop's run:
   - With no other local step pending, the loop's next action after
     the processor parked would be this step: a delay is the only
     local step [settle] would fire, in a pass of its own, and for an
     access [settle] fires nothing and the loop calls the controller,
     with the same clock, memory, runnable set and pending accesses.
   - Firing a delay in place does what [fire_pending] and [commit] do:
     the clock moves to its due time, [events_fired] counts it, and at
     full level it emits [Delay_done].  [Fire p] in place does what
     [fire_pending] followed by [commit] would do on the same access.
   - Firing a step changes no other processor's slot, so when the
     processor goes on, the condition is checked afresh at its next
     step, as the loop would decide afresh.
   - An exception the controller raises in place is held until the
     processor has parked and raised by the loop ([answer]), so no
     processor code sees it, as when the loop calls the controller.
     A [Fire q] for a q that is not runnable is held and rejected by
     the loop in the same way.
   The loop's slot scans are bitmasks: [t.locals] and [t.accesses]
   hold the pids with a pending local step and with a pending access,
   set wherever a controlled slot is queued and cleared wherever one
   fires or unwinds.  [settle] fires the local steps of a snapshot of
   [t.locals] in pid order, pass after pass: firing one processor's
   step changes no other processor's slot, so the snapshot is what the
   slot-by-slot pass would see.

   An operation's side effect executes when its event fires ([commit]),
   not when it is issued: operations therefore linearize in
   completion-time order, and per-location serialization (see {!Memory})
   guarantees that two operations on one location never reorder. *)

open Effect.Deep

exception Aborted
(* Raised inside a simulated processor when the run hits [abort_after]. *)

type _ Effect.t +=
  | Get : 'a Memory.cell -> 'a Effect.t
  | Set : 'a Memory.cell * 'a -> unit Effect.t
  | Exchange : 'a Memory.cell * 'a -> 'a Effect.t
  | Cas : 'a Memory.cell * 'a * 'a -> bool Effect.t
  | Faa : int Memory.cell * int -> int Effect.t
  | Delay : int -> unit Effect.t  (* local computation / spin-waiting *)
  | Spin : {
      cell : 'a Memory.cell;
      until : 'a -> bool;
      mutable pausing : bool;  (* in the Delay 1 after a failed read *)
    }
      -> 'a Effect.t
      (* spin_until, one per wait: reads until [until] holds, a Delay 1
         between *)

type slot =
  | Idle  (* no pending event: running, finished or crashed *)
  | Start  (* not started yet *)
  | Parked : ('a, unit) continuation * 'a Effect.t -> slot

(* Controlled scheduling (etrees.check).  A controller takes over every
   scheduling decision: instead of firing events in (time, seq) order,
   local steps (proc starts, delays, a spinner's pauses) are fired
   eagerly, and whenever every live processor is parked on a
   shared-memory access the controller picks which one commits next.
   Each decision commits exactly one access, so the chosen pid sequence
   fully determines the interleaving — the substrate for the stateless
   model checker in lib/check.  The controller is handed the runnable
   pids as a bitmask and reads each one's access from its slot
   ([pending_loc], [pending_kind]), so a decision allocates nothing.
   Most decisions are made inside the running processor, without
   parking it ([ctl_perform], below). *)

type access_kind = Acc_read | Acc_write | Acc_rmw

type choice = Fire of int | Quit

(* Fault injection (etrees.faults).  The injector is consulted at three
   points: before any processor event fires (stall/crash), when a
   memory operation's service cost is computed (hot spots), and when a
   [Delay] is issued (jitter).  All hooks must be pure, so that a run
   remains a deterministic function of (seed, plan).  From [quiet_from]
   on they no longer depend on time (the contract is in
   scheduler.mli). *)

type fault_action = Fault_proceed | Fault_defer of int | Fault_drop

type injector = {
  on_event : pid:int -> time:int -> fault_action;
  mem_latency : loc:Memory.loc -> pid:int -> now:int -> base:int -> int;
  delay_jitter : pid:int -> now:int -> base:int -> int;
  quiet_from : int;
}

let no_injector =
  {
    on_event = (fun ~pid:_ ~time:_ -> Fault_proceed);
    mem_latency = (fun ~loc:_ ~pid:_ ~now:_ ~base -> base);
    delay_jitter = (fun ~pid:_ ~now:_ ~base:_ -> 0);
    quiet_from = max_int;
  }

type controller = t -> int -> choice

and t = {
  nprocs : int;
  config : Memory.config;
  body : int -> unit;
  queue : Event_wheel.t; (* controlled runs share Event_wheel.none *)
  rngs : Engine.Splitmix.t array;
  mutable injector : injector option; (* None once the run leaves it *)
  controller : controller option;
  slots : slot array;
  (* the parked operation's issue time, service window (a delay's
     [finish] is its planned end) and seq, the commit's epoch stamp *)
  issued : int array;
  begins : int array;
  finish : int array;
  seqs : int array;
  pending : int array; (* controller mode only: when the parked event is due *)
  mutable clock : int;
  mutable seq : int;
  mutable live : int;
  mutable current : int;
  mutable events_fired : int;
  mutable aborted : int;
  mutable crashed : int;
  mutable fault_defers : int;
  mutable op_reads : int;  (* engine-level operation counters *)
  mutable op_writes : int;
  mutable op_rmws : int;
  mutable queue_wait : int; (* cycles serialized ops spent queueing *)
  (* Controller mode only: the pids with a pending local step and those
     with a pending access, the latest due time a step may be decided
     in place (-1 while the loop unwinds), the running processor's
     access while it is decided in place, and an answer made in place
     for the loop to act on ([no_answer] if none), with the exception
     the controller raised instead, if it did. *)
  mutable locals : int;
  mutable accesses : int;
  mutable decide_until : int;
  mutable in_loc : Memory.loc;
  mutable in_kind : access_kind;
  mutable held : choice;
  mutable raised : exn option;
}

type stats = {
  end_clock : int;
  events_fired : int;
  aborted_procs : int;
  crashed_procs : int;
  fault_defers : int;
  reads : int;
  writes : int;
  rmws : int;
  queue_wait_cycles : int;
}

(* The running scheduler.  The simulator is strictly single-threaded (one
   OS thread multiplexes all simulated processors), so a plain ref is
   safe; it is saved and restored across nested runs. *)
let active : t option ref = ref None

let the_sched () =
  match !active with
  | Some t -> t
  | None ->
      failwith
        "Sim: a simulated-engine operation was performed outside Sim.run"

(* The state of the spin-group loop ([group_loop]): its groups' links,
   and what its dead-spin check needs (see the header), how many live
   processors wait in a [Spin], and whether they all came to since the
   last check.  [issue], [commit] and the handler keep those two
   through [spin_groups], the running run's state, so a step that
   starts or ends no wait and ends no processor pays nothing for them.
   A run outside [group_loop] keeps only the count and the flag: an
   injector run makes the same check with no horizon. *)
type groups = {
  member : int array;  (* per pid: the member after it, or -1 *)
  last : int array;  (* per leader of two or more: its last member *)
  size : int array;  (* per leader of two or more: its member count *)
  mutable waiting : int;  (* live processors parked in a Spin *)
  mutable armed : bool;  (* all of them, since a wait began or a stop *)
}

let no_groups =
  { member = [||]; last = [||]; size = [||]; waiting = 0; armed = false }

(* The running run's state: its spin-group loop's, or a record of its
   own with no groups ([no_groups] is only the value outside a run).
   Each run sets it for its own duration and gives the enclosing run's
   back, as for [active]. *)
let spin_groups = ref no_groups

let loc_of : type a. a Effect.t -> Memory.loc = function
  | Get c -> c.Memory.loc
  | Set (c, _) -> c.Memory.loc
  | Exchange (c, _) -> c.Memory.loc
  | Cas (c, _, _) -> c.Memory.loc
  | Faa (c, _) -> c.Memory.loc
  | Spin s -> s.cell.Memory.loc
  | _ -> invalid_arg "Sim: not a memory effect"

let mem_kind : type a. a Effect.t -> Etrace.Event.mem_kind = function
  | Get _ | Spin _ -> Etrace.Event.Read
  | Set _ -> Etrace.Event.Write
  | _ -> Etrace.Event.Rmw

let[@inline] kind_of : type a. a Effect.t -> access_kind = function
  | Get _ | Spin _ -> Acc_read
  | Set _ -> Acc_write
  | Exchange _ | Cas _ | Faa _ -> Acc_rmw
  | _ -> invalid_arg "Sim: no pending access"

(* [t.in_loc] before any access is decided in place. *)
let no_loc : Memory.loc =
  {
    id = -1;
    busy_until = 0;
    epoch_time = min_int;
    epoch_pid = -1;
    epoch_seq = -1;
    pend_begins = min_int;
    pend_finish = min_int;
    pend_pid = -1;
    shadow = Obj.repr ();
  }

(* Is [p] running, its access decided in place ([ctl_perform])?  Only
   then is its slot [Idle] while it has a pending access. *)
let deciding t p = t.accesses land (1 lsl p) <> 0

(* What a controller sees of a parked processor, or of the running one
   deciding in place: the location and kind of the access it will
   commit.  A spinning slot in its pause has none. *)
let pending_loc t p =
  match t.slots.(p) with
  | Parked (_, Spin s) when s.pausing -> invalid_arg "Sim: no pending access"
  | Parked (_, eff) -> loc_of eff
  | Idle when deciding t p -> t.in_loc
  | Idle | Start -> invalid_arg "Sim: no pending access"

let pending_kind t p =
  match t.slots.(p) with
  | Parked (_, Spin s) when s.pausing -> invalid_arg "Sim: no pending access"
  | Parked (_, eff) -> kind_of eff
  | Idle when deciding t p -> t.in_kind
  | Idle | Start -> invalid_arg "Sim: no pending access"

let no_access () = invalid_arg "Sim: no pending access"

(* Both at once, in one match: the location, and the kind stored in
   [kinds.(p)]. *)
let pending_access t p kinds =
  match t.slots.(p) with
  | Parked (_, Spin s) ->
      if s.pausing then no_access ();
      kinds.(p) <- Acc_read;
      s.cell.Memory.loc
  | Parked (_, Get c) ->
      kinds.(p) <- Acc_read;
      c.Memory.loc
  | Parked (_, Set (c, _)) ->
      kinds.(p) <- Acc_write;
      c.Memory.loc
  | Parked (_, Exchange (c, _)) ->
      kinds.(p) <- Acc_rmw;
      c.Memory.loc
  | Parked (_, Cas (c, _, _)) ->
      kinds.(p) <- Acc_rmw;
      c.Memory.loc
  | Parked (_, Faa (c, _)) ->
      kinds.(p) <- Acc_rmw;
      c.Memory.loc
  | Idle when deciding t p ->
      kinds.(p) <- t.in_kind;
      t.in_loc
  | Parked _ | Idle | Start -> no_access ()

(* A parked event a controller does not decide: a start or a pause — a
   delay, or a spinning slot's [cpu_relax]. *)
let is_local = function
  | Start | Parked (_, Delay _) -> true
  | Parked (_, Spin s) -> s.pausing
  | Idle | Parked _ -> false

(* Queue [p]'s parked event, due at [time], under a fresh seq: into
   [pending] and the mask of its kind under a controller, otherwise
   into the queue. *)
let enqueue t p time =
  t.seqs.(p) <- t.seq;
  (match t.controller with
  | Some _ ->
      t.pending.(p) <- time;
      if is_local t.slots.(p) then t.locals <- t.locals lor (1 lsl p)
      else t.accesses <- t.accesses lor (1 lsl p)
  | None -> Event_wheel.push t.queue ~time ~seq:t.seq p);
  t.seq <- t.seq + 1

(* Park [p]'s next event, [op], due at [time]. *)
let park t p time op =
  if t.slots.(p) != Idle then
    invalid_arg "Sim.Scheduler.park: the processor already has a pending event";
  t.slots.(p) <- op;
  enqueue t p time

(* [p] issues a [Delay n] now: charge it, with the injector's jitter,
   and return when it ends. *)
let delay_due t p n =
  let now = t.clock in
  t.issued.(p) <- now;
  let n = if n < 1 then 1 else n in
  let n =
    match t.injector with
    | None -> n
    | Some inj ->
        let j = inj.delay_jitter ~pid:p ~now ~base:n in
        if j > 0 then n + j else n
  in
  t.finish.(p) <- now + n;
  now + n

(* [p] issues an access to [loc] now, costing [base]: charge it — a
   [serialized] access queues behind its location — and return when it
   completes. *)
let access_due t p (loc : Memory.loc) ~base ~serialized =
  let now = t.clock in
  t.issued.(p) <- now;
  let latency =
    match t.injector with
    | None -> base
    | Some inj ->
        let l = inj.mem_latency ~loc ~pid:p ~now ~base in
        if l < 1 then 1 else l
  in
  let begins =
    if serialized && loc.Memory.busy_until > now then loc.Memory.busy_until
    else now
  in
  let finish = begins + latency in
  if serialized then begin
    t.queue_wait <- t.queue_wait + (begins - now);
    (* Analysis hook: observe the new service window while [loc]'s
       pending stamp still describes the previous one (overlap would
       mean a broken busy-until chain), then stamp. *)
    (match !Memory.tracer with
    | Some tr -> tr.Memory.on_issue loc ~pid:p ~now ~begins ~finish
    | None -> ());
    Memory.issue_stamp loc ~pid:p ~begins ~finish;
    loc.Memory.busy_until <- finish
  end;
  t.begins.(p) <- begins;
  t.finish.(p) <- finish;
  finish

let read_due t p (c : _ Memory.cell) =
  access_due t p c.Memory.loc ~base:t.config.read_latency
    ~serialized:t.config.reads_serialize

(* [p] performs [eff] now: charge it, and return when it completes.
   Inlined: [issue] runs on every uncontrolled step. *)
let[@inline] charge (type a) t p (eff : a Effect.t) =
  let cfg = t.config in
  match eff with
  | Delay n -> delay_due t p n
  | Spin s ->
      let g = !spin_groups in
      g.waiting <- g.waiting + 1;
      if g.waiting = t.live then g.armed <- true;
      read_due t p s.cell
  | Get c -> read_due t p c
  | Set (c, _) ->
      access_due t p c.Memory.loc ~base:cfg.write_latency ~serialized:true
  | _ -> access_due t p (loc_of eff) ~base:cfg.rmw_latency ~serialized:true

(* [p] performed [eff] now: charge it and park it until it completes. *)
let issue (type a) t p (k : (a, unit) continuation) (eff : a Effect.t) =
  park t p (charge t p eff) (Parked (k, eff))

let emit_fired (type a) t p (eff : a Effect.t) =
  let issued = t.issued.(p) and fired = t.clock in
  let pause =
    match eff with Delay _ -> true | Spin s -> s.pausing | _ -> false
  in
  Etrace.emit
    (if pause then
       Etrace.Event.Delay_done
         { pid = p; issued; planned = t.finish.(p) - issued; fired }
     else
       Etrace.Event.Mem_op
         {
           pid = p;
           kind = mem_kind eff;
           loc = (loc_of eff).Memory.id;
           issued;
           begins = t.begins.(p);
           finish = t.finish.(p);
           fired;
         })

(* Stamp a committed mutation, and let an installed tracer see it. *)
let stamp t p c = Memory.commit_stamp c ~pid:p ~time:t.clock ~seq:t.seqs.(p)

let observe_commit t p c ~clean =
  match !Memory.tracer with
  | Some tr -> tr.Memory.on_commit c.Memory.loc ~pid:p ~time:t.clock ~clean
  | None -> ()

let observe_read t p c =
  match !Memory.tracer with
  | Some tr ->
      tr.Memory.on_read c.Memory.loc ~pid:p ~issued:t.issued.(p)
        ~fired:t.clock ~serialized:t.config.reads_serialize
        ~clean:(Memory.shadow_clean c)
  | None -> ()

(* [p]'s wait has ended: clear its slot and take it off [g]'s count of
   waiters. *)
let end_wait t g p =
  t.slots.(p) <- Idle;
  g.waiting <- g.waiting - 1

(* The memory semantics of [p]'s operation [eff], taking effect now,
   each mutation after the raw-write check of the cell's shadow: the
   result [p] goes on with.  A [Spin] is not one operation ([commit]).
   Inlined: [commit] runs on every step. *)
let[@inline] apply (type a) t p (eff : a Effect.t) : a =
  match eff with
  | Delay _ -> ()
  | Get c ->
      observe_read t p c;
      c.Memory.v
  | Set (c, x) ->
      let clean = Memory.shadow_clean c in
      c.Memory.v <- x;
      stamp t p c;
      observe_commit t p c ~clean
  | Exchange (c, x) ->
      let clean = Memory.shadow_clean c in
      let old = c.Memory.v in
      c.Memory.v <- x;
      stamp t p c;
      observe_commit t p c ~clean;
      old
  | Cas (c, expected, desired) ->
      let clean = Memory.shadow_clean c in
      let won = c.Memory.v == expected in
      if won then begin
        c.Memory.v <- desired;
        stamp t p c
      end;
      observe_commit t p c ~clean;
      won
  | Faa (c, d) ->
      let clean = Memory.shadow_clean c in
      let old = c.Memory.v in
      c.Memory.v <- old + d;
      stamp t p c;
      observe_commit t p c ~clean;
      old
  | _ -> invalid_arg "Sim: not a scheduler effect"

(* Fire [p]'s parked operation: [apply] it, and [p] resumes with the
   result.  A spinning slot stays parked until a read satisfies its
   predicate: a failed read queues the slot's [cpu_relax], and that
   pause queues the next read — the events, seqs, counters and tracer
   calls of the hand-written [get]/[cpu_relax] loop, without running
   the processor.  Every other slot is cleared before [commit] runs. *)
let commit (type a) t p (k : (a, unit) continuation) (eff : a Effect.t) =
  if Etrace.on Etrace.lv_full then emit_fired t p eff;
  match eff with
  | Spin s ->
      if s.pausing then begin
        s.pausing <- false;
        t.op_reads <- t.op_reads + 1;
        enqueue t p (read_due t p s.cell)
      end
      else begin
        observe_read t p s.cell;
        let v = s.cell.Memory.v in
        if s.until v then begin
          end_wait t !spin_groups p;
          continue k v
        end
        else begin
          s.pausing <- true;
          enqueue t p (delay_due t p 1)
        end
      end
  | _ -> continue k (apply t p eff)

(* A processor of [t] has stopped: if every live one now waits, arm
   the dead-spin check. *)
let stopped t =
  let g = !spin_groups in
  if g.waiting = t.live then g.armed <- true

(* [p]'s body has returned, or raised [e]. *)
let finished t p =
  t.live <- t.live - 1;
  stopped t;
  if Etrace.on Etrace.lv_ops then
    Etrace.emit
      (Etrace.Event.Proc_end
         { pid = p; time = t.clock; reason = Etrace.Event.Finished })

let failed t p e =
  t.live <- t.live - 1;
  stopped t;
  match e with
  | Aborted ->
      t.aborted <- t.aborted + 1;
      if Etrace.on Etrace.lv_ops then
        Etrace.emit
          (Etrace.Event.Proc_end
             { pid = p; time = t.clock; reason = Etrace.Event.Aborted })
  | e -> raise e

let handler t p =
  {
    retc = (fun () -> finished t p);
    exnc = (fun e -> failed t p e);
    effc =
      (fun (type b) (eff : b Effect.t) ->
        match eff with
        | Get _ | Set _ | Exchange _ | Cas _ | Faa _ | Delay _ | Spin _ ->
            Some (fun (k : (b, _) continuation) -> issue t p k eff)
        | _ -> None);
  }

(* Under a controller, [ctl_perform] has charged every effect but a
   [Spin] before performing it: parking one fills the slot. *)
let ctl_handler t p =
  {
    retc = (fun () -> finished t p);
    exnc = (fun e -> failed t p e);
    effc =
      (fun (type b) (eff : b Effect.t) ->
        match eff with
        | Spin _ -> Some (fun (k : (b, _) continuation) -> issue t p k eff)
        | Get _ | Set _ | Exchange _ | Cas _ | Faa _ | Delay _ ->
            Some
              (fun (k : (b, _) continuation) -> t.slots.(p) <- Parked (k, eff))
        | _ -> None);
  }

(* Start [p], whose slot is [Start], at the current clock. *)
let start t p =
  t.slots.(p) <- Idle;
  if Etrace.on Etrace.lv_ops then
    Etrace.emit (Etrace.Event.Proc_start { pid = p; time = t.clock });
  match t.controller with
  | None -> match_with t.body p (handler t p)
  | Some _ -> match_with t.body p (ctl_handler t p)

(* Controller calls made in place, summed over this process's runs:
   for tests and probes. *)
let in_place = ref 0
let in_place_decisions () = !in_place

(* [t.held] when no answer is held, told apart by physical equality. *)
let no_answer = Fire (-1)

(* Controlled scheduling, in place.  The running processor [p] performs
   [eff], an access or a delay, under a controller: charge it as
   [issue] would, then, unless another processor has a local step
   pending or the step is due past [t.decide_until], finish it here
   (see the header).  A delay fires at once.  For an access the
   controller is asked now, with [p]'s access pending, and on [Fire p]
   it commits here.  Any other answer is held for the loop, and [p]
   parks, as it does when the step is not decided here. *)
let ctl_perform (type a) t (eff : a Effect.t) : a =
  let p = t.current in
  let time = charge t p eff in
  t.seqs.(p) <- t.seq;
  t.pending.(p) <- time;
  t.seq <- t.seq + 1;
  let bit = 1 lsl p in
  if t.locals <> 0 || time > t.decide_until then begin
    (match eff with
    | Delay _ -> t.locals <- t.locals lor bit
    | _ -> t.accesses <- t.accesses lor bit);
    Effect.perform eff
  end
  else
    match eff with
    | Delay _ ->
        if time > t.clock then t.clock <- time;
        t.events_fired <- t.events_fired + 1;
        if Etrace.on Etrace.lv_full then emit_fired t p eff
    | _ -> (
        t.in_loc <- loc_of eff;
        t.in_kind <- kind_of eff;
        t.accesses <- t.accesses lor bit;
        incr in_place;
        let answer =
          match t.controller with
          | Some choose -> (
              match choose t t.accesses with
              | c -> c
              | exception e ->
                  t.raised <- Some e;
                  Quit)
          | None -> invalid_arg "Sim: no controller"
        in
        match answer with
        | Fire q when q = p ->
            t.accesses <- t.accesses land lnot bit;
            if time > t.clock then t.clock <- time;
            t.events_fired <- t.events_fired + 1;
            if Etrace.on Etrace.lv_full then emit_fired t p eff;
            apply t p eff
        | c ->
            t.held <- c;
            Effect.perform eff)

let no_event () = invalid_arg "Sim: fired a processor with no pending event"

(* Fire [p]'s pending event at the current clock. *)
let fire t p =
  let slot = t.slots.(p) in
  t.current <- p;
  match slot with
  | Parked (k, (Spin _ as eff)) -> commit t p k eff
  | Parked (k, eff) ->
      t.slots.(p) <- Idle;
      commit t p k eff
  | Start -> start t p
  | Idle -> no_event ()

(* Unwind [p]'s pending event with {!Aborted}. *)
let abort t p =
  let slot = t.slots.(p) in
  t.slots.(p) <- Idle;
  t.current <- p;
  match slot with
  | Parked (k, _) -> discontinue k Aborted
  | Start -> t.live <- t.live - 1
  | Idle -> ()

(* Fire [p]'s event, due at [time] and already taken off the queue. *)
let fire_at t time p =
  t.clock <- time;
  t.events_fired <- t.events_fired + 1;
  fire t p

(* Spin groups: the hook-free step loop, for every run with no
   controller, from the start with no injector or once the run has
   left its injector (see the header).  A group is one queue entry, its
   leader's pid, standing for the spin steps of [size] processors in
   one phase, due together under consecutive seqs.  The leader's
   [pausing] flag is the group's phase; every other member's flag stays
   set, as its last failed read left it. *)

(* How many processors, [p] and after, wait in a [Spin] when the loop
   starts: a run that leaves its injector may already have some. *)
let rec count_waiting t p n =
  if p >= t.nprocs then n
  else
    match t.slots.(p) with
    | Parked (_, Spin _) -> count_waiting t (p + 1) (n + 1)
    | _ -> count_waiting t (p + 1) n

let groups t =
  let procs = t.nprocs in
  {
    member = Array.make procs (-1);
    last = Array.make procs 0;
    size = Array.make procs 0;
    waiting = count_waiting t 0 0;
    armed = true;
  }

let group_size g p = if g.member.(p) < 0 then 1 else g.size.(p)
let group_last g p = if g.member.(p) < 0 then p else g.last.(p)

let spinning t p ~pausing =
  match t.slots.(p) with Parked (_, Spin s) -> s.pausing = pausing | _ -> false

(* Take the entry right behind a group in its bucket, the next event
   due now, when it is a spin step in the same phase; else -1. *)
let absorb t ~pausing =
  let h = Event_wheel.head t.queue in
  if h >= 0 && spinning t h ~pausing then begin
    Event_wheel.drop_head t.queue;
    h
  end
  else -1

(* The pauses of [m] and the members after it end now, each issuing
   its next read: count them, and while tracing at full level give each
   its [Delay_done], as [commit] would. *)
let rec trace_pauses (t : t) g m =
  if m >= 0 then begin
    t.events_fired <- t.events_fired + 1;
    t.current <- m;
    t.issued.(m) <- t.clock - 1;
    t.finish.(m) <- t.clock;
    (match t.slots.(m) with
    | Parked (_, (Spin _ as eff)) ->
        if Etrace.on Etrace.lv_full then emit_fired t m eff
    | _ -> ());
    t.op_reads <- t.op_reads + 1;
    trace_pauses t g g.member.(m)
  end

let end_pauses (t : t) g p =
  if Etrace.on Etrace.lv_full then trace_pauses t g p
  else begin
    let k = group_size g p in
    t.events_fired <- t.events_fired + k;
    t.op_reads <- t.op_reads + k
  end

(* Queue the linked members [p .. last], [k] of them, as one entry due
   at [time], under the next [k] seqs. *)
let queue_group t g p last k ~time =
  if k > 1 then begin
    g.size.(p) <- k;
    g.last.(p) <- last
  end;
  Event_wheel.push t.queue ~time ~seq:t.seq p;
  t.seq <- t.seq + k

(* [p] leads [k] pauses ending now, [last] the last: end the pauses of
   the same-phase entries right behind them too, join them on, and
   queue the whole group once for its reads. *)
let rec queue_reads t g p last k =
  let h = absorb t ~pausing:true in
  if h >= 0 then begin
    end_pauses t g h;
    g.member.(last) <- h;
    queue_reads t g p (group_last g h) (k + group_size g h)
  end
  else queue_group t g p last k ~time:(t.clock + t.config.read_latency)

(* Queue the failed reads [first .. last], [k] of them and linked, for
   their pauses as one group. *)
let queue_pauses t g first last k =
  if k > 0 then begin
    g.member.(last) <- -1;
    queue_group t g first last k ~time:(t.clock + 1)
  end

(* Fire the reads of [m] and the members after it, then of the
   same-phase entries right behind them, all due now.  The failed ones
   so far, [first .. last] ([k] of them), wait to be queued together.
   A read that satisfies its predicate first queues them, then resumes
   its processor, and the members after it go on as a new run. *)
let rec fire_reads (t : t) g m first last k =
  if m < 0 then begin
    let h = absorb t ~pausing:false in
    if h >= 0 then fire_reads t g h first last k
    else queue_pauses t g first last k
  end
  else begin
    let next = g.member.(m) in
    t.events_fired <- t.events_fired + 1;
    t.current <- m;
    match t.slots.(m) with
    | Parked (kont, (Spin s as eff)) ->
        if Etrace.on Etrace.lv_full || !Memory.tracer != None then begin
          let issued = t.clock - t.config.read_latency in
          t.issued.(m) <- issued;
          t.begins.(m) <- issued;
          t.finish.(m) <- t.clock;
          s.pausing <- false;
          if Etrace.on Etrace.lv_full then emit_fired t m eff;
          observe_read t m s.cell
        end;
        let v = s.cell.Memory.v in
        if s.until v then begin
          queue_pauses t g first last k;
          g.member.(m) <- -1;
          end_wait t g m;
          continue kont v;
          fire_reads t g next (-1) (-1) 0
        end
        else begin
          s.pausing <- true;
          if k > 0 then g.member.(last) <- m;
          fire_reads t g next (if k > 0 then first else m) m (k + 1)
        end
    | _ -> invalid_arg "Sim: a spin group member is not spinning"
  end

(* [fire_at] in the hook-free loop, but a spin step fires with its
   group.  The group step charges every read [read_latency].  A
   serialized read queues behind its cell instead, so a serialized-read
   run's spin steps fire one by one, and it forms no group. *)
let fire_grouped (t : t) g time p =
  match t.slots.(p) with
  | Parked (_, Spin s) when not t.config.reads_serialize ->
      t.clock <- time;
      t.current <- p;
      if s.pausing then begin
        end_pauses t g p;
        queue_reads t g p (group_last g p) (group_size g p);
        s.pausing <- false
      end
      else fire_reads t g p (-1) (-1) 0
  | _ -> fire_at t time p

(* Past the horizon, each group unwinds member by member, in its
   members' key order. *)
let unwind_groups t g =
  Event_wheel.drain t.queue
    ~next:(fun p ->
      let m = g.member.(p) in
      g.member.(p) <- -1;
      m)
    (fun p -> abort t p)

(* Dead spins (see the header).  Does the predicate of every waiter,
   [p] and after, fail on its cell's current value? *)
let rec stuck t p =
  p >= t.nprocs
  || (match t.slots.(p) with
     | Parked (_, Spin s) -> not (s.until s.cell.Memory.v)
     | Idle -> true
     | Start | Parked _ -> false)
     && stuck t (p + 1)

(* Events the fast-forwards of this process skipped, for tests and
   probes.  Updated once per fast-forward. *)
let skipped = ref 0
let skipped_events () = !skipped

(* Skip [k] periods of a dead run: every entry moves [k * period]
   cycles later, in order, and each of the [t.live] waiters is counted
   the read and the pause it fires per period, each queued under a
   fresh seq. *)
let skip t ~period k =
  let reads = k * t.live in
  Event_wheel.shift t.queue ~by:(k * period);
  t.events_fired <- t.events_fired + (2 * reads);
  t.op_reads <- t.op_reads + reads;
  t.seq <- t.seq + (2 * reads);
  skipped := !skipped + (2 * reads)

(* Fire every event due by [until]. *)
let rec step_to t g ~until =
  let p = Event_wheel.pop_due t.queue ~horizon:until in
  if p >= 0 then begin
    fire_grouped t g (Event_wheel.cursor t.queue) p;
    step_to t g ~until
  end

(* Step to [until] through a recorder that forwards [tr]'s reads and
   keeps their arguments; return them in call order, or [] if a hook
   changed meanwhile. *)
let record t g (tr : Memory.tracer) ~until =
  let hooked = !Memory.tracer and calls = ref [] in
  let recorder =
    Some
      {
        tr with
        on_read =
          (fun loc ~pid ~issued ~fired ~serialized ~clean ->
            calls :=
              {
                Memory.r_loc = loc;
                r_pid = pid;
                r_issued = issued;
                r_fired = fired;
                r_serialized = serialized;
                r_clean = clean;
              }
              :: !calls;
            tr.on_read loc ~pid ~issued ~fired ~serialized ~clean);
      }
  in
  Memory.tracer := recorder;
  (match step_to t g ~until with
  | () -> ()
  | exception e ->
      if !Memory.tracer == recorder then Memory.tracer := hooked;
      raise e);
  if !Memory.tracer == recorder then begin
    Memory.tracer := hooked;
    List.rev !calls
  end
  else []

(* A dead run, at the boundary after the cursor's bucket, skips all but
   its last whole period before the horizon.  With a tracer installed,
   it first steps one period through [record], then hands the tracer
   that period's reads and the number of skipped periods in one
   [on_reads].  If that period is not what the argument says (a hook
   changed, or a processor ran), the run keeps stepping. *)
let fast_forward t g ~horizon =
  let period = t.config.read_latency + 1 in
  let from = Event_wheel.cursor t.queue + 1 in
  let whole = (horizon - from + 1) / period in
  match !Memory.tracer with
  | None -> if whole >= 2 then skip t ~period (whole - 1)
  | Some tr ->
      if whole >= 3 then begin
        let calls = record t g tr ~until:(from + period - 1) in
        if
          (not g.armed)
          && g.waiting = t.live
          && (not (Etrace.on Etrace.lv_full))
          && List.length calls = t.live
        then begin
          tr.on_reads calls ~period ~repeats:(whole - 2);
          skip t ~period (whole - 2)
        end
      end

let dead_forever t =
  failwith
    (Printf.sprintf
       "Sim.run: from cycle %d, all %d live processors wait on predicates \
        no processor can satisfy, and no abort_after is set"
       t.clock t.live)

(* Every live processor has come to wait, and the cursor's bucket is
   done: is the run dead? *)
let dead_check t g ~horizon =
  g.armed <- false;
  if g.waiting = t.live && t.live > 0 && stuck t 0 then
    if horizon = max_int then dead_forever t
    else if
      not
        (t.config.reads_serialize
        || Etrace.on Etrace.lv_full
        || Event_wheel.spills t.queue)
    then fast_forward t g ~horizon

let rec group_loop t g ~horizon =
  let p = Event_wheel.pop_due t.queue ~horizon in
  if p >= 0 then begin
    fire_grouped t g (Event_wheel.cursor t.queue) p;
    if g.armed && Event_wheel.head t.queue < 0 then dead_check t g ~horizon;
    group_loop t g ~horizon
  end
  else if not (Event_wheel.is_empty t.queue) then unwind_groups t g

(* Leaving an injector (see the header).  Does every processor with a
   pending event, [p] and after, proceed at [inj.quiet_from]? *)
let rec proceed_all t inj p =
  p >= t.nprocs
  || (match t.slots.(p) with
     | Idle -> true
     | Start | Parked _ -> (
         match inj.on_event ~pid:p ~time:inj.quiet_from with
         | Fault_proceed -> true
         | Fault_defer _ | Fault_drop -> false))
     && proceed_all t inj (p + 1)

(* The latest of [time] and the due times of the spin steps of [p] and
   after, pending now. *)
let rec spins_due t p time =
  if p >= t.nprocs then time
  else
    match t.slots.(p) with
    | Parked (_, Spin _) when t.finish.(p) > time ->
        spins_due t (p + 1) t.finish.(p)
    | _ -> spins_due t (p + 1) time

let leave t time p =
  t.injector <- None;
  fire_at t time p

(* The step loop under an injector: every event is put to
   [inj.on_event] first.  A deferred event is queued again at the
   stall's end, and a dropped one crash-stops its processor: the parked
   continuation is discarded without unwinding, so cleanup code never
   runs and any held lock stays held.  From the first event due at or
   after [gate], the loop checks whether it may leave: once the check
   holds ([quiet]), it leaves at the first event due after the spin
   steps pending then, and [run] goes on without the injector. *)
let rec inject_loop t inj ~horizon ~gate ~quiet =
  let q = t.queue in
  if horizon = max_int then begin
    let g = !spin_groups in
    if g.armed && Event_wheel.head q < 0 then dead_check t g ~horizon
  end;
  let p = Event_wheel.pop_due q ~horizon in
  if p >= 0 then begin
    let time = Event_wheel.cursor q in
    if time < gate then inject_fire t inj ~horizon ~gate ~quiet time p
    else if quiet then leave t time p
    else if proceed_all t inj 0 then begin
      let after = spins_due t 0 inj.quiet_from in
      if time > after then leave t time p
      else inject_fire t inj ~horizon ~gate:(after + 1) ~quiet:true time p
    end
    else inject_fire t inj ~horizon ~gate:max_int ~quiet time p
  end
  else if not (Event_wheel.is_empty q) then
    (* The earliest event is past the horizon. *)
    Event_wheel.drain q ~next:Event_wheel.no_members (fun p -> abort t p)

and inject_fire t inj ~horizon ~gate ~quiet time p =
  match inj.on_event ~pid:p ~time with
  | Fault_proceed ->
      fire_at t time p;
      inject_loop t inj ~horizon ~gate ~quiet
  | Fault_defer until ->
      t.fault_defers <- t.fault_defers + 1;
      let until = if until <= time then time + 1 else until in
      if Etrace.on Etrace.lv_ops then
        Etrace.emit (Etrace.Event.Fault_stall { pid = p; time; until });
      Event_wheel.push t.queue ~time:until ~seq:t.seq p;
      t.seq <- t.seq + 1;
      inject_loop t inj ~horizon ~gate ~quiet
  | Fault_drop ->
      (match t.slots.(p) with
      | Parked (_, Spin _) -> end_wait t !spin_groups p
      | _ -> t.slots.(p) <- Idle);
      t.clock <- time;
      t.live <- t.live - 1;
      stopped t;
      t.crashed <- t.crashed + 1;
      if Etrace.on Etrace.lv_ops then begin
        Etrace.emit (Etrace.Event.Fault_crash { pid = p; time });
        Etrace.emit
          (Etrace.Event.Proc_end
             { pid = p; time; reason = Etrace.Event.Crashed })
      end;
      (* A check that failed is made again at the next event. *)
      let gate = if quiet || time < inj.quiet_from then gate else time in
      inject_loop t inj ~horizon ~gate ~quiet

(* The step loop under a controller: the controller, not the clock,
   decides firing order.  Local steps are not scheduling decisions and
   fire eagerly, in pid-order passes; once every live processor is
   parked on a shared-memory access, the controller picks the one that
   commits next, unless a processor has made that decision in place
   ([t.held]).  [Quit], or a step due past the horizon, unwinds every
   parked processor.  The pid bitmasks [t.locals] and [t.accesses] stand
   for the slots: every controlled slot queued ([enqueue],
   [ctl_perform]) sets its bit, and every one fired or aborted clears
   it first. *)

(* [p]'s pending step leaves the masks: it fires or unwinds now. *)
let unmark t p =
  let bit = lnot (1 lsl p) in
  t.locals <- t.locals land bit;
  t.accesses <- t.accesses land bit

(* Fire [p]'s pending step, or unwind it if it is due past the
   horizon; from then on, the loop unwinds. *)
let fire_pending t p =
  unmark t p;
  let time = t.pending.(p) in
  if time > t.decide_until then begin
    t.decide_until <- -1;
    abort t p
  end
  else begin
    if time > t.clock then t.clock <- time;
    t.events_fired <- t.events_fired + 1;
    fire t p
  end

(* Fire the steps of the pids in [m], [p] and up, in pid order, until
   one is due past the horizon.  Firing a step changes no other
   processor's slot, so [m] stands for the slots as the pass reaches
   them. *)
let rec settle_pass t m p =
  if m <> 0 && t.decide_until >= 0 then begin
    if m land 1 <> 0 then fire_pending t p;
    settle_pass t (m lsr 1) (p + 1)
  end

let rec settle t =
  if t.locals <> 0 && t.decide_until >= 0 then begin
    settle_pass t t.locals 0;
    settle t
  end

(* Unwind the pids in [m], [p] and up, in pid order. *)
let rec abort_pass t m p =
  if m <> 0 then begin
    if m land 1 <> 0 then begin
      unmark t p;
      abort t p
    end;
    abort_pass t (m lsr 1) (p + 1)
  end

(* Unwinding a processor can park (then require unwinding) new events,
   so iterate to a fixpoint. *)
let rec drain t =
  t.decide_until <- -1;
  let m = t.locals lor t.accesses in
  if m <> 0 then begin
    abort_pass t m 0;
    drain t
  end

(* The answer for the loop: the one held, or the controller's now.  A
   held exception is raised here, outside every processor. *)
let answer t choose =
  let c = t.held in
  if c == no_answer then choose t t.accesses
  else begin
    t.held <- no_answer;
    match t.raised with
    | Some e ->
        t.raised <- None;
        raise e
    | None -> c
  end

let rec ctl_loop t choose =
  settle t;
  if t.decide_until < 0 then drain t
  else if t.accesses <> 0 then
    (* After [settle], every parked processor awaits an access. *)
    match answer t choose with
    | Quit -> drain t
    | Fire p ->
        if p < 0 || p >= t.nprocs || t.accesses land (1 lsl p) = 0 then
          invalid_arg "Sim controller: chose a processor with no pending access";
        fire_pending t p;
        ctl_loop t choose

(* Process-cumulative counters across every completed [run] — the
   deterministic odometer the benchmark meta probe (Report.Meta) reads
   around each experiment.  Updated once per run, on the normal return
   path, so the hot loop pays nothing. *)
type totals = { t_events : int; t_reads : int; t_writes : int; t_rmws : int }

let grand = ref { t_events = 0; t_reads = 0; t_writes = 0; t_rmws = 0 }
let totals () = !grand

(* Run [procs] simulated processors, each executing [body pid], until
   every processor terminates or the clock passes [abort_after] (at which
   point the remaining processors are unwound with {!Aborted}).  With an
   [injector], every processor event is submitted to it first
   ([inject_loop]) until the run leaves it. *)
let run ?(seed = 0x5eed) ?(config = Memory.default_config) ?abort_after
    ?injector ?controller ~procs body =
  if procs <= 0 then invalid_arg "Sim.run: procs must be positive";
  if Option.is_some injector && Option.is_some controller then
    invalid_arg "Sim.run: a controller cannot be combined with an injector";
  (* A controller gets the runnable pids as an int bitmask. *)
  if Option.is_some controller && procs > 62 then
    invalid_arg "Sim.run: a controller schedules at most 62 processors";
  let horizon = match abort_after with Some h -> h | None -> max_int in
  let base = Engine.Splitmix.of_int seed in
  let per_pid () = Array.make procs 0 in
  let t =
    {
      nprocs = procs;
      config;
      body;
      queue =
        (match controller with
        | Some _ -> Event_wheel.none
        | None -> Event_wheel.create ~procs);
      rngs = Array.init procs (fun i -> Engine.Splitmix.split base ~index:i);
      injector;
      controller;
      slots = Array.make procs Idle;
      issued = per_pid ();
      begins = per_pid ();
      finish = per_pid ();
      seqs = per_pid ();
      pending = per_pid ();
      clock = 0;
      seq = 0;
      live = procs;
      current = 0;
      events_fired = 0;
      aborted = 0;
      crashed = 0;
      fault_defers = 0;
      op_reads = 0;
      op_writes = 0;
      op_rmws = 0;
      queue_wait = 0;
      locals = 0;
      accesses = 0;
      decide_until = horizon;
      in_loc = no_loc;
      in_kind = Acc_read;
      held = no_answer;
      raised = None;
    }
  in
  let prev = !active in
  active := Some t;
  Fun.protect ~finally:(fun () ->
      Event_wheel.release t.queue;
      active := prev)
  @@ fun () ->
  for p = 0 to procs - 1 do
    park t p 0 Start
  done;
  let enclosing = !spin_groups in
  (* Each run counts its own waiters; [group_loop] brings its groups. *)
  spin_groups := { no_groups with waiting = 0; armed = false };
  (match
     match controller with
     | Some c -> ctl_loop t c
     | None -> (
         (match t.injector with
         | Some inj ->
             inject_loop t inj ~horizon ~gate:inj.quiet_from ~quiet:false
         | None -> ());
         (* With no injector, or once the run has left it. *)
         match t.injector with
         | Some _ -> ()
         | None ->
             let g = groups t in
             spin_groups := g;
             group_loop t g ~horizon)
   with
  | () -> spin_groups := enclosing
  | exception e ->
      spin_groups := enclosing;
      raise e);
  assert (t.live = 0);
  grand :=
    {
      t_events = !grand.t_events + t.events_fired;
      t_reads = !grand.t_reads + t.op_reads;
      t_writes = !grand.t_writes + t.op_writes;
      t_rmws = !grand.t_rmws + t.op_rmws;
    };
  {
    end_clock = t.clock;
    events_fired = t.events_fired;
    aborted_procs = t.aborted;
    crashed_procs = t.crashed;
    fault_defers = t.fault_defers;
    reads = t.op_reads;
    writes = t.op_writes;
    rmws = t.op_rmws;
    queue_wait_cycles = t.queue_wait;
  }

(* The simulator's implementation of [Engine.S].

   Every primitive performs one scheduler effect naming the operation;
   the scheduler charges it according to the run's {!Memory.config} and
   applies its memory semantics — with the analysis stamps of {!Memory}
   and the calls of an installed {!Memory.tracer} — when its event
   fires.  All of these must be called from inside a processor body
   passed to [Sim.run]; calling them elsewhere raises. *)

type 'a cell = 'a Memory.cell

let cell = Memory.cell

type 'a cells = 'a Memory.cells

let cells = Memory.cells
let cells_get = Memory.cells_get
let cells_length = Memory.cells_length

let get c =
  let t = Scheduler.the_sched () in
  t.op_reads <- t.op_reads + 1;
  Effect.perform (Scheduler.Get c)

let set c x =
  let t = Scheduler.the_sched () in
  t.op_writes <- t.op_writes + 1;
  Effect.perform (Scheduler.Set (c, x))

let exchange c x =
  let t = Scheduler.the_sched () in
  t.op_rmws <- t.op_rmws + 1;
  Effect.perform (Scheduler.Exchange (c, x))

let compare_and_set c expected desired =
  let t = Scheduler.the_sched () in
  t.op_rmws <- t.op_rmws + 1;
  Effect.perform (Scheduler.Cas (c, expected, desired))

let fetch_and_add c k =
  let t = Scheduler.the_sched () in
  t.op_rmws <- t.op_rmws + 1;
  Effect.perform (Scheduler.Faa (c, k))

let pid () = (Scheduler.the_sched ()).current
let nprocs () = (Scheduler.the_sched ()).nprocs

let delay n = if n > 0 then Effect.perform (Scheduler.Delay n)
let cpu_relax () = Effect.perform (Scheduler.Delay 1)

(* One effect per wait: its slot stays parked, and the scheduler
   queues it again for each further read and [cpu_relax], counting the
   reads itself. *)
let spin_until c until =
  let t = Scheduler.the_sched () in
  t.op_reads <- t.op_reads + 1;
  Effect.perform (Scheduler.Spin { cell = c; until; pausing = false })

let random_int n =
  let t = Scheduler.the_sched () in
  Engine.Splitmix.int t.rngs.(t.current) n

let random_bernoulli ~num ~den =
  let t = Scheduler.the_sched () in
  Engine.Splitmix.bernoulli t.rngs.(t.current) ~num ~den

let now () = (Scheduler.the_sched ()).clock

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

(* The running scheduler, read without a call into [Scheduler]: every
   operation needs it.  Outside a run, [the_sched] raises. *)
let[@inline] sched () =
  match !Scheduler.active with Some t -> t | None -> Scheduler.the_sched ()

(* Perform [eff]; under a controller, [Scheduler.ctl_perform] performs
   it, deciding it in place when it can.  Inlined: an uncontrolled op
   pays one test of [t.controller]. *)
let[@inline] perform (t : Scheduler.t) eff =
  match t.controller with
  | None -> Effect.perform eff
  | Some _ -> Scheduler.ctl_perform t eff

let get c =
  let t = sched () in
  t.op_reads <- t.op_reads + 1;
  perform t (Scheduler.Get c)

let set c x =
  let t = sched () in
  t.op_writes <- t.op_writes + 1;
  perform t (Scheduler.Set (c, x))

let exchange c x =
  let t = sched () in
  t.op_rmws <- t.op_rmws + 1;
  perform t (Scheduler.Exchange (c, x))

let compare_and_set c expected desired =
  let t = sched () in
  t.op_rmws <- t.op_rmws + 1;
  perform t (Scheduler.Cas (c, expected, desired))

let fetch_and_add c k =
  let t = sched () in
  t.op_rmws <- t.op_rmws + 1;
  perform t (Scheduler.Faa (c, k))

let pid () = (sched ()).current
let nprocs () = (sched ()).nprocs

let delay n = if n > 0 then perform (sched ()) (Scheduler.Delay n)
let cpu_relax () = perform (sched ()) (Scheduler.Delay 1)

(* One effect per wait: its slot stays parked, and the scheduler
   queues it again for each further read and [cpu_relax], counting the
   reads itself. *)
let spin_until c until =
  let t = sched () in
  t.op_reads <- t.op_reads + 1;
  Effect.perform (Scheduler.Spin { cell = c; until; pausing = false })

let random_int n =
  let t = sched () in
  Engine.Splitmix.int t.rngs.(t.current) n

let random_bernoulli ~num ~den =
  let t = sched () in
  Engine.Splitmix.bernoulli t.rngs.(t.current) ~num ~den

let now () = (sched ()).clock

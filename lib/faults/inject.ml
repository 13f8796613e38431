(* Running simulations under a fault plan: compile the plan once and
   hand it to the scheduler as its injector.  The run leaves the
   injector once the plan has gone quiet; an empty plan is quiet from
   cycle 0. *)

let run ?seed ?config ?abort_after ~plan ~procs body =
  let injector = Fault_plan.injector plan in
  Sim.run ?seed ?config ?abort_after ~injector ~procs body

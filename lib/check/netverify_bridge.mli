(** The shipped-shapes manifest for the static network certifier and
    the counterexample bridge into the model checker
    (docs/NETVERIFY.md).  `etrees_run netverify` and the build-time
    [@netverify] gate certify every shape listed here. *)

type shape = { shape_name : string; build : unit -> Netverify.Ir.network }

val shapes : shape list
(** Every network shape the repo ships: elimination-tree pools and
    stacks (widths 2-64), diffracting-tree counters (single- and
    multi-prism), bitonic and periodic counting networks. *)

val find : string -> shape option
val names : string list

val seeded_defect_width : int

val seeded_defect : unit -> Netverify.Ir.network
(** The width-2 pool tree with the test-only [`Skip_toggle_on_miss]
    defect seeded in every balancer — the shape the certifier must
    reject (teeth check for the [@netverify] gate). *)

val replay_command : width:int -> Netverify.Certify.counterexample -> string
(** The `etrees_run check` invocation that replays a static
    counterexample through the model checker's schedule machinery.  It
    names the schedule the sequential replay of {!confirm_replay}
    executed, so [check --schedule] replays it step for step. *)

val confirm_replay :
  width:int -> Netverify.Certify.counterexample -> Monitor.violation option
(** Re-execute a token-only counterexample through the tree_buggy
    scenario under {!Explore.replay} (one processor per operation,
    sequential slices, seed 1) and return the step-property violation
    it produces, if any. *)

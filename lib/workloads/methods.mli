(** Constructors for every method of the paper's evaluation (on the
    simulator engine, with the paper's parameters), plus the extension
    methods of the ablation/extra experiments. *)

(** Exposed functor instantiations, for callers that need the concrete
    structures (e.g. parameter sweeps). *)
module E = Sim.Engine

module Epool : module type of Core.Elim_pool.Make (E)
module Estack : module type of Core.Elim_stack.Make (E)
module Mcs_counter : module type of Sync.Mcs_counter.Make (E)
module Naive_counter : module type of Sync.Naive_counter.Make (E)
module Ctree : module type of Sync.Combining_tree.Make (E)
module Dtree : module type of Baselines.Diff_tree.Make (E)
module Central : module type of Baselines.Central_pool.Make (E)
module Rsu : module type of Baselines.Rsu.Make (E)
module Treiber : module type of Extras.Treiber_stack.Make (E)
module Eb_stack : module type of Extras.Eb_stack.Make (E)
module Bitonic : module type of Baselines.Bitonic_network.Make (E)
module Ws : module type of Baselines.Work_stealing.Make (E)
module Spool : module type of Shard.Shard_pool.Make (E)

(** {2 The paper's methods} *)

val etree_pool : ?width:int -> procs:int -> unit -> int Pool_obj.pool

val etree_pool_spin :
  ?width:int -> spin_base:int -> procs:int -> unit -> int Pool_obj.pool
(** The elimination-tree pool on an alternative static spin schedule
    ("Etree-w/s<base>") — the hand-tuning axis the reactive controller
    competes against (EXPERIMENTS.md A1). *)

val etree_pool_reactive :
  ?width:int -> ?config:Adapt.config -> procs:int -> unit -> int Pool_obj.pool
(** "Etree-w/adapt": reactive spin windows and prism widths
    (docs/ADAPTIVE.md); the pool exposes [adapt_by_level]. *)

val estack_pool :
  ?width:int -> ?policy:Adapt.policy -> procs:int -> unit -> int Pool_obj.pool
val mcs_pool : procs:int -> unit -> int Pool_obj.pool
val dtree_pool : ?width:int -> procs:int -> unit -> int Pool_obj.pool
val rsu_pool : ?machine:int -> procs:int -> unit -> int Pool_obj.pool

val produce_consume_methods : (procs:int -> int Pool_obj.pool) list
(** Figure 7/8 columns: Etree-32, MCS, Ctree-n, Dtree-32. *)

val distribution_methods : (procs:int -> int Pool_obj.pool) list
(** Figure 10 columns: Etree-32, MCS, Ctree-256, RSU. *)

val counting_methods : (procs:int -> Pool_obj.counter) list
(** Figure 9 columns: Dtree-32+MulPri, MCS, Ctree-n, Dtree-32,
    Dtree-64. *)

(** {2 Extension methods (see EXPERIMENTS.md)} *)

val naive_counter : procs:int -> Pool_obj.counter

val ablation_methods : (procs:int -> int Pool_obj.pool) list
val width_methods : (procs:int -> int Pool_obj.pool) list
val distribution_extra_methods : (procs:int -> int Pool_obj.pool) list
val counting_extra_methods : (procs:int -> Pool_obj.counter) list

(** {2 Named registries}

    The single source of truth mapping CLI method names to
    constructors, shared by [bin/etrees_run] and the chaos
    experiment. *)

val pool_registry : (string * (procs:int -> int Pool_obj.pool)) list
val pool_method : string -> (procs:int -> int Pool_obj.pool) option
val pool_method_names : string list

val counter_registry : (string * (procs:int -> Pool_obj.counter)) list
val counter_method : string -> (procs:int -> Pool_obj.counter) option
val counter_method_names : string list

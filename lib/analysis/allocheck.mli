(* Hot-path allocation certifier (etrees.allocheck, docs/ANALYSIS.md).

   A typed, interprocedural census of allocation sites over the
   simulator core, read from dune-produced [.cmt] typedtrees.  Sites
   inside functions reachable from declared hot roots (the scheduler's
   step loop, the engine dispatch, the event heap, the memory stamps)
   are checked against a committed per-(function, kind) budget: any new
   hot-path allocation fails the build, and any budget entry looser
   than reality is stale and also fails.  The census JSON is the static
   ledger that benchdb's [minor_words_per_event] column reconciles
   against. *)

type kind =
  | K_closure   (* fun ... -> / local let-bound function *)
  | K_papply    (* partial application (omitted args or under-arity) *)
  | K_tuple     (* (e1, ..., en) *)
  | K_construct (* constructor with a payload: Some, inline records, ... *)
  | K_variant   (* polymorphic variant with a payload *)
  | K_record    (* { ... } *)
  | K_array     (* [| ... |] and Array.make-family calls *)
  | K_float_box (* float-typed application / field read (boxed result) *)
  | K_boxed (* int64/int32/nativeint-typed application (boxed result) *)
  | K_string    (* ^, String/Bytes/Printf builders *)
  | K_list      (* :: and List allocators *)
  | K_lazy      (* lazy ... *)
  | K_other     (* objects, first-class modules, letop, ... *)

val kind_name : kind -> string

type site = {
  s_file : string;
  s_line : int;
  s_col : int;
  s_fn : string;   (* owning top-level binding, as "Module.name" *)
  s_kind : kind;
  s_what : string; (* short human label: constructor name, callee, ... *)
}

type fn_info = {
  f_name : string;        (* "Module.name" *)
  f_module : string;
  f_arity : int;          (* length of the outermost curried chain; 0 = value *)
  f_calls : string list;  (* mentioned census nodes, sorted, deduped *)
  f_sites : site list;    (* allocation sites, source order *)
}

type census = {
  c_modules : string list; (* scanned module names, sorted *)
  c_fns : fn_info list;    (* all top-level bindings, sorted by name *)
}

exception Error of string

val census : (string * Typedtree.structure) list -> census
(** Two-pass census over every scanned module: collect top-level
    binding names and arities first (so cross-module under-application
    is recognized), then classify allocation sites and mentions. *)

val census_of_paths : string list -> census
(** Convenience: each path is a [.cmt] file or a directory scanned
    recursively for [.cmt] files. *)

val hot : census -> roots:string list -> (string * string list) list
(** Functions reachable from the roots via the mention graph, with a
    shortest root-first call chain for each; sorted by name.  Mentions
    only count toward reachability when the callee has arity >= 1 (a
    mentioned value binding is module-init, not per-event, work).
    Raises {!Error} if a root names no census function. *)

(* ------------------------------------------------------------------ *)
(* Budgets                                                             *)
(* ------------------------------------------------------------------ *)

type budget_entry = { b_fn : string; b_kind : kind; b_count : int }

val load_budget : string -> budget_entry list
(** One entry per line: [<Module.fn> <kind> <count>], '#' comments.
    Raises {!Error} on malformed lines or unknown kinds. *)

type violation = {
  v_site : site;          (* representative site (first in source order) *)
  v_chain : string list;  (* root-first call chain to the owning function *)
  v_found : int;          (* hot sites of this (fn, kind) *)
  v_budget : int;         (* committed budget (0 when the entry is missing) *)
}

type verdict = {
  hot_fns : (string * string list) list; (* hot functions with chains *)
  hot_sites : site list;                 (* all sites in hot functions *)
  violations : violation list;           (* found > budget *)
  stale : budget_entry list;             (* budget > found (or fn not hot) *)
}

val check : census -> roots:string list -> budget:budget_entry list -> verdict

val format_violation : violation -> string
(** "file:line:col: [alloc-<kind>] ..." naming the root->site chain. *)

val format_stale : budget_entry -> string

val print_budget : verdict -> string
(** The verdict's hot census in budget-file syntax (the ratchet helper:
    paste, then justify each entry). *)

val census_json :
  census -> verdict:verdict -> roots:string list -> string
(** Machine-readable census: per-module site counts, site-kind
    histogram, hot-set size and per-function hot counts, budget
    violations/stale entries.  Deterministic (sorted keys). *)

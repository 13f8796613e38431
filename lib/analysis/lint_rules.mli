(** Static effect-discipline lint (the static prong of etrees.analysis).

    Parses OCaml sources with compiler-libs and flags raw mutation that
    escapes the engine discipline: all shared state in engine-parametric
    code must flow through [E.cell] so that the simulator's per-location
    queueing (and the native engine's [Atomic]s) see it.  See
    docs/ANALYSIS.md for the rules and the allowlist policy. *)

type rule =
  | Ref_cell      (** [ref] / [:=] / [!] / [incr] / [decr] *)
  | Setfield      (** [e.f <- v] *)
  | Array_mut     (** [Array.set] & friends, [a.(i) <- v] *)
  | Atomic_use    (** direct [Atomic.*] *)
  | Mutable_field (** [mutable] field declaration *)
  | Sim_bypass
      (** naming [Sim]/[Memory]/[Scheduler]/[Engine_impl]/[Event_heap]/
          [Event_wheel] from engine-parametric code: the simulator must
          only be reached through the [Engine.S] functor parameter *)
  | Nondet
      (** [Sys.time]/[Unix.gettimeofday]/[Random.*]/[Hashtbl.hash]:
          host nondeterminism outside the engine's seeded streams
          breaks seed-exact replay *)

val rule_name : rule -> string
val rule_of_name : string -> rule option

type violation = {
  file : string;
  line : int;
  col : int;
  rule : rule;
  message : string;
}

exception Parse_error of string

val scan_file : string -> violation list
(** Parse one [.ml] file and return its violations in source order.
    Raises {!Parse_error} if the file does not parse. *)

type allow = { path : string; allowed : rule }

val load_allowlist : string -> allow list
(** One [<path> <rule>] pair per line; ['#'] comments.  Raises
    {!Parse_error} on malformed lines. *)

val apply_allowlist :
  allow list -> violation list -> violation list * violation list * allow list
(** [apply_allowlist allows vs] is [(kept, suppressed, unused_entries)]. *)

val format_violation : violation -> string
(** Machine-readable [file:line:col: [rule] message]. *)

val report : violation list -> string
(** All violations, one {!format_violation} line each. *)

val report_json :
  files:int ->
  kept:violation list ->
  suppressed:violation list ->
  unused:allow list ->
  string
(** The whole lint run as one JSON object:
    [{"files": n, "violations": [{"file","line","col","rule","message"}],
    "allowlisted": n, "stale_allowlist": [{"path","rule"}]}].
    Uploaded as a CI artifact alongside the bench jsons. *)

(** Semantic certification over the wiring IR: quiescent output
    numbering and the step property (paper Lemmas 3.1/3.2), verified
    by exhaustive memoized enumeration of toggle-state reachability
    over sequential token executions — exact for every shipped shape.
    Violations come with a concrete operation-sequence counterexample
    that replays through the model checker's schedule format. *)

type op = Op_token | Op_anti

type counterexample = {
  ops : (op * int) list;
      (** (kind, input index) per operation; trees always use input 0 *)
  detail : string;
}

type failure = {
  pass : string;
  code : string;
  detail : string;
  cex : counterexample option;
}

type pass_ok = { pass : string; summary : string }

type report = {
  net_name : string;
  net_kind : string;
  width : int;
  passed : pass_ok list;
  failures : failure list;
}

val verify : Ir.network -> report
(** Run every applicable pass: well-formedness, conservation, depth
    bounds, then (on sound structure) numbering and step
    certification. *)

val ok : report -> bool
val format_ops : (op * int) list -> string
val format_report : report -> string

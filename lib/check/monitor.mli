(** Property monitors for the model checker: pluggable checks evaluated
    against the quiescent state of one controlled execution (plus the
    scenario's exit-point ledger), rendering verdicts. *)

type verdict = { property : string; ok : bool; detail : string }
type violation = { property : string; detail : string }

val properties : string list
(** Every property a violation can name: the monitors' step-property,
    conservation, paired-balance and quiescent-consistency, and the
    explorer's deadlock and no-crash. *)

val violations_of : verdict list -> violation list
(** The failed verdicts, in order. *)

val fail : string -> string -> verdict
(** [fail property detail]: a ready-made failed verdict, for scenario
    ledgers that detect a violation at an operation's exit point. *)

val step_property :
  mode:[ `Pool | `Gap ] -> Core.Elim_stats.t list list -> verdict
(** Per-balancer step property from the live per-wire exit counters
    ([balancer_stats_by_level]).  [`Pool] checks tokens and anti-tokens
    independently (Lemma 3.1: out0 - out1 in [{0,1}] for each kind);
    [`Gap] checks the token-over-anti surplus (Lemma 3.2). *)

val conservation :
  enqueued:int list -> dequeued:int list -> residue:int -> verdict
(** No value lost, duplicated, or invented: wraps
    {!Analysis.Conservation.audit} over the scenario ledger and the
    quiescently probed residue, with zero in-flight slack. *)

type counter_op = { is_inc : bool; result : int option (* [None] = Paired *) }

val paired_balance : counter_op list -> verdict
(** Eliminated increments and decrements must pair up exactly — the
    quiescent guarantee that survives mixed concurrent inc/dec bursts
    (whose return values may legally undershoot). *)

val quiescent_consistency : counter_op list -> verdict
(** Is the completed run's outcome multiset realizable by some
    sequential execution of a counter starting at 0?  Increments
    return the value read (then add 1); decrements subtract 1 and
    return the new value; [Paired] outcomes must arrive in equal
    numbers and drop out (inc linearized immediately before its
    cancelling dec). *)

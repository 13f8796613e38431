(** Quantifying §3's claim that the stack-like pool keeps LIFO order
    "among all but a small fraction of operations": the fraction of
    pops that return the most recently pushed element still present
    (by operation completion order; direct eliminated handoffs count
    as hits — the popped element is the newest in existence). *)

type point = {
  procs : int;
  pops : int;
  lifo_hits : int;
  hit_fraction : float;  (** pops returning the newest present element *)
  mean_rank : float;
      (** mean normalized recency rank of popped elements — 0 for a
          strict stack, 1 for a strict queue *)
}

val run :
  ?seed:int ->
  ?horizon:int ->
  procs:int ->
  (procs:int -> int Pool_obj.pool) ->
  point

(** The response-time benchmark of §2.5.3 (Fig. 10 right): n/2
    enqueuers each post one element and wait for it to be consumed
    before the next (no pipelining); n/2 dequeuers; ends after [total]
    elements.  The regime where randomized local piles pay Θ(n). *)

type point = {
  procs : int;
  elapsed : int;
  normalized : float; (** elapsed / (dequeues per dequeuer) *)
  consumed : int;
  rt : Etrace.Histogram.summary;
      (** per-element response times (enqueue to dequeue, cycles) *)
}

val run :
  ?seed:int ->
  ?total:int ->
  procs:int ->
  (procs:int -> int Pool_obj.pool) ->
  point
(** [procs] must be even and >= 2. *)

val to_json : method_name:string -> point -> Report.json
(** One BENCH_fig10.json point, tagged ["kind": "response_time"]. *)

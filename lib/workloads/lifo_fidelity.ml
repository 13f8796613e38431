(* Quantifying the stack-like pool's "LIFO-ishness" (paper §3).

   The paper motivates the stack-like pool with applications that
   "would perform just as well if LIFO would be kept among all but a
   small fraction of operations" — but never measures that fraction.
   This workload does: processors run the produce-consume loop against
   the stack-like pool; a shadow multiset, updated at operation
   completion order (exact under the single-threaded simulator),
   records the set of elements present, each stamped with its push
   completion time.  A pop is a "LIFO hit" if it returns the
   most-recently-pushed element still present.  We report the hit
   fraction, plus the same measurement for a plain FIFO-leaf pool as
   the floor and for eliminated handoffs counted separately (an
   eliminated pair is trivially LIFO: the element popped is the newest
   one — it was never even buffered). *)

module E = Sim.Engine

type point = {
  procs : int;
  pops : int;
  lifo_hits : int;       (* pops that returned the newest present element *)
  hit_fraction : float;
  mean_rank : float;
      (* mean normalized recency rank of popped elements: 0 = newest
         present, 1 = oldest present; a strict stack scores 0, a strict
         queue scores 1 *)
}

(* Shadow model: a push-completion-ordered list of present elements.
   Sizes stay small (in-flight surplus only), so a list is fine. *)
type 'v shadow = { mutable present : (int * 'v) list; mutable stamp : int }

let run ?(seed = 1) ?(horizon = 150_000) ~procs
    (make : procs:int -> int Pool_obj.pool) =
  let pool = make ~procs in
  let shadow = { present = []; stamp = 0 } in
  (* An eliminated pair's pop can complete before its push returns; such
     a value is remembered here so the late push does not resurrect it. *)
  let pending = Hashtbl.create 64 in
  let pops = ref 0 and hits = ref 0 in
  let rank_total = ref 0.0 in
  let note_push v =
    if Hashtbl.mem pending v then Hashtbl.remove pending v
    else begin
      shadow.stamp <- shadow.stamp + 1;
      shadow.present <- (shadow.stamp, v) :: shadow.present
    end
  in
  let note_pop v =
    incr pops;
    match
      List.find_index (fun (_, x) -> x = v) shadow.present
    with
    | Some rank ->
        if rank = 0 then incr hits;
        let n = List.length shadow.present in
        if n > 1 then
          rank_total := !rank_total +. (float_of_int rank /. float_of_int (n - 1));
        shadow.present <- List.filter (fun (_, x) -> x <> v) shadow.present
    | None ->
        (* Direct handoff (elimination before the push completed): the
           popped element is the newest in existence — a LIFO hit of
           rank 0. *)
        incr hits;
        Hashtbl.replace pending v ()
  in
  let stats =
    Sim.run ~seed ~procs ~abort_after:((horizon * 4) + 2_000_000) (fun p ->
        let i = ref 0 in
        while E.now () < horizon do
          let v = (p * 1_000_000) + !i in
          incr i;
          pool.Pool_obj.enqueue v;
          note_push v;
          (match pool.Pool_obj.dequeue ~stop:(fun () -> false) with
          | Some got -> note_pop got
          | None -> assert false);
          E.delay (E.random_int 64)
        done)
  in
  if stats.aborted_procs > 0 then failwith "lifo_fidelity: stuck processors";
  {
    procs;
    pops = !pops;
    lifo_hits = !hits;
    hit_fraction =
      (if !pops = 0 then 0.0 else float_of_int !hits /. float_of_int !pops);
    mean_rank =
      (if !pops = 0 then 0.0 else !rank_total /. float_of_int !pops);
  }

(* The centralized pool of the paper's Figure 5: a cyclic array indexed
   by two shared counters.  An enqueuer fetches a slot from the head
   counter and CASes its element into the (possibly still occupied)
   slot; a dequeuer fetches a slot from the tail counter, waits for the
   slot to fill, and CASes the element out.

   The paper's "MCS", "Ctree-n" and "Dtree" produce/consume methods are
   all this pool with different counter implementations — pass them in
   as {!Sync.Counter.t} values. *)

module Make (E : Engine.S) = struct
  type 'v t = {
    slots : 'v option E.cells;
    head : Sync.Counter.t; (* enqueue ticket dispenser *)
    tail : Sync.Counter.t; (* dequeue ticket dispenser *)
    poll : int;            (* cycles between slot re-checks *)
  }

  (* [size] must exceed the maximum possible surplus of enqueues over
     dequeues plus the number of concurrent operations ("N must be
     chosen optimally", Fig. 5). *)
  let create ?(poll = 16) ~size ~head ~tail () =
    if size < 1 then invalid_arg "Central_pool.create";
    { slots = E.cells size None; head; tail; poll }

  let enqueue t v =
    let i = Sync.Counter.fetch_and_inc t.head mod E.cells_length t.slots in
    let slot = E.cells_get t.slots i in
    let rec attempt () =
      if E.compare_and_set slot None (Some v) then ()
      else begin
        (* Slot still holds an element a slow dequeuer has not taken:
           wait for it to drain. *)
        E.delay t.poll;
        attempt ()
      end
    in
    attempt ()

  (* Occupied slots; exact when quiescent (engine-level reads: call
     inside a simulator run). *)
  let residue t =
    let rec count i acc =
      if i = E.cells_length t.slots then acc
      else
        count (i + 1)
          (match E.get (E.cells_get t.slots i) with
          | Some _ -> acc + 1
          | None -> acc)
    in
    count 0 0

  let dequeue ?(stop = fun () -> false) t =
    let i = Sync.Counter.fetch_and_inc t.tail mod E.cells_length t.slots in
    let slot = E.cells_get t.slots i in
    let rec attempt () =
      match E.get slot with
      | Some v as el ->
          if E.compare_and_set slot el None then Some v
          else begin
            E.delay t.poll;
            attempt ()
          end
      | None ->
          if stop () then None
          else begin
            E.delay t.poll;
            attempt ()
          end
    in
    attempt ()
end

(* The Mellor-Crummey & Scott queue lock [15].

   Waiters form a linked queue through per-processor nodes and each
   spins only on its own node's [locked] flag, so an acquire generates
   no traffic on shared locations while it waits.  Admission is FIFO —
   the "fairness" property Theorem 2.2 of the paper relies on for
   bounded-time access to the leaf pools and toggle bits.

   Physical-equality note: the tail cell stores the *preallocated*
   [Some node] box kept inside each node ([node.some]), never a fresh
   [Some _], so the release-time [compare_and_set tail node.some None]
   compares the very box the acquire installed. *)

module Make (E : Engine.S) = struct
  type node = {
    locked : bool E.cell;
    next : node option E.cell;
    mutable some : node option; (* stable [Some self] box, see above *)
  }

  type t = { tail : node option E.cell; nodes : node array }

  let make_node () =
    let n = { locked = E.cell false; next = E.cell None; some = None } in
    n.some <- Some n;
    n

  let create ?capacity () =
    let capacity =
      match capacity with Some c -> c | None -> E.nprocs ()
    in
    { tail = E.cell None; nodes = Array.init capacity (fun _ -> make_node ()) }

  let my_node t =
    let p = E.pid () in
    if p >= Array.length t.nodes then
      invalid_arg "Mcs_lock: pid exceeds lock capacity";
    t.nodes.(p)

  let acquire t =
    let node = my_node t in
    E.set node.next None;
    E.set node.locked true;
    match E.exchange t.tail node.some with
    | None -> () (* the queue was empty: lock acquired *)
    | Some pred ->
        E.set pred.next node.some;
        (* Local spinning: [node.locked] is written only by the
           predecessor's release. *)
        if Etrace.on Etrace.lv_events then
          Etrace.emit
            (Etrace.Event.Spin_begin { pid = E.pid (); time = E.now () });
        ignore (E.spin_until node.locked not);
        if Etrace.on Etrace.lv_events then
          Etrace.emit (Etrace.Event.Spin_end { pid = E.pid (); time = E.now () })

  let release t =
    let node = my_node t in
    match E.get node.next with
    | Some succ -> E.set succ.locked false
    | None ->
        if E.compare_and_set t.tail node.some None then ()
        else begin
          (* A successor is between its exchange and linking in: wait
             for the link, then hand over. *)
          if Etrace.on Etrace.lv_events then
            Etrace.emit
              (Etrace.Event.Spin_begin { pid = E.pid (); time = E.now () });
          let succ = Option.get (E.spin_until node.next Option.is_some) in
          E.set succ.locked false;
          if Etrace.on Etrace.lv_events then
            Etrace.emit
              (Etrace.Event.Spin_end { pid = E.pid (); time = E.now () })
        end

  let with_lock t f =
    acquire t;
    match f () with
    | v ->
        release t;
        v
    | exception e ->
        release t;
        raise e
end

(* Anderson's array-based queue lock [2] — the other queue-lock-based
   pool construction cited in the paper's introduction.

   A fetch&add ticket indexes a circular array of "has lock" flags; each
   waiter spins on its own slot, and release sets the next slot.  Same
   FIFO behaviour as MCS with simpler state, but the array must be sized
   to the maximum number of concurrent waiters, and on real machines the
   slots should be padded to distinct cache lines (the engines model
   each cell as its own location, which is the padded layout). *)

module Make (E : Engine.S) = struct
  type t = {
    flags : bool E.cell array;
    next_ticket : int E.cell;
    my_slot : int array; (* per-processor slot, written under the lock *)
  }

  let create ?capacity () =
    let capacity =
      match capacity with Some c -> c | None -> E.nprocs ()
    in
    if capacity < 1 then invalid_arg "Anderson_lock.create";
    {
      flags = Array.init capacity (fun i -> E.cell (i = 0));
      next_ticket = E.cell 0;
      my_slot = Array.make capacity 0;
    }

  let acquire t =
    let n = Array.length t.flags in
    let slot = E.fetch_and_add t.next_ticket 1 mod n in
    t.my_slot.(E.pid ()) <- slot;
    ignore (E.spin_until t.flags.(slot) Fun.id)

  let release t =
    let n = Array.length t.flags in
    let slot = t.my_slot.(E.pid ()) in
    E.set t.flags.(slot) false;
    E.set t.flags.((slot + 1) mod n) true

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

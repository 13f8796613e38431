(* A test-and-test-and-set lock with randomized exponential backoff.

   Kept as a contrast baseline for the lock tests and as the cheap
   per-node monitor lock inside the combining tree, where at most a
   handful of processors ever contend on one node. *)

module Make (E : Engine.S) = struct
  module Backoff = Backoff.Make (E)

  type t = bool E.cell

  let create () : t = E.cell false

  let acquire t =
    let b = Backoff.create () in
    let rec attempt () =
      ignore (E.spin_until t not);
      if E.compare_and_set t false true then ()
      else begin
        Backoff.once b;
        attempt ()
      end
    in
    attempt ()

  let try_acquire t = (not (E.get t)) && E.compare_and_set t false true

  let release t = E.set t false

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

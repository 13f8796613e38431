(* A lock-free, kind-aware exchanger slot (in the style of Scherer, Lea
   & Scott), the building block of the elimination-backoff stack.

   A party posts an offer (its kind and value) into the slot and waits a
   bounded time for a partner of the *opposite* kind to claim it.  The
   claimant removes the offer and deposits its own value in the offer's
   reply cell.  This is the paper's eliminating collision re-derived on
   a single location: the same announce / claim-by-CAS / read-the-reply
   structure as the Location protocol, with physical identity of the
   offer record as the claim ticket. *)

module Make (E : Engine.S) = struct
  type kind = Push | Pop

  type 'a offer = {
    kind : kind;
    value : 'a option;               (* Some for Push, None for Pop *)
    reply : 'a option option E.cell; (* None = pending; Some v = matched *)
  }

  type 'a slot_state = Empty | Offered of 'a offer

  type 'a t = 'a slot_state E.cell

  let create () : 'a t = E.cell Empty

  (* Attempt one exchange of bounded duration.  Returns:
     - [Some v]: matched a partner; [v] is the partner's payload
       ([Some x] when the partner was a Push, [None] for a Pop);
     - [None]: no partner showed up (or an incompatible one occupied
       the slot): caller should retry its main path. *)
  let exchange t ~kind ~value ~patience =
    match E.get t with
    | Offered his as seen when his.kind <> kind ->
        (* Opposite party waiting: claim it. *)
        if E.compare_and_set t seen Empty then begin
          E.set his.reply (Some value);
          Some his.value
        end
        else None
    | Offered _ -> None (* same kind: no elimination possible here *)
    | Empty -> (
        let mine = { kind; value; reply = E.cell None } in
        let posted = Offered mine in
        if not (E.compare_and_set t Empty posted) then None
        else begin
          (* Wait out our patience, then try to withdraw. *)
          E.delay patience;
          match E.get mine.reply with
          | Some payload -> Some payload
          | None ->
              if E.compare_and_set t posted Empty then None (* withdrew *)
              else begin
                (* A claimant beat our withdrawal: its reply is one
                   write away.  Spin for it. *)
                E.spin_until mine.reply Option.is_some
              end
        end)
end

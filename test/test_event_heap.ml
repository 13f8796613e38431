(* Direct property tests for Sim.Event_heap — the event wheel's
   overflow tier, which the @allocheck census certifies as zero-alloc.
   The properties pin the behavioral contract that the
   allocation-driven rewrites (flat key arrays, bottom-up sifts,
   min_time/pop_min) must preserve: exact (time, seq) ordering,
   duplicate-key insertion-order tie-break, and agreement between the
   allocating [pop] and the zero-alloc [min_time]/[pop_min] pair, each
   checked against a sorted-list model or against each other under
   interleaved pushes and pops. *)

module H = Sim.Event_heap

let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Model: an association list kept sorted by (time, seq)               *)
(* ------------------------------------------------------------------ *)

let model_push model ~time ~seq payload = (time, seq, payload) :: model

let model_pop model =
  match
    List.sort
      (fun (t1, s1, _) (t2, s2, _) -> compare (t1, s1) (t2, s2))
      model
  with
  | [] -> (None, model)
  | ((t, s, _) as hd) :: _ ->
      (Some (t, s), List.filter (fun e -> e <> hd) model)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_pop_sorted =
  QCheck.Test.make ~name:"pop drains in sorted (time, seq) order" ~count:300
    QCheck.(list (int_bound 100))
    (fun times ->
      let h = H.create () in
      List.iteri (fun seq time -> H.push h ~time ~seq seq) times;
      let rec drain acc =
        match H.pop h with
        | None -> List.rev acc
        | Some (t, s, _) -> drain ((t, s) :: acc)
      in
      let popped = drain [] in
      popped = List.sort compare popped
      && List.length popped = List.length times
      && H.is_empty h)

(* Many events at the SAME instant must come back in insertion order —
   the seq tie-break is what makes whole simulations deterministic. *)
let prop_duplicate_keys =
  QCheck.Test.make ~name:"duplicate times pop in insertion (seq) order"
    ~count:300
    QCheck.(pair (int_bound 5) (list (int_bound 3)))
    (fun (base, times) ->
      let h = H.create () in
      (* Map every time into a tiny range so collisions are the norm. *)
      List.iteri (fun seq t -> H.push h ~time:(base + t) ~seq seq) times;
      let rec drain acc =
        match H.pop h with
        | None -> List.rev acc
        | Some (t, s, p) -> drain ((t, s, p) :: acc)
      in
      let popped = drain [] in
      (* Within each time bucket, seqs strictly increase. *)
      let rec buckets_ok = function
        | (t1, s1, _) :: ((t2, s2, _) :: _ as rest) ->
            (t1 < t2 || (t1 = t2 && s1 < s2)) && buckets_ok rest
        | _ -> true
      in
      buckets_ok popped
      (* And every payload equals its seq: nothing lost or duplicated. *)
      && List.for_all (fun (_, s, p) -> s = p) popped)

(* Interleaved pushes and pops against the sorted-list model.  The
   generator emits a script of operations; seq numbers increase
   monotonically across the whole script, as in the scheduler. *)
let prop_interleaved_model =
  QCheck.Test.make ~name:"interleaved push/pop agrees with sorted-list model"
    ~count:300
    QCheck.(list (option (int_bound 50)))
    (fun script ->
      let h = H.create () in
      let model = ref [] in
      let seq = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | Some time ->
              H.push h ~time ~seq:!seq !seq;
              model := model_push !model ~time ~seq:!seq !seq;
              incr seq
          | None -> (
              let expected, model' = model_pop !model in
              model := model';
              match (H.pop h, expected) with
              | None, None -> ()
              | Some (t, s, _), Some (t', s') ->
                  if (t, s) <> (t', s') then ok := false
              | Some _, None | None, Some _ -> ok := false))
        script;
      !ok && H.length h = List.length !model)

(* The zero-alloc pair (min_time + pop_min) must agree with pop exactly:
   run the same script against two heaps, reading one through each
   interface. *)
let prop_pop_min_equiv =
  QCheck.Test.make ~name:"min_time/pop_min agree with pop" ~count:300
    QCheck.(list (option (int_bound 50)))
    (fun script ->
      let h1 = H.create () and h2 = H.create () in
      let seq = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | Some time ->
              H.push h1 ~time ~seq:!seq !seq;
              H.push h2 ~time ~seq:!seq !seq;
              incr seq
          | None -> (
              match H.pop h1 with
              | None -> if not (H.is_empty h2) then ok := false
              | Some (t, _, p) ->
                  if H.is_empty h2 then ok := false
                  else begin
                    let t' = H.min_time h2 in
                    let p' = H.pop_min h2 in
                    if t <> t' || p <> p' then ok := false
                  end))
        script;
      !ok && H.length h1 = H.length h2)

(* ------------------------------------------------------------------ *)
(* Unit edges                                                          *)
(* ------------------------------------------------------------------ *)

let test_empty_raises () =
  let h : int H.t = H.create () in
  Alcotest.check_raises "min_time on empty"
    (Invalid_argument "Event_heap.min_time: empty heap") (fun () ->
      ignore (H.min_time h));
  Alcotest.check_raises "pop_min on empty"
    (Invalid_argument "Event_heap.pop_min: empty heap") (fun () ->
      ignore (H.pop_min h))

let test_pop_min_then_empty () =
  let h = H.create () in
  H.push h ~time:7 ~seq:0 "only";
  check_int "min_time" 7 (H.min_time h);
  Alcotest.(check string) "pop_min" "only" (H.pop_min h);
  Alcotest.(check bool) "empty" true (H.is_empty h);
  Alcotest.(check (option (triple int int string))) "pop on empty" None
    (H.pop h)

let test_grow_across_doubling () =
  (* Push past the initial capacity (64) and one doubling beyond. *)
  let h = H.create () in
  for i = 0 to 299 do
    H.push h ~time:(299 - i) ~seq:i i
  done;
  check_int "length" 300 (H.length h);
  let last = ref (-1) in
  for _ = 0 to 299 do
    let t = H.min_time h in
    ignore (H.pop_min h);
    Alcotest.(check bool) "nondecreasing" true (t >= !last);
    last := t
  done;
  Alcotest.(check bool) "drained" true (H.is_empty h)

let () =
  let qcheck = QCheck_alcotest.to_alcotest in
  Alcotest.run "event_heap"
    [
      ( "properties",
        [
          qcheck prop_pop_sorted;
          qcheck prop_duplicate_keys;
          qcheck prop_interleaved_model;
          qcheck prop_pop_min_equiv;
        ] );
      ( "edges",
        [
          Alcotest.test_case "empty accessors raise" `Quick test_empty_raises;
          Alcotest.test_case "single entry via pop_min" `Quick
            test_pop_min_then_empty;
          Alcotest.test_case "growth across doublings" `Quick
            test_grow_across_doubling;
        ] );
    ]

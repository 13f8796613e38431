(* Model-equivalence tests for Sim.Event_wheel, the step loop's event
   queue.  Scripts shaped like the scheduler's traffic (at most one
   entry per pid, a fresh seq per insertion, times at or after the
   current time, defers and drops, a horizon drain whose callback parks
   more events, some before the wheel's cursor) must take entries out
   in the same (time, seq, pid) order as Sim.Event_heap fed the same
   script.  Unit cases pin the edges the argument in event_wheel.ml
   rests on. *)

module W = Sim.Event_wheel
module H = Sim.Event_heap

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Scripts                                                             *)
(* ------------------------------------------------------------------ *)

type op =
  | Next of int option
      (** take the earliest entry; re-queue its pid this many cycles
          after its time (a park or a defer), or drop it *)
  | Wake of int * int
      (** queue pid [i mod procs], if it has no entry, this many
          cycles after the current time *)

type script = {
  procs : int;
  starts : int list;  (** each pid's first entry, as a time *)
  ops : op list;
  unwind : int list;
      (** during the final drain, the first drained pids re-queue this
          many cycles after the current time, which can be before the
          wheel's cursor *)
}

(* Offsets from the current time: mostly inside the window, often at its
   1,024-cycle edge, sometimes far past it. *)
let gap =
  QCheck.Gen.(
    frequency
      [
        (8, int_range 0 12);
        (3, int_range 1020 1028);
        (1, int_range 1029 5000);
        (1, int_range 5000 100_000);
      ])

let script_gen =
  QCheck.Gen.(
    int_range 1 12 >>= fun procs ->
    list_repeat procs gap >>= fun starts ->
    list_size (int_range 0 200)
      (frequency
         [
           (6, map (fun g -> Next (Some g)) gap);
           (1, return (Next None));
           (2, map2 (fun i g -> Wake (i, g)) (int_bound 11) gap);
         ])
    >>= fun ops ->
    list_size (int_range 0 6) (int_range 0 12) >>= fun unwind ->
    return { procs; starts; ops; unwind })

let print_script s =
  let ints l = String.concat ";" (List.map string_of_int l) in
  let op = function
    | Next None -> "drop"
    | Next (Some g) -> Printf.sprintf "next+%d" g
    | Wake (i, g) -> Printf.sprintf "wake %d+%d" i g
  in
  Printf.sprintf "procs %d starts [%s] ops [%s] unwind [%s]" s.procs
    (ints s.starts)
    (String.concat ";" (List.map op s.ops))
    (ints s.unwind)

(* The two queues behind one interface: [next] removes the earliest
   entry and returns its (time, pid). *)
type queue = {
  push : time:int -> seq:int -> int -> unit;
  is_empty : unit -> bool;
  next : unit -> int * int;
  drain : (int -> unit) -> unit;
}

let heap_queue () =
  let h = H.create () in
  {
    push = (fun ~time ~seq p -> H.push h ~time ~seq p);
    is_empty = (fun () -> H.is_empty h);
    next =
      (fun () ->
        match H.pop h with
        | Some (time, _, p) -> (time, p)
        | None -> Alcotest.fail "pop on an empty heap");
    drain = (fun f -> H.drain h (fun _ _ p -> f p));
  }

(* An entry comes out with [pop_due ~horizon:max_int] and its time is
   the cursor.  The drain starts where a horizon check leaves the
   wheel: a [pop_due] that finds its head past the horizon has moved
   the cursor to it. *)
let take w =
  let p = W.pop_due w ~horizon:max_int in
  if p < 0 then Alcotest.fail "pop_due on a non-empty wheel found nothing";
  (W.cursor w, p)

let wheel_queue w =
  {
    push = (fun ~time ~seq p -> W.push w ~time ~seq p);
    is_empty = (fun () -> W.is_empty w);
    next = (fun () -> take w);
    drain =
      (fun f ->
        check_int "nothing is due before min_int" (-1)
          (W.pop_due w ~horizon:min_int);
        W.drain w ~next:W.no_members f);
  }

(* Run [s] against [q]; returns every entry taken out, as
   (time, seq, pid), in order. *)
let interpret q s =
  let seq = ref 0 and now = ref 0 and out = ref [] in
  let due = Array.make s.procs (-1) and seq_of = Array.make s.procs 0 in
  let push p time =
    q.push ~time ~seq:!seq p;
    due.(p) <- time;
    seq_of.(p) <- !seq;
    incr seq
  in
  let take p time =
    due.(p) <- -1;
    out := (time, seq_of.(p), p) :: !out
  in
  List.iteri push s.starts;
  List.iter
    (function
      | Next again ->
          if not (q.is_empty ()) then begin
            let time, p = q.next () in
            take p time;
            now := time;
            Option.iter (fun g -> push p (time + g)) again
          end
      | Wake (i, g) ->
          let p = i mod s.procs in
          if due.(p) < 0 then push p (!now + g))
    s.ops;
  let unwind = ref s.unwind in
  q.drain (fun p ->
      take p due.(p);
      match !unwind with
      | g :: rest ->
          unwind := rest;
          push p (!now + g)
      | [] -> ());
  List.rev !out

let prop_matches_heap =
  QCheck.Test.make ~name:"takes entries out in Event_heap's order" ~count:500
    (QCheck.make ~print:print_script script_gen)
    (fun s ->
      let w = W.create ~procs:s.procs in
      let from_wheel = interpret (wheel_queue w) s in
      let empty = W.is_empty w in
      W.release w;
      empty && from_wheel = interpret (heap_queue ()) s)

(* ------------------------------------------------------------------ *)
(* Unit edges                                                          *)
(* ------------------------------------------------------------------ *)

let check_take msg w expected =
  Alcotest.(check (pair int int)) msg expected (take w)

(* An empty wheel whose only entry waits far ahead in the overflow heap:
   the cursor jumps there, and later entries at that time follow it. *)
let test_cursor_jump () =
  let w = W.create ~procs:3 in
  W.push w ~time:100_000 ~seq:0 0;
  check_int "nothing due by 99,999" (-1) (W.pop_due w ~horizon:99_999);
  check_int "jumps" 100_000 (W.cursor w);
  W.push w ~time:100_000 ~seq:1 1;
  W.push w ~time:100_003 ~seq:2 2;
  check_take "overflow entry first" w (100_000, 0);
  check_take "then the direct insertion" w (100_000, 1);
  check_take "then the next cycle" w (100_003, 2);
  Alcotest.(check bool) "empty" true (W.is_empty w);
  W.release w

(* Pid 0 waits in the overflow heap at 2,000; once the window reaches it,
   a later insertion at the same time must come after it. *)
let test_overflow_precedes_later_insert () =
  let w = W.create ~procs:2 in
  W.push w ~time:2000 ~seq:0 0;
  W.push w ~time:1000 ~seq:1 1;
  check_take "window start" w (1000, 1);
  W.push w ~time:2000 ~seq:2 1;
  check_take "older seq first" w (2000, 0);
  check_take "newer seq second" w (2000, 1);
  W.release w

(* The window's last cycle sits in the wheel and the next one in the
   overflow heap; both come out in time order. *)
let test_window_edge () =
  let w = W.create ~procs:3 in
  W.push w ~time:1024 ~seq:0 0;
  W.push w ~time:1023 ~seq:1 1;
  W.push w ~time:0 ~seq:2 2;
  check_take "now" w (0, 2);
  check_take "last cycle of the window" w (1023, 1);
  check_take "first cycle past it" w (1024, 0);
  W.release w

let test_push_before_cursor_rejected () =
  let w = W.create ~procs:2 in
  W.push w ~time:10 ~seq:0 0;
  check_int "due at 10" (-1) (W.pop_due w ~horizon:9);
  check_int "cursor" 10 (W.cursor w);
  Alcotest.check_raises "due before the cursor"
    (Invalid_argument "Event_wheel.push: due before the cursor") (fun () ->
      W.push w ~time:9 ~seq:1 1);
  W.release w

let test_pop_due_empty () =
  let w = W.create ~procs:1 in
  check_int "an empty wheel has nothing due" (-1)
    (W.pop_due w ~horizon:max_int);
  W.release w

(* An entry due after the horizon stays queued, and the drain after it
   hands it over in key order. *)
let test_pop_due_past_horizon () =
  let w = W.create ~procs:3 in
  W.push w ~time:50 ~seq:0 2;
  W.push w ~time:40 ~seq:1 0;
  W.push w ~time:40 ~seq:2 1;
  check_int "past the horizon" (-1) (W.pop_due w ~horizon:39);
  check_bool "still queued" false (W.is_empty w);
  let drained = ref [] in
  W.drain w ~next:W.no_members (fun p -> drained := p :: !drained);
  Alcotest.(check (list int)) "drained in key order" [ 0; 1; 2 ]
    (List.rev !drained);
  check_bool "empty" true (W.is_empty w);
  W.release w

let test_pop_due_at_horizon () =
  let w = W.create ~procs:2 in
  W.push w ~time:30 ~seq:0 1;
  check_int "due at the horizon" 1 (W.pop_due w ~horizon:30);
  check_int "its time" 30 (W.cursor w);
  check_bool "empty" true (W.is_empty w);
  W.release w

(* A queue released with entries left (its run raised) hands on empty
   buckets: the next queue must not find the stale entry at 5. *)
let test_release_clears () =
  let w = W.create ~procs:2 in
  W.push w ~time:5 ~seq:0 0;
  W.push w ~time:7 ~seq:1 1;
  W.release w;
  let w = W.create ~procs:2 in
  W.push w ~time:9 ~seq:0 1;
  check_take "no stale entry" w (9, 1);
  Alcotest.(check bool) "empty" true (W.is_empty w);
  W.release w

(* [head] is the next entry due at the cursor; [drop_head] takes it
   without a walk, and an entry due later is no head. *)
let test_head () =
  let w = W.create ~procs:3 in
  W.push w ~time:3 ~seq:0 0;
  W.push w ~time:3 ~seq:1 1;
  W.push w ~time:4 ~seq:2 2;
  check_take "first" w (3, 0);
  check_int "the next entry due now" 1 (W.head w);
  W.drop_head w;
  check_int "nothing else is due now" (-1) (W.head w);
  check_take "the later entry" w (4, 2);
  check_bool "empty" true (W.is_empty w);
  W.release w

(* Entries standing for chains of pids unwind member by member, each
   under the key it would have had alone: pid 0 stands for 0, 1, 2
   (seqs 0-2) at 5, and pid 4 for 4, 5 (seqs 4-5) at 2,000, in the
   overflow tier.  Draining 0 queues pid 7 at 5 under a fresh seq,
   after the spilled entries due then; draining 4 queues pid 8 at
   2,000, after 4's members and 6. *)
let test_drain_chains () =
  let w = W.create ~procs:9 in
  let chain = [| 1; 2; -1; -1; 5; -1; -1; -1; -1 |] in
  let next p =
    let m = chain.(p) in
    chain.(p) <- -1;
    m
  in
  W.push w ~time:5 ~seq:0 0;
  W.push w ~time:5 ~seq:3 3;
  W.push w ~time:2_000 ~seq:4 4;
  W.push w ~time:2_000 ~seq:6 6;
  check_int "nothing due by 4" (-1) (W.pop_due w ~horizon:4);
  let drained = ref [] in
  W.drain w ~next (fun p ->
      drained := p :: !drained;
      if p = 0 then W.push w ~time:5 ~seq:7 7;
      if p = 4 then W.push w ~time:2_000 ~seq:8 8);
  Alcotest.(check (list int)) "member by member, in key order"
    [ 0; 1; 2; 3; 7; 4; 5; 6; 8 ] (List.rev !drained);
  check_bool "empty" true (W.is_empty w);
  W.release w

(* [shift] moves every entry and the cursor by any number of cycles,
   each bucket keeping its FIFO: 1,000,003 cycles is 579 past a whole
   number of windows, so the buckets wrap round the array's end.  An
   entry in the overflow tier forbids a shift. *)
let test_shift () =
  let w = W.create ~procs:5 in
  W.push w ~time:1_000 ~seq:0 0;
  check_take "the cursor at 1,000" w (1_000, 0);
  W.push w ~time:1_020 ~seq:1 1;
  W.push w ~time:1_030 ~seq:2 2;
  W.push w ~time:1_020 ~seq:3 3;
  W.push w ~time:1_500 ~seq:4 4;
  let by = 1_000_003 in
  W.shift w ~by;
  check_int "the cursor moved" (1_000 + by) (W.cursor w);
  check_int "nothing due before the first entry" (-1)
    (W.pop_due w ~horizon:(1_019 + by));
  check_take "first in its bucket" w (1_020 + by, 1);
  check_take "second in its bucket" w (1_020 + by, 3);
  check_take "the next bucket" w (1_030 + by, 2);
  check_take "the last" w (1_500 + by, 4);
  check_bool "empty" true (W.is_empty w);
  W.push w ~time:(W.cursor w + 2_000) ~seq:5 0;
  check_bool "the overflow tier holds it" true (W.spills w);
  Alcotest.check_raises "no shift past an overflow entry"
    (Invalid_argument "Event_wheel.shift: the overflow tier holds an entry")
    (fun () -> W.shift w ~by:7);
  W.release w

let () =
  Alcotest.run "event_wheel"
    [
      ("model", [ QCheck_alcotest.to_alcotest prop_matches_heap ]);
      ( "edges",
        [
          Alcotest.test_case "cursor jump" `Quick test_cursor_jump;
          Alcotest.test_case "overflow precedes a later insertion" `Quick
            test_overflow_precedes_later_insert;
          Alcotest.test_case "window edge" `Quick test_window_edge;
          Alcotest.test_case "push before the cursor rejected" `Quick
            test_push_before_cursor_rejected;
          Alcotest.test_case "pop_due on an empty wheel" `Quick
            test_pop_due_empty;
          Alcotest.test_case "pop_due past the horizon" `Quick
            test_pop_due_past_horizon;
          Alcotest.test_case "pop_due at the horizon" `Quick
            test_pop_due_at_horizon;
          Alcotest.test_case "release clears leftovers" `Quick
            test_release_clears;
          Alcotest.test_case "head of the cursor's bucket" `Quick test_head;
          Alcotest.test_case "chains drain member by member" `Quick
            test_drain_chains;
          Alcotest.test_case "shift keeps every bucket's order" `Quick
            test_shift;
        ] );
    ]

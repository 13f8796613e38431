(* Tests for the simulator substrate: event heap ordering, PRNG
   determinism, clock semantics, per-location serialization, abort,
   the controller contract and lazily materialised cell arrays. *)

module E = Sim.Engine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Event heap                                                          *)
(* ------------------------------------------------------------------ *)

let test_heap_basic () =
  let h = Sim.Event_heap.create () in
  Alcotest.(check bool) "empty" true (Sim.Event_heap.is_empty h);
  Sim.Event_heap.push h ~time:5 ~seq:0 "a";
  Sim.Event_heap.push h ~time:3 ~seq:1 "b";
  Sim.Event_heap.push h ~time:5 ~seq:2 "c";
  Sim.Event_heap.push h ~time:1 ~seq:3 "d";
  check_int "length" 4 (Sim.Event_heap.length h);
  let pop () =
    match Sim.Event_heap.pop h with
    | Some (_, _, x) -> x
    | None -> Alcotest.fail "unexpected empty heap"
  in
  Alcotest.(check string) "first" "d" (pop ());
  Alcotest.(check string) "second" "b" (pop ());
  Alcotest.(check string) "third (same time, lower seq)" "a" (pop ());
  Alcotest.(check string) "fourth" "c" (pop ());
  Alcotest.(check bool) "empty again" true (Sim.Event_heap.is_empty h)

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap pops in (time, seq) order" ~count:200
    QCheck.(list (int_bound 1000))
    (fun times ->
      let h = Sim.Event_heap.create () in
      List.iteri (fun seq time -> Sim.Event_heap.push h ~time ~seq seq) times;
      let rec drain acc =
        match Sim.Event_heap.pop h with
        | None -> List.rev acc
        | Some (time, seq, _) -> drain ((time, seq) :: acc)
      in
      let popped = drain [] in
      let sorted = List.sort compare popped in
      popped = sorted && List.length popped = List.length times)

(* ------------------------------------------------------------------ *)
(* Splitmix PRNG                                                       *)
(* ------------------------------------------------------------------ *)

module Splitmix = Engine.Splitmix

let test_splitmix_deterministic () =
  let a = Splitmix.of_int 42 and b = Splitmix.of_int 42 in
  for _ = 1 to 100 do
    check_bool "same stream" true
      (Splitmix.next_int64 a = Splitmix.next_int64 b)
  done

(* The first outputs of a few streams, recorded from the generator as it
   stood when its state was a mutable int64 record field: the state's
   representation may change, the streams may not. *)
let splitmix_golden =
  [
    ( "of_int 0",
      Splitmix.of_int 0,
      [ -2152535657050944081L; 7960286522194355700L; 487617019471545679L;
        -537132696929009172L; 1961750202426094747L; 6038094601263162090L;
        3207296026000306913L; -4214222208109204676L ] );
    ( "of_int 1",
      Splitmix.of_int 1,
      [ -7995527694508729151L; -4689498862643123097L; -534904783426661026L;
        8196980753821780235L; 8195237237126968761L; -4373826470845021568L;
        -2262517385565684571L; -8797857673641491083L ] );
    ( "of_int 42",
      Splitmix.of_int 42,
      [ -4767286540954276203L; 2949826092126892291L; 5139283748462763858L;
        6349198060258255764L; 701532786141963250L; -2430762948046562554L;
        4028864712777624925L; -3677692746721775708L ] );
    ( "split 0",
      Splitmix.split (Splitmix.of_int 0x5eed) ~index:0,
      [ 1739450287936995314L; -997271472376969846L; 3841856785604208614L;
        5268032418193817869L; 6330547800751531192L; 478799720738229138L;
        -7231130382352312796L; 2698076015467733388L ] );
    ( "split 1",
      Splitmix.split (Splitmix.of_int 0x5eed) ~index:1,
      [ 3545873537760263682L; -9099901469123942050L; -8962434086028744770L;
        -6352795178501992639L; 7972832879620726926L; 4198329693399668811L;
        -4610331531952182186L; -2740641529510383800L ] );
    ( "split 2",
      Splitmix.split (Splitmix.of_int 0x5eed) ~index:2,
      [ 7477320409866957515L; 485030320301949732L; -2925774516712239768L;
        3857307658851212678L; 1749930276398379341L; -3583819812922976498L;
        6465573881109871073L; -7589792622343318215L ] );
  ]

let test_splitmix_golden () =
  List.iter
    (fun (name, g, expected) ->
      Alcotest.(check (list int64)) name expected
        (List.init 8 (fun _ -> Splitmix.next_int64 g)))
    splitmix_golden

let test_splitmix_bounds () =
  let r = Splitmix.of_int 7 in
  for _ = 1 to 10_000 do
    let x = Splitmix.int r 13 in
    check_bool "in range" true (x >= 0 && x < 13)
  done

let test_splitmix_split_independent () =
  let base = Splitmix.of_int 99 in
  let s0 = Splitmix.split base ~index:0
  and s1 = Splitmix.split base ~index:1 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Splitmix.next_int64 s0 = Splitmix.next_int64 s1 then incr same
  done;
  check_int "streams differ" 0 !same

let test_splitmix_uniformish () =
  let r = Splitmix.of_int 123 in
  let buckets = Array.make 8 0 in
  let n = 80_000 in
  for _ = 1 to n do
    let b = Splitmix.int r 8 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = n / 8 in
      check_bool
        (Printf.sprintf "bucket %d roughly uniform (%d)" i c)
        true
        (abs (c - expected) < expected / 5))
    buckets

let test_bernoulli () =
  let r = Splitmix.of_int 5 in
  let hits = ref 0 in
  let n = 40_000 in
  for _ = 1 to n do
    if Splitmix.bernoulli r ~num:1 ~den:4 then incr hits
  done;
  let expected = n / 4 in
  check_bool "p=1/4" true (abs (!hits - expected) < expected / 5);
  check_bool "p=0" false (Splitmix.bernoulli r ~num:0 ~den:5);
  check_bool "p=1" true (Splitmix.bernoulli r ~num:5 ~den:5)

(* ------------------------------------------------------------------ *)
(* Scheduler semantics                                                 *)
(* ------------------------------------------------------------------ *)

let cfg = Sim.Memory.default_config

let test_delay_advances_clock () =
  let stats = Sim.run ~procs:1 (fun _ -> E.delay 100; E.delay 23) in
  check_int "clock = total delay" 123 stats.end_clock

let test_now () =
  let seen = ref (-1) in
  let _ = Sim.run ~procs:1 (fun _ ->
      E.delay 50;
      seen := E.now ())
  in
  check_int "now reflects delays" 50 !seen

let test_pid_and_nprocs () =
  let pids = ref [] in
  let _ =
    Sim.run ~procs:5 (fun p ->
        check_int "pid matches body arg" p (E.pid ());
        check_int "nprocs" 5 (E.nprocs ());
        pids := p :: !pids)
  in
  Alcotest.(check (list int)) "all pids ran" [ 0; 1; 2; 3; 4 ]
    (List.sort compare !pids)

let test_rmw_serializes () =
  (* n processors all fetch&add the same cell at time 0: the location
     chain forces completion at n * rmw_latency, and each gets a distinct
     previous value. *)
  let n = 8 in
  let results = Array.make n (-1) in
  let c = E.cell 0 in
  let stats =
    Sim.run ~procs:n (fun p -> results.(p) <- E.fetch_and_add c 1)
  in
  check_int "serialized completion" (n * cfg.rmw_latency) stats.end_clock;
  let sorted = Array.to_list results |> List.sort compare in
  Alcotest.(check (list int)) "distinct previous values"
    (List.init n Fun.id) sorted

let test_reads_do_not_serialize () =
  let c = E.cell 7 in
  let stats = Sim.run ~procs:16 (fun _ -> ignore (E.get c)) in
  check_int "parallel reads" cfg.read_latency stats.end_clock

let test_writes_serialize () =
  let c = E.cell 0 in
  let stats = Sim.run ~procs:4 (fun p -> E.set c p) in
  check_int "serialized writes" (4 * cfg.write_latency) stats.end_clock

let test_exchange_chain () =
  (* Exchanges on one cell form a permutation chain: the multiset of
     {initial value} U {written values} minus one final survivor equals
     the multiset of returned values. *)
  let n = 6 in
  let c = E.cell (-1) in
  let got = Array.make n min_int in
  let _ = Sim.run ~procs:n (fun p -> got.(p) <- E.exchange c p) in
  let final = ref min_int in
  let _ = Sim.run ~procs:1 (fun _ -> final := E.get c) in
  let all = (-1) :: List.init n Fun.id in
  let returned = Array.to_list got in
  let expected = List.filter (fun x -> x <> !final) all in
  Alcotest.(check (list int)) "exchange conserves values"
    (List.sort compare expected)
    (List.sort compare returned)

let test_cas_single_winner () =
  let n = 10 in
  let c = E.cell 0 in
  let wins = ref 0 in
  let _ =
    Sim.run ~procs:n (fun p ->
        if E.compare_and_set c 0 (p + 1) then incr wins)
  in
  check_int "exactly one CAS wins" 1 !wins

let test_cas_physical_equality () =
  let _ =
    Sim.run ~procs:1 (fun _ ->
        let r = E.cell (ref 5) in
        let seen = E.get r in
        check_bool "cas against read value succeeds" true
          (E.compare_and_set r seen (ref 6));
        check_bool "cas against equal-but-distinct value fails" false
          (E.compare_and_set r (ref 6) (ref 7)))
  in
  ()

let test_determinism () =
  let trace seed =
    let log = ref [] in
    let c = E.cell 0 in
    let stats =
      Sim.run ~seed ~procs:7 (fun p ->
          for _ = 1 to 5 do
            E.delay (E.random_int 50);
            let v = E.fetch_and_add c 1 in
            log := (p, v, E.now ()) :: !log
          done)
    in
    (stats, !log)
  in
  let s1, l1 = trace 11 and s2, l2 = trace 11 in
  check_bool "stats equal" true (s1 = s2);
  check_bool "traces equal" true (l1 = l2);
  let _, l3 = trace 12 in
  check_bool "different seed, different trace" true (l1 <> l3)

let test_abort () =
  let stats =
    Sim.run ~procs:3 ~abort_after:1000 (fun _ ->
        while true do
          E.delay 10
        done)
  in
  check_int "all procs aborted" 3 stats.aborted_procs;
  check_bool "clock stopped near horizon" true (stats.end_clock <= 1000)

let test_abort_partial () =
  (* One proc finishes before the horizon, one spins forever. *)
  let stats =
    Sim.run ~procs:2 ~abort_after:500 (fun p ->
        if p = 0 then E.delay 10
        else
          while true do
            E.delay 10
          done)
  in
  check_int "one aborted" 1 stats.aborted_procs

let test_nested_runs () =
  let inner_clock = ref 0 in
  let stats =
    Sim.run ~procs:1 (fun _ ->
        E.delay 5;
        let inner = Sim.run ~procs:1 (fun _ -> E.delay 42) in
        inner_clock := inner.end_clock;
        (* Outer simulation resumes with its own clock. *)
        E.delay 5)
  in
  check_int "inner clock" 42 !inner_clock;
  check_int "outer clock" 10 stats.end_clock

let test_outside_run_raises () =
  Alcotest.check_raises "engine op outside Sim.run"
    (Failure "Sim: a simulated-engine operation was performed outside Sim.run")
    (fun () -> ignore (E.get (E.cell 0)))

let test_exception_propagates () =
  Alcotest.check_raises "proc exception escapes Sim.run" Exit (fun () ->
      ignore
        (Sim.run ~procs:2 (fun p ->
             E.delay 10;
             if p = 1 then raise Exit)))

(* A run that raises leaves events queued; the next run must not see
   them. *)
let test_run_after_exception () =
  (match
     Sim.run ~procs:3 (fun p ->
         if p = 0 then raise Exit;
         E.delay 50)
   with
  | _ -> Alcotest.fail "the run did not raise"
  | exception Exit -> ());
  let stats = Sim.run ~procs:1 (fun _ -> E.delay 5) in
  check_int "next run's clock" 5 stats.end_clock;
  check_int "next run's events" 2 stats.events_fired

let test_custom_config () =
  (* The cost model is configurable per run. *)
  let cfg = Sim.Memory.uniform_config in
  let c = E.cell 0 in
  let stats =
    Sim.run ~config:cfg ~procs:4 (fun _ -> ignore (E.fetch_and_add c 1))
  in
  check_int "uniform rmw latency" 4 stats.end_clock;
  let c2 = E.cell 0 in
  let stats2 = Sim.run ~config:cfg ~procs:8 (fun _ -> ignore (E.get c2)) in
  check_int "uniform read latency" 1 stats2.end_clock

let test_op_counters () =
  let c = E.cell 0 in
  let stats =
    Sim.run ~procs:2 (fun _ ->
        ignore (E.get c);
        E.set c 1;
        ignore (E.exchange c 2);
        ignore (E.compare_and_set c 2 3);
        ignore (E.fetch_and_add c 1))
  in
  check_int "reads counted" 2 stats.reads;
  check_int "writes counted" 2 stats.writes;
  check_int "rmws counted" 6 stats.rmws

let test_serialized_reads_config () =
  let cfg = Sim.Memory.serialized_reads_config in
  let c = E.cell 7 in
  let stats = Sim.run ~config:cfg ~procs:4 (fun _ -> ignore (E.get c)) in
  check_int "reads queue under the ablation model"
    (4 * cfg.read_latency) stats.end_clock

let test_rng_streams_differ () =
  let draws = Array.make 4 (-1) in
  let _ = Sim.run ~procs:4 (fun p -> draws.(p) <- E.random_int 1_000_000) in
  let distinct =
    Array.to_list draws |> List.sort_uniq compare |> List.length
  in
  check_bool "per-proc streams decorrelated" true (distinct >= 3)

let prop_serialization_chain =
  QCheck.Test.make ~name:"busy chain: k rmws on one cell take k*latency"
    ~count:50
    QCheck.(int_range 1 40)
    (fun k ->
      let c = E.cell 0 in
      let stats = Sim.run ~procs:k (fun _ -> ignore (E.fetch_and_add c 1)) in
      stats.end_clock = k * cfg.rmw_latency)

(* ------------------------------------------------------------------ *)
(* Step-loop equivalence with a sorted-list model                     *)
(* ------------------------------------------------------------------ *)

(* The step loop as a reference model: pending events are (time, seq,
   pid) triples in a list, and the least one is taken each step.  A
   processor starts at time 0; firing one re-parks it after its next
   delay, a deferred event is re-keyed with a fresh seq, a dropped one
   is gone.  Returns the (pid, time) firings in order. *)
let model_firings ~delays ~on_event =
  let seq = ref 0 and pending = ref [] and fired = ref [] in
  let left = Array.copy delays in
  let park p time =
    pending := (time, !seq, p) :: !pending;
    incr seq
  in
  Array.iteri (fun p _ -> park p 0) delays;
  let rec go () =
    match List.sort compare !pending with
    | [] -> List.rev !fired
    | (time, _, p) :: rest ->
        pending := rest;
        (match on_event ~pid:p ~time with
        | Sim.Scheduler.Fault_proceed -> (
            fired := (p, time) :: !fired;
            match left.(p) with
            | d :: ds ->
                left.(p) <- ds;
                park p (time + d)
            | [] -> ())
        | Sim.Scheduler.Fault_defer until -> park p (max until (time + 1))
        | Sim.Scheduler.Fault_drop -> ());
        go ()
  in
  go ()

let sim_firings ~delays ~on_event =
  let fired = ref [] in
  let note p = fired := (p, E.now ()) :: !fired in
  let injector = { Sim.Scheduler.no_injector with on_event } in
  ignore
    (Sim.run ~injector ~procs:(Array.length delays) (fun p ->
         note p;
         List.iter
           (fun d ->
             E.delay d;
             note p)
           delays.(p)));
  List.rev !fired

(* A pure injector: about one event in 16 crash-stops its processor and
   3 in 16 are deferred, some to a time at or before the event's own
   (which the scheduler moves to one cycle later). *)
let faulty ~salt ~pid ~time =
  let h = Engine.Splitmix.hash3 salt pid time in
  match h mod 16 with
  | 0 -> Sim.Scheduler.Fault_drop
  | 1 | 2 | 3 -> Sim.Scheduler.Fault_defer (time + ((h / 16) mod 5) - 1)
  | _ -> Sim.Scheduler.Fault_proceed

let prop_step_loop_model =
  QCheck.Test.make ~name:"processors fire in the model's (time, seq) order"
    ~count:200
    QCheck.(
      pair small_nat
        (array_of_size (Gen.int_range 1 8)
           (list_of_size (Gen.int_range 0 12) (int_range 1 5))))
    (fun (salt, delays) ->
      let on_event = faulty ~salt in
      sim_firings ~delays ~on_event = model_firings ~delays ~on_event)

(* Every processor spins on delays past the horizon; each one's last
   park is the event the horizon finds pending, and they must unwind in
   (time, seq) order.  Parks are numbered as they happen, which is seq
   order. *)
let test_abort_unwinds_in_key_order () =
  let delays = [| 7; 5; 9; 5; 3; 6 |] in
  let parks = ref [] and unwound = ref [] in
  let _ =
    Sim.run ~procs:(Array.length delays) ~abort_after:100 (fun p ->
        try
          while true do
            parks := (E.now () + delays.(p), List.length !parks, p) :: !parks;
            E.delay delays.(p)
          done
        with Sim.Aborted as e ->
          unwound := p :: !unwound;
          raise e)
  in
  let last p = List.find (fun (_, _, q) -> q = p) !parks in
  let expected =
    List.init (Array.length delays) last
    |> List.sort compare
    |> List.map (fun (_, _, p) -> p)
  in
  Alcotest.(check (list int)) "unwound in key order" expected
    (List.rev !unwound)

(* Events parked during the unwinding keep the order too.  The first
   processor to unwind catches [Aborted], performs one more read and
   re-raises; that read is due before every other event the horizon
   found pending (which are all past it), so it unwinds second. *)
let test_abort_unwinds_late_park_in_key_order () =
  let delays = [| 70; 50; 90; 55; 60 |] in
  let c = E.cell 0 and read = Sim.Memory.default_config.read_latency in
  let parks = ref [] and unwound = ref [] and reread = ref None in
  let _ =
    Sim.run ~procs:(Array.length delays) ~abort_after:100 (fun p ->
        try
          while true do
            parks := (E.now () + delays.(p), List.length !parks, p) :: !parks;
            E.delay delays.(p)
          done
        with Sim.Aborted as e ->
          unwound := p :: !unwound;
          if !reread = None then begin
            reread := Some (E.now () + read, List.length !parks, p);
            try ignore (E.get c) with Sim.Aborted -> unwound := p :: !unwound
          end;
          raise e)
  in
  let pending =
    List.init (Array.length delays) (fun p ->
        List.find (fun (_, _, q) -> q = p) !parks)
    |> List.sort compare
  in
  let first = List.hd pending and rest = List.tl pending in
  let reread = Option.get !reread in
  let due (time, _, _) = time in
  check_bool "the re-read is due before the other pending events" true
    (List.for_all (fun e -> due reread < due e) rest);
  let pid (_, _, p) = p in
  Alcotest.(check (list int)) "unwound in key order"
    (List.map pid (first :: reread :: rest))
    (List.rev !unwound)

let test_second_park_rejected () =
  let rejected = ref false in
  let _ =
    Sim.run ~procs:2 (fun p ->
        if p = 0 then E.delay 10
        else
          (* Processor 0 is parked on its delay by now. *)
          match
            Sim.Scheduler.park (Sim.Scheduler.the_sched ()) 0 5
              Sim.Scheduler.Start
          with
          | () -> ()
          | exception Invalid_argument _ -> rejected := true)
  in
  check_bool "second pending event rejected" true !rejected

(* ------------------------------------------------------------------ *)
(* Spin-waits                                                          *)
(* ------------------------------------------------------------------ *)

module M = Sim.Memory

(* The loop [E.spin_until] stands for, written out: the reference the
   scheduler's spinning slot must be indistinguishable from. *)
let rec spin_loop c until =
  let v = E.get c in
  if until v then v
  else begin
    E.cpu_relax ();
    spin_loop c until
  end

(* Collect every trace event of [f] at the full level. *)
let traced f =
  let events = ref [] in
  let r = Etrace.with_tracing (fun e -> events := e :: !events) f in
  (r, List.rev !events)

(* Is [p]'s parked event a spin-wait's pause? *)
let pausing (t : Sim.Scheduler.t) p =
  match t.slots.(p) with
  | Parked (_, Sim.Scheduler.Spin s) -> s.pausing
  | _ -> false

(* The last event [p] fired before the horizon: a read or a pause. *)
let last_fired p events =
  List.fold_left
    (fun acc e ->
      match e with
      | Etrace.Event.Mem_op { pid; _ } when pid = p -> `Read
      | Etrace.Event.Delay_done { pid; _ } when pid = p -> `Pause
      | _ -> acc)
    `None events

(* A lone spinner on a flag nobody sets: reads fire at 7k + 6 (default
   read latency 6) and pauses at 7k + 7, so a horizon of 7m + 3 cuts
   the wait off in its read phase, and 7m + 6 in its pause (the read
   due at the horizon still fires). *)
let test_spin_abort_phases () =
  List.iter
    (fun (horizon, last, phase) ->
      let flag = E.cell false and unwound = ref 0 in
      let stats, events =
        traced (fun () ->
            Sim.run ~procs:1 ~abort_after:horizon (fun _ ->
                try ignore (E.spin_until flag Fun.id)
                with Sim.Aborted as e ->
                  incr unwound;
                  raise e))
      in
      check_int (phase ^ ": unwound once") 1 !unwound;
      check_int (phase ^ ": counted aborted once") 1 stats.aborted_procs;
      check_bool (phase ^ ": the last event fired") true
        (last_fired 0 events = last);
      check_int (phase ^ ": one read per started iteration")
        ((horizon / 7) + 1) stats.reads)
    [ (7 * 5 + 3, `Pause, "read phase"); (7 * 5 + 6, `Read, "pause") ]

(* Processor 0 spins inside a critical section and crashes in a pause:
   its handlers never run, so the lock stays held and processor 1,
   arriving later, spins on it until the horizon. *)
module Sim_mcs = Sync.Mcs_lock.Make (Sim.Engine)

let test_spin_crash_in_pause () =
  let lock = Sim_mcs.create ~capacity:2 () and flag = E.cell false in
  let cleaned_up = ref false and entered = ref false in
  let on_event ~pid ~time =
    if pid = 0 && time >= 40 && pausing (Sim.Scheduler.the_sched ()) 0 then
      Sim.Scheduler.Fault_drop
    else Sim.Scheduler.Fault_proceed
  in
  let injector = { Sim.Scheduler.no_injector with on_event } in
  let stats =
    Sim.run ~injector ~procs:2 ~abort_after:2_000 (fun p ->
        if p = 0 then
          Sim_mcs.with_lock lock (fun () ->
              Fun.protect
                ~finally:(fun () -> cleaned_up := true)
                (fun () -> ignore (E.spin_until flag Fun.id)))
        else begin
          E.delay 100;
          Sim_mcs.with_lock lock (fun () -> entered := true)
        end)
  in
  check_int "processor 0 crash-stopped" 1 stats.crashed_procs;
  check_bool "no handler ran" false !cleaned_up;
  check_bool "the lock stayed held" false !entered;
  check_int "processor 1 spun to the horizon" 1 stats.aborted_procs

(* A stall that catches a pause defers it; the pause refires when the
   stall ends and the next read is issued then.  Pauses are due at
   7k + 7, so the one at 21 is stalled until 50. *)
let test_spin_defer_pause () =
  let flag = E.cell false and woke = ref 0 in
  let on_event ~pid ~time =
    if pid = 0 && time = 21 then Sim.Scheduler.Fault_defer 50
    else Sim.Scheduler.Fault_proceed
  in
  let injector = { Sim.Scheduler.no_injector with on_event } in
  let stats, events =
    traced (fun () ->
        Sim.run ~injector ~procs:2 (fun p ->
            if p = 0 then begin
              ignore (E.spin_until flag Fun.id);
              woke := E.now ()
            end
            else begin
              E.delay 100;
              E.set flag true
            end))
  in
  check_int "one deferral" 1 stats.fault_defers;
  let p0 =
    List.filter_map
      (function
        | Etrace.Event.Delay_done { pid = 0; issued; fired; _ } ->
            Some (`Pause, issued, fired)
        | Etrace.Event.Mem_op { pid = 0; issued; fired; _ } ->
            Some (`Read, issued, fired)
        | _ -> None)
      events
  in
  check_bool "the stalled pause refires at the stall's end" true
    (List.mem (`Pause, 20, 50) p0);
  check_bool "and the next read is issued then" true
    (List.mem (`Read, 50, 56) p0);
  (* The write commits at 108; the first read to fire after it, issued
     at 50 + 7k and due 6 later, fires at 112. *)
  check_int "the wait ends on the first read after the write" 112 !woke

(* The predicate runs in the scheduler: an engine operation there has
   no processor to perform it, and the run fails instead of hanging. *)
let test_spin_impure_predicate () =
  let flag = E.cell false and other = E.cell 0 in
  match
    Sim.run ~procs:1 ~abort_after:1_000 (fun _ ->
        ignore (E.spin_until flag (fun _ -> E.get other = 1)))
  with
  | _ -> Alcotest.fail "an effect in the predicate went unnoticed"
  | exception Effect.Unhandled _ -> ()

(* The controller sees a spinner only in its read phase, as an
   [Acc_read] of its cell; its pause is a local step fired before the
   next decision.  The injector's view of an uncontrolled run shows the
   same split from outside. *)
let test_spin_controller_view () =
  let decisions = ref 0 and pauses = ref 0 in
  let body flag p =
    if p = 0 then ignore (E.spin_until flag Fun.id)
    else begin
      E.delay 30;
      E.set flag true
    end
  in
  let flag = E.cell false in
  let controller (t : Sim.Scheduler.t) runnable =
    incr decisions;
    for p = 0 to 1 do
      if runnable land (1 lsl p) <> 0 then
        check_bool "no runnable processor is pausing" false (pausing t p)
    done;
    if runnable land 1 <> 0 then begin
      check_bool "the spinner reads its flag" true
        (Sim.Scheduler.pending_loc t 0 == flag.M.loc);
      check_bool "as an Acc_read" true
        (Sim.Scheduler.pending_kind t 0 = Sim.Scheduler.Acc_read)
    end;
    (* Let the spinner fail a few reads before the writer goes. *)
    Sim.Scheduler.Fire
      (if runnable land 1 <> 0 && (!decisions < 4 || runnable = 1) then 0
       else 1)
  in
  let (), events =
    traced (fun () -> ignore (Sim.run ~controller ~procs:2 (body flag)))
  in
  List.iter
    (function Etrace.Event.Delay_done { pid = 0; _ } -> incr pauses | _ -> ())
    events;
  check_bool "the spinner paused between reads" true (!pauses >= 3);
  let phases = ref [] in
  let on_event ~pid ~time:_ =
    let t = Sim.Scheduler.the_sched () in
    (match t.slots.(pid) with
    | Parked (_, Sim.Scheduler.Spin _) -> (
        match Sim.Scheduler.pending_kind t pid with
        | Sim.Scheduler.Acc_read -> phases := `Read :: !phases
        | _ -> Alcotest.fail "a spin read is not an Acc_read"
        | exception Invalid_argument _ ->
            check_bool "only a pause has no access" true (pausing t pid);
            phases := `Pause :: !phases)
    | _ -> ());
    Sim.Scheduler.Fault_proceed
  in
  let injector = { Sim.Scheduler.no_injector with on_event } in
  ignore (Sim.run ~injector ~procs:2 (body (E.cell false)));
  check_bool "both phases seen" true
    (List.mem `Read !phases && List.mem `Pause !phases)

(* One wait keeps one parked slot.  Processor 0 waits on a flag that
   processor 1 sets at 30.  An injector sees the physically same slot
   before each of its reads and pauses, and cannot park a second event
   on it during a pause; the slot is idle once the wait returns. *)
let test_spin_slot_invariants () =
  let seen = ref [] and pauses = ref 0 and rejected = ref 0 in
  let on_event ~pid ~time =
    let t = Sim.Scheduler.the_sched () in
    (match t.slots.(pid) with
    | Parked (_, Sim.Scheduler.Spin _) as slot ->
        seen := slot :: !seen;
        if pausing t pid then begin
          incr pauses;
          match Sim.Scheduler.park t pid time Sim.Scheduler.Start with
          | () -> ()
          | exception Invalid_argument _ -> incr rejected
        end
    | _ -> ());
    Sim.Scheduler.Fault_proceed
  in
  let injector = { Sim.Scheduler.no_injector with on_event } in
  let flag = E.cell false and idle_after = ref false in
  ignore
    (Sim.run ~injector ~procs:2 (fun p ->
         if p = 0 then begin
           ignore (E.spin_until flag Fun.id);
           idle_after :=
             match (Sim.Scheduler.the_sched ()).slots.(p) with
             | Idle -> true
             | _ -> false
         end
         else begin
           E.delay 30;
           E.set flag true
         end));
  (match !seen with
  | [] -> Alcotest.fail "no spin step seen"
  | last :: _ ->
      check_bool "the same block at every read and pause" true
        (List.for_all (fun s -> s == last) !seen));
  check_bool "pauses seen" true (!pauses >= 3);
  check_int "park rejected in every pause" !pauses !rejected;
  check_bool "the slot is idle once the wait returns" true !idle_after

(* Model equivalence.  A random spin script runs twice, with
   [E.spin_until] and with [spin_loop], under the same memory model,
   fault plan, race detector and horizon; every observable must agree:
   the run's stats, the full-level trace, the race report and every
   value a wait returned, and when.  Processors that are unwound wait
   once more while unwinding, as cleanup code may. *)
type spin_op =
  | Op_write of int * int  (* cell, value *)
  | Op_add of int * int
  | Op_delay of int
  | Op_wait of int * int  (* until the cell holds at least this *)

type spin_case = {
  scripts : spin_op list array;
  config : int;  (* default, serialized reads, uniform *)
  plan : int option;  (* a fault plan's seed *)
  detector : bool;
  horizon : int;
}

let spin_cells = 3

let gen_spin_op =
  let open QCheck.Gen in
  let cell = int_bound (spin_cells - 1) in
  frequency
    [
      (2, map2 (fun c v -> Op_write (c, v)) cell (int_bound 3));
      (2, map2 (fun c d -> Op_add (c, d)) cell (int_range 1 2));
      (1, map (fun d -> Op_delay d) (int_range 1 40));
      (4, map2 (fun c k -> Op_wait (c, k)) cell (int_range 1 4));
    ]

let gen_spin_case =
  let open QCheck.Gen in
  let* procs = int_range 1 5 in
  let* scripts =
    array_size (return procs) (list_size (int_range 0 6) gen_spin_op)
  in
  let* config = int_bound 2 in
  let* plan = opt (int_bound 10_000) in
  let* detector = bool in
  let+ horizon = int_range 20 1_500 in
  { scripts; config; plan; detector; horizon }

let show_scripts scripts =
  let op = function
    | Op_write (c, v) -> Printf.sprintf "w%d=%d" c v
    | Op_add (c, d) -> Printf.sprintf "a%d+%d" c d
    | Op_delay d -> Printf.sprintf "d%d" d
    | Op_wait (c, k) -> Printf.sprintf "s%d>=%d" c k
  in
  String.concat " | "
    (Array.to_list
       (Array.map (fun l -> String.concat " " (List.map op l)) scripts))

let show_spin_case c =
  Printf.sprintf "config %d, plan %s, detector %b, horizon %d, scripts [%s]"
    c.config
    (match c.plan with Some s -> string_of_int s | None -> "none")
    c.detector c.horizon (show_scripts c.scripts)

let spin_plan ~seed ~procs ~horizon =
  let module F = Faults.Fault_plan in
  F.union ~seed
    [
      F.stalls ~seed ~procs ~horizon ~count:2 ~cycles:40;
      F.crashes ~seed ~procs ~horizon ~count:1;
      F.hotspot ~num:(1 + (seed mod 2)) ~den:2 ~from_:0 ~until_:horizon
        ~factor:3 ();
      F.jitter ~from_:0 ~until_:horizon ~amp:3;
    ]

let config_of = function
  | 0 -> M.default_config
  | 1 -> M.serialized_reads_config
  | _ -> M.uniform_config

(* Run [scripts] with [wait] under [config], [plan]'s injector, the race
   detector when [detector], and [horizon].  With [keep], the injector's
   [quiet_from] is [max_int], so the run never leaves it.  Returns the
   run's stats, its full-level trace, the race report and each
   processor's waits' values and return times, with cell ids relative
   to the run's first cell; and whether the run left its injector. *)
let run_scripts ~wait ~config ~plan ?(keep = false) ~detector ~horizon
    scripts =
  let procs = Array.length scripts in
  let injector =
    Option.map
      (fun plan ->
        let inj = Faults.Fault_plan.injector plan in
        if keep then { inj with Sim.Scheduler.quiet_from = max_int } else inj)
      plan
  in
  (* Ids relative to this run's first cell, as the injector hashes them. *)
  let base = M.loc_count () in
  let cells = Array.init spin_cells (fun _ -> E.cell 0) in
  let returned = Array.make procs [] and left = ref false in
  let see_left () =
    if Option.is_none (Sim.Scheduler.the_sched ()).injector then left := true
  in
  let body p =
    let step = function
      | Op_write (i, v) -> E.set cells.(i) v
      | Op_add (i, d) -> ignore (E.fetch_and_add cells.(i) d)
      | Op_delay d -> E.delay d
      | Op_wait (i, k) ->
          let v = wait cells.(i) (fun v -> v >= k) in
          returned.(p) <- (v, E.now ()) :: returned.(p);
          see_left ()
    in
    try List.iter step scripts.(p)
    with Sim.Aborted as e ->
      see_left ();
      (try ignore (wait cells.(p mod spin_cells) (fun _ -> false))
       with Sim.Aborted -> ());
      raise e
  in
  let run () = Sim.run ~config ?injector ~abort_after:horizon ~procs body in
  let (stats, report), events =
    traced (fun () ->
        if detector then
          let stats, r = Analysis.Race_detector.run run in
          let races =
            List.map
              (fun (x : Analysis.Race_detector.race) ->
                { x with loc_id = x.loc_id - base; detail = "" })
              r.races
          in
          (stats, Some { r with races })
        else (run (), None))
  in
  let events =
    List.map
      (function
        | Etrace.Event.Mem_op m ->
            Etrace.Event.Mem_op { m with loc = m.loc - base }
        | e -> e)
      events
  in
  ((stats, events, report, returned), !left)

let run_spin_case ~wait c =
  let plan =
    Option.map
      (fun seed ->
        spin_plan ~seed ~procs:(Array.length c.scripts) ~horizon:c.horizon)
      c.plan
  in
  fst
    (run_scripts ~wait ~config:(config_of c.config) ~plan
       ~detector:c.detector ~horizon:c.horizon c.scripts)

let prop_spin_model_equivalence =
  QCheck.Test.make ~name:"spin_until is the get/cpu_relax loop, event for event"
    ~count:300
    (QCheck.make ~print:show_spin_case gen_spin_case)
    (fun c ->
      run_spin_case ~wait:E.spin_until c = run_spin_case ~wait:spin_loop c)

(* The same equivalence with every hook off: no tracing, injector or
   detector, so the run takes the hook-free step loop, where the
   waiters due in one cycle fire together.  Up to 24 processors
   start in lockstep on three cells.  Each logs, after every operation,
   what it returned and when, and the unwinding order is logged too.
   Short delays are common, so a processor that stops waiting often
   issues its next event in the cycle its group's pauses are due. *)
type untraced_case = {
  u_scripts : spin_op list array;
  u_config : int;  (* default, serialized reads, uniform *)
  u_horizon : int;
}

let gen_untraced_case =
  let open QCheck.Gen in
  let cell = int_bound (spin_cells - 1) in
  let op =
    frequency
      [
        (2, map2 (fun c v -> Op_write (c, v)) cell (int_bound 3));
        (3, map2 (fun c d -> Op_add (c, d)) cell (int_range 1 2));
        (2, map (fun d -> Op_delay d) (int_range 1 3));
        (1, map (fun d -> Op_delay d) (int_range 1 40));
        (5, map2 (fun c k -> Op_wait (c, k)) cell (int_range 1 6));
      ]
  in
  let* procs = int_range 1 24 in
  let* u_scripts = array_size (return procs) (list_size (int_range 0 8) op) in
  let* u_config = int_bound 2 in
  let+ u_horizon = int_range 20 3_000 in
  { u_scripts; u_config; u_horizon }

let show_untraced_case c =
  show_spin_case
    {
      scripts = c.u_scripts;
      config = c.u_config;
      plan = None;
      detector = false;
      horizon = c.u_horizon;
    }

let run_untraced_case ~wait c =
  let procs = Array.length c.u_scripts in
  let config = config_of c.u_config in
  let cells = Array.init spin_cells (fun _ -> E.cell 0) in
  let log = Array.make procs [] and unwound = ref [] in
  let body p =
    let note v = log.(p) <- (v, E.now ()) :: log.(p) in
    let step = function
      | Op_write (i, v) ->
          E.set cells.(i) v;
          note v
      | Op_add (i, d) -> note (E.fetch_and_add cells.(i) d)
      | Op_delay d ->
          E.delay d;
          note d
      | Op_wait (i, k) -> note (wait cells.(i) (fun v -> v >= k))
    in
    try List.iter step c.u_scripts.(p)
    with Sim.Aborted as e ->
      unwound := p :: !unwound;
      (try ignore (wait cells.(p mod spin_cells) (fun _ -> false))
       with Sim.Aborted -> unwound := p :: !unwound);
      raise e
  in
  let stats = Sim.run ~config ~abort_after:c.u_horizon ~procs body in
  (stats, log, !unwound)

let prop_spin_untraced_equivalence =
  QCheck.Test.make
    ~name:"untraced spin_until is the get/cpu_relax loop, op for op"
    ~count:400
    (QCheck.make ~print:show_untraced_case gen_untraced_case)
    (fun c ->
      run_untraced_case ~wait:E.spin_until c
      = run_untraced_case ~wait:spin_loop c)

(* A memory tracer's count-only [on_reads], made the [on_read] calls it
   stands for. *)
let expand_reads on_read reads ~period ~repeats =
  for j = 1 to repeats do
    List.iter
      (fun (r : M.read) ->
        on_read r.M.r_loc ~pid:r.r_pid ~issued:(r.r_issued + (j * period))
          ~fired:(r.r_fired + (j * period)) ~serialized:r.r_serialized
          ~clean:r.r_clean)
      reads
  done

(* Full-level tracing and the memory tracer can be switched on and off
   inside a run; waiters in step see each switch as the hand-written
   loop's separate events would.  Five processors wait in lockstep on a
   flag (reads at 7k + 6, pauses at 7k + 7) while processor 0 installs
   a sink at 20, just before their reads there, which uninstalls
   itself on its seventh event, the second pause at 21.  It hooks a
   memory tracer in from 40 to 60, and sets the flag at 80. *)
let test_spin_hooks_switched_mid_run () =
  let run wait =
    let flag = E.cell 0 and events = ref [] and reads = ref [] in
    let base = flag.M.loc.M.id in
    let sink e =
      events := e :: !events;
      if List.length !events = 7 then Etrace.uninstall ()
    in
    let on_read _ ~pid ~issued ~fired ~serialized:_ ~clean:_ =
      reads := (pid, issued, fired) :: !reads
    in
    let tracer =
      {
        M.on_read;
        on_reads = expand_reads on_read;
        on_issue = (fun _ ~pid:_ ~now:_ ~begins:_ ~finish:_ -> ());
        on_commit = (fun _ ~pid:_ ~time:_ ~clean:_ -> ());
      }
    in
    let saved = !M.tracer in
    let stats =
      Fun.protect
        ~finally:(fun () ->
          M.tracer := saved;
          Etrace.uninstall ())
        (fun () ->
          Sim.run ~procs:6 (fun p ->
              if p = 0 then begin
                E.delay 20;
                Etrace.install sink;
                E.delay 20;
                M.tracer := Some tracer;
                E.delay 20;
                M.tracer := None;
                E.delay 20;
                E.set flag 1
              end
              else ignore (wait flag (fun v -> v = 1))))
    in
    let events =
      List.rev_map
        (function
          | Etrace.Event.Mem_op m ->
              Etrace.Event.Mem_op { m with loc = m.loc - base }
          | e -> e)
        !events
    in
    (stats, events, List.rev !reads)
  in
  let ((_, events, reads) as grouped) = run E.spin_until in
  check_int "the sink saw seven events" 7 (List.length events);
  check_bool "it saw the second pause at 21 last" true
    (match List.rev events with
    | Etrace.Event.Delay_done { pid = 2; issued = 20; fired = 21; _ } :: _ ->
        true
    | _ -> false);
  check_int "the tracer saw the reads at 41, 48 and 55" 15
    (List.length reads);
  check_bool "as the hand-written loop" true (grouped = run spin_loop)

(* A horizon that finds waiters due together unwinds them in (time,
   seq) order, one by one, as the hand-written loop's separate events
   would.  Four processors wait in lockstep on a flag nobody sets, so
   their reads fire at 7k + 6 and their pauses at 7k + 7 in pid order.
   The first to unwind pauses once more.  That pause is due before the
   others when the horizon falls in the read phase, so it unwinds
   second; it is due with them when the horizon falls in the pause,
   and its fresh seq puts it last.  The waiters are dead from cycle 0,
   so a horizon a few periods on, or thousands, is reached by a
   fast-forward, and the last periods are stepped.  With a 1,500-cycle
   read latency the waiting reads sit in the overflow tier when the
   horizon comes, and the run steps to it. *)
let test_spin_abort_unwinds_waiters_in_order () =
  let unwinding ~wait ~config ~horizon =
    let flag = E.cell false and unwound = ref [] and first = ref true in
    let stats =
      Sim.run ~config ~abort_after:horizon ~procs:4 (fun p ->
          try ignore (wait flag Fun.id)
          with Sim.Aborted as e ->
            unwound := p :: !unwound;
            if !first then begin
              first := false;
              try E.cpu_relax () with Sim.Aborted -> unwound := p :: !unwound
            end;
            raise e)
    in
    (stats, List.rev !unwound)
  in
  let slow = { M.default_config with read_latency = 1_500 } in
  List.iter
    (fun (name, config, horizon, expected, skips) ->
      let before = Sim.Scheduler.skipped_events () in
      let stats, order = unwinding ~wait:E.spin_until ~config ~horizon in
      check_bool (name ^ ": fast-forwarded") skips
        (Sim.Scheduler.skipped_events () > before);
      Alcotest.(check (list int)) (name ^ ": unwound in order") expected order;
      check_bool (name ^ ": as the hand-written loop") true
        ((stats, order) = unwinding ~wait:spin_loop ~config ~horizon))
    [
      ("read phase", M.default_config, (7 * 5) + 3, [ 0; 0; 1; 2; 3 ], true);
      ("pause", M.default_config, (7 * 5) + 6, [ 0; 1; 2; 3; 0 ], true);
      ( "read phase, far",
        M.default_config,
        (7 * 2_000) + 3,
        [ 0; 0; 1; 2; 3 ],
        true );
      ( "pause, far",
        M.default_config,
        (7 * 2_000) + 6,
        [ 0; 1; 2; 3; 0 ],
        true );
      ("overflow tier", slow, 3_000, [ 0; 0; 1; 2; 3 ], false);
    ]

(* A fast-forwarded run is the stepped loop.  Once every live processor
   waits on a predicate that fails on its cell's current value, a
   hook-free run skips whole spin periods up to the horizon.  With
   [spin_loop] every read resumes its processor, so that run never
   fast-forwards and steps every read.  Up to 24 processors run spin
   scripts under the default or the uniform config, with horizons long
   enough that most runs end with their survivors stuck.  Each case
   runs with no hook, under the race detector and under a tracer that
   logs every read, expanding each count-only [on_reads] into the reads
   it stands for; the stats, every operation's value and return time,
   the unwinding order, the race report and the tracer's log must
   agree.  The tracer also counts its [on_read] calls and the reads its
   [on_reads] calls stand for: together they are the stepped loop's
   [on_read] calls, and [on_read] alone falls short of them by the
   skipped reads, half the skipped events.  Each case runs again under
   serialized reads, whose dead runs step to the horizon: they must
   agree too, and skip nothing. *)
let gen_dead_case =
  let open QCheck.Gen in
  let* c = gen_untraced_case in
  let* u_config = oneofl [ 0; 2 ] in
  let+ u_horizon = int_range 2_000 10_000 in
  { c with u_config; u_horizon }

(* [run_untraced_case] under [hook]: `Detector, or `Tracer, which logs
   each read's cell, pid, issue and fire times and shadow verdict.  Cell
   ids are relative to the run's first cell.  With the outcome come the
   tracer's [on_read] calls and the reads its [on_reads] calls stood
   for. *)
let run_hooked_case ~wait ~hook c =
  let base = M.loc_count () in
  let reads = ref [] and calls = ref 0 and counted = ref 0 in
  let log loc ~pid ~issued ~fired ~serialized:_ ~clean =
    reads := (loc.M.id - base, pid, issued, fired, clean) :: !reads
  in
  let tracer =
    {
      M.on_read =
        (fun loc ~pid ~issued ~fired ~serialized ~clean ->
          incr calls;
          log loc ~pid ~issued ~fired ~serialized ~clean);
      on_reads =
        (fun rs ~period ~repeats ->
          counted := !counted + (repeats * List.length rs);
          expand_reads log rs ~period ~repeats);
      on_issue = (fun _ ~pid:_ ~now:_ ~begins:_ ~finish:_ -> ());
      on_commit = (fun _ ~pid:_ ~time:_ ~clean:_ -> ());
    }
  in
  match hook with
  | `None -> ((run_untraced_case ~wait c, None, []), (0, 0))
  | `Detector ->
      let r, report =
        Analysis.Race_detector.run (fun () -> run_untraced_case ~wait c)
      in
      let races =
        List.map
          (fun (x : Analysis.Race_detector.race) ->
            { x with loc_id = x.loc_id - base; detail = "" })
          report.races
      in
      ((r, Some { report with races }, []), (0, 0))
  | `Tracer ->
      let saved = !M.tracer in
      M.tracer := Some tracer;
      let r =
        Fun.protect
          ~finally:(fun () -> M.tracer := saved)
          (fun () -> run_untraced_case ~wait c)
      in
      ((r, None, List.rev !reads), (!calls, !counted))

let dead_runs = ref 0
let dead_skipped = ref 0

let prop_dead_fast_forward =
  QCheck.Test.make ~name:"a fast-forwarded run is the stepped loop" ~count:200
    (QCheck.make ~print:show_untraced_case gen_dead_case)
    (fun c ->
      incr dead_runs;
      let agrees c =
        List.for_all
          (fun hook ->
            let before = Sim.Scheduler.skipped_events () in
            let skipping, (calls, counted) =
              run_hooked_case ~wait:E.spin_until ~hook c
            in
            let after = Sim.Scheduler.skipped_events () in
            if after > before && hook = `None && c.u_config <> 1 then
              incr dead_skipped;
            let stepping, (stepped_calls, stepped_counted) =
              run_hooked_case ~wait:spin_loop ~hook c
            in
            Sim.Scheduler.skipped_events () = after
            && skipping = stepping
            && (c.u_config <> 1 || after = before)
            && (calls + counted = stepped_calls && stepped_counted = 0
               || QCheck.Test.fail_report
                    "on_read calls plus the reads on_reads stands for are \
                     not the stepped loop's on_read calls")
            && (hook <> `Tracer
               || calls = stepped_calls - ((after - before) / 2)
               || QCheck.Test.fail_report
                    "on_read alone does not fall short by the skipped reads"))
          [ `None; `Detector; `Tracer ]
      in
      agrees c
      && (agrees { c with u_config = 1 }
         || QCheck.Test.fail_report "under serialized reads"))

(* The property, and the share of its default and uniform runs that
   fast-forward. *)
let test_dead_fast_forward =
  let name, speed, run = QCheck_alcotest.to_alcotest prop_dead_fast_forward in
  Alcotest.test_case name speed (fun () ->
      dead_runs := 0;
      dead_skipped := 0;
      run ();
      Printf.printf "%d of %d runs fast-forwarded\n" !dead_skipped !dead_runs;
      check_bool "most runs fast-forward" true (2 * !dead_skipped > !dead_runs))

(* A run with no horizon whose processors all wait on predicates no
   processor can satisfy would spin forever; it fails instead, naming
   the cycle from which no wait can end.  Two processors or one wait on
   a flag nobody sets, or two under serialized reads, or two under an
   injector the run keeps to its end.  In another run, under serialized
   reads, processor 2 raises the flag to 1 and stops; the waits of 0
   and 1 for it end at 38 and 32, each then waits for 5, and from 38 no
   wait can end. *)
let test_dead_without_horizon () =
  let dead ?injector ~config ~procs body =
    match Sim.run ?injector ~config ~procs body with
    | _ -> Alcotest.fail "a dead run with no horizon returned"
    | exception Failure msg -> msg
  in
  let never ?injector ~config ~procs () =
    let flag = E.cell false in
    dead ?injector ~config ~procs (fun _ -> ignore (E.spin_until flag Fun.id))
  in
  let kept =
    {
      Sim.Scheduler.no_injector with
      on_event = (fun ~pid:_ ~time:_ -> Sim.Scheduler.Fault_proceed);
    }
  in
  (* Processor 2 waits from 0 and crashes at its first step from 20 on;
     processor 1 starts its wait at 50, and only then are all the live
     processors waiting. *)
  let crashed () =
    let a = E.cell false and b = E.cell false in
    let injector =
      {
        kept with
        on_event =
          (fun ~pid ~time ->
            if pid = 2 && time >= 20 then Sim.Scheduler.Fault_drop
            else Sim.Scheduler.Fault_proceed);
      }
    in
    dead ~injector ~config:M.default_config ~procs:3 (fun p ->
        if p = 1 then E.delay 50;
        ignore (E.spin_until (if p = 2 then a else b) Fun.id))
  in
  let again () =
    let flag = E.cell 0 in
    dead ~config:M.serialized_reads_config ~procs:3 (fun p ->
        if p = 2 then begin
          E.delay 10;
          E.set flag 1
        end
        else begin
          ignore (E.spin_until flag (fun v -> v >= 1));
          ignore (E.spin_until flag (fun v -> v >= 5))
        end)
  in
  let message ~cycle ~live =
    Printf.sprintf
      "Sim.run: from cycle %d, all %d live processors wait on predicates \
       no processor can satisfy, and no abort_after is set"
      cycle live
  in
  List.iter
    (fun (name, expected, run) ->
      Alcotest.(check string) name expected (run ()))
    [
      ( "two processors",
        message ~cycle:0 ~live:2,
        fun () -> never ~config:M.default_config ~procs:2 () );
      ( "one processor",
        message ~cycle:0 ~live:1,
        fun () -> never ~config:M.default_config ~procs:1 () );
      ( "two processors, serialized reads",
        message ~cycle:0 ~live:2,
        fun () -> never ~config:M.serialized_reads_config ~procs:2 () );
      ( "two processors, under an injector kept to the end",
        message ~cycle:0 ~live:2,
        fun () -> never ~injector:kept ~config:M.default_config ~procs:2 () );
      ( "a waiter crashed under an injector kept to the end",
        message ~cycle:50 ~live:2,
        crashed );
      ( "waits that end and start again, serialized reads",
        message ~cycle:38 ~live:2,
        again );
    ]

(* A run leaves its injector once the plan has gone quiet, and nothing
   it reports changes: under the same injector with [quiet_from] set to
   [max_int], which the run never leaves, the stats, the full-level
   trace, the race report and every wait's value and return time are
   the same.  Up to 12 processors run spin scripts under a plan whose
   windows all end at [quiet] or before, well before the horizon; one
   fault class, drawn at random, ends exactly there. *)
type quiet_case = {
  q_scripts : spin_op list array;
  q_config : int;  (* default, serialized reads, uniform *)
  q_detector : bool;
  q_horizon : int;
  q_plan : Faults.Fault_plan.t;
}

let gen_quiet_case =
  let open QCheck.Gen in
  let module F = Faults.Fault_plan in
  let* procs = int_range 1 12 in
  let* q_scripts =
    array_size (return procs) (list_size (int_range 0 8) gen_spin_op)
  in
  let* q_config = int_bound 2 in
  let* q_detector = bool in
  let* quiet = int_range 50 600 in
  let* q_horizon = int_range (quiet + 1) (quiet + 1_500) in
  let pid = int_bound (procs - 1) and before = int_bound quiet in
  let window = map2 (fun a b -> (min a b, max a b)) before before in
  let* stalls = list_size (int_bound 2) (triple pid before (int_range 1 40)) in
  let* crashes = list_size (int_bound 1) (pair pid before) in
  let* hot = opt window in
  let* jitter = opt window in
  let* last = int_bound 3 in
  let* victim = pid in
  let+ seed = int_bound 10_000 in
  let hotspot (from_, until_) =
    F.Hotspot { from_; until_; factor = 3; num = 1; den = 2; salt = seed }
  in
  let jitter_in (from_, until_) = F.Jitter { from_; until_; amp = 3 } in
  let events =
    List.map
      (fun (pid, at, cycles) ->
        F.Stall { pid; at = min at (quiet - cycles); cycles })
      stalls
    @ List.map (fun (pid, at) -> F.Crash { pid; at }) crashes
    @ Option.to_list (Option.map hotspot hot)
    @ Option.to_list (Option.map jitter_in jitter)
    @ [
        (match last with
        | 0 -> F.Stall { pid = victim; at = quiet - 20; cycles = 20 }
        | 1 -> F.Crash { pid = victim; at = quiet }
        | 2 -> hotspot (quiet / 2, quiet)
        | _ -> jitter_in (quiet / 2, quiet));
      ]
  in
  { q_scripts; q_config; q_detector; q_horizon; q_plan = { F.seed; events } }

let show_quiet_case c =
  Printf.sprintf "config %d, plan %s, detector %b, horizon %d, scripts [%s]"
    c.q_config
    (Faults.Fault_plan.describe c.q_plan)
    c.q_detector c.q_horizon (show_scripts c.q_scripts)

let run_quiet_case ~keep c =
  run_scripts ~wait:E.spin_until ~config:(config_of c.q_config)
    ~plan:(Some c.q_plan) ~keep ~detector:c.q_detector ~horizon:c.q_horizon
    c.q_scripts

let quiet_runs = ref 0
let quiet_left = ref 0

let prop_quiet_injector =
  QCheck.Test.make ~name:"a quiet injector is the one that never goes quiet"
    ~count:1000
    (QCheck.make ~print:show_quiet_case gen_quiet_case)
    (fun c ->
      let leaving, left = run_quiet_case ~keep:false c in
      let kept, left_kept = run_quiet_case ~keep:true c in
      incr quiet_runs;
      if left then incr quiet_left;
      (not left_kept) && leaving = kept)

(* The property, and the share of its runs that leave the injector; a
   run that ends before its plan has gone quiet never does. *)
let test_quiet_injector =
  let name, speed, run = QCheck_alcotest.to_alcotest prop_quiet_injector in
  Alcotest.test_case name speed (fun () ->
      quiet_runs := 0;
      quiet_left := 0;
      run ();
      Printf.printf "%d of %d runs left their injector\n" !quiet_left
        !quiet_runs;
      check_bool "most runs leave their injector" true
        (2 * !quiet_left > !quiet_runs))

(* The model checker explores the same interleavings either way: a
   hand-off two processors complete for a third, and a wait nobody
   satisfies, which deadlocks. *)
let spin_programs ~wait =
  let module X = Check.Explore in
  let handoff =
    {
      X.name = "handoff";
      procs = 3;
      prepare =
        (fun () ->
          let flag = E.cell 0 and data = E.cell 0 in
          {
            X.body =
              (fun p ->
                match p with
                | 0 ->
                    E.set data 1;
                    ignore (E.fetch_and_add flag 1)
                | 1 -> ignore (E.fetch_and_add flag 1)
                | _ ->
                    ignore (wait flag (fun v -> v >= 2));
                    ignore (E.get data));
            at_quiescence = (fun () -> []);
          });
    }
  in
  let stuck =
    {
      X.name = "stuck";
      procs = 2;
      prepare =
        (fun () ->
          let flag = E.cell 0 in
          {
            X.body =
              (fun p ->
                if p = 0 then ignore (wait flag (fun v -> v >= 2))
                else ignore (E.fetch_and_add flag 1));
            at_quiescence = (fun () -> []);
          });
    }
  in
  [ handoff; stuck ]

let test_spin_explore_equivalence () =
  let explore dpor prog =
    let o = Check.Explore.explore ~dpor ~stop_on_violation:false prog in
    (o.runs, o.complete, o.deadlocks, o.sleep_blocked, o.budget_hits,
     o.max_depth)
  in
  List.iter2
    (fun a b ->
      List.iter
        (fun dpor ->
          let x = explore dpor a and y = explore dpor b in
          let name = Printf.sprintf "%s (dpor %b)" a.name dpor in
          check_bool (name ^ ": same exploration") true (x = y);
          let runs, complete, deadlocks, _, _, _ = x in
          check_bool (name ^ ": several executions") true (runs > 1);
          check_bool (name ^ ": the expected verdict") true
            (if a.name = "stuck" then deadlocks > 0 && complete = 0
             else complete > 1 && deadlocks = 0))
        [ true; false ])
    (spin_programs ~wait:E.spin_until)
    (spin_programs ~wait:spin_loop)

(* ------------------------------------------------------------------ *)
(* Lazily materialised cell arrays                                     *)
(* ------------------------------------------------------------------ *)

let test_cells_reserve_ids () =
  let w = M.loc_count () in
  let c = E.cells 100 'x' in
  check_int "the block reserves its ids up front" (w + 100) (M.loc_count ());
  check_int "length" 100 (E.cells_length c);
  let c7 = E.cells_get c 7 in
  check_int "slot 7 has id base + 7" (w + 7) c7.M.loc.M.id;
  check_bool "the same cell on every call" true (E.cells_get c 7 == c7);
  check_int "slot 99 has id base + 99" (w + 99) (E.cells_get c 99).M.loc.M.id;
  check_bool "slot 0 is another cell" true (E.cells_get c 0 != c7);
  check_int "touching slots allocates no ids" (w + 100) (M.loc_count ());
  List.iter
    (fun i ->
      match E.cells_get c i with
      | _ -> Alcotest.failf "slot %d is out of bounds" i
      | exception Invalid_argument _ -> ())
    [ -1; 100; 127; 128 ]

(* A lazily built slot is indistinguishable from the eager cell built
   at the same offset from the watermark. *)
let test_cells_match_eager () =
  let n = 130 and v = Some 5 in
  let w_eager = M.loc_count () in
  let eager = Array.init n (fun _ -> M.cell v) in
  let w_lazy = M.loc_count () in
  let lazy_ = E.cells n v in
  List.iter
    (fun i ->
      let e = eager.(i) and l = E.cells_get lazy_ i in
      let stamps (c : _ M.cell) =
        let x = c.M.loc in
        [ x.M.busy_until; x.M.epoch_time; x.M.epoch_pid; x.M.epoch_seq;
          x.M.pend_begins; x.M.pend_finish; x.M.pend_pid ]
      in
      check_int "same offset from the watermark" (e.M.loc.M.id - w_eager)
        (l.M.loc.M.id - w_lazy);
      Alcotest.(check (list int)) "same initial stamps" (stamps e) (stamps l);
      check_bool "same initial value" true (l.M.v == v);
      check_bool "shadow-clean" true (M.shadow_clean l))
    [ 0; 1; 63; 64; 129 ]

let test_cells_untouched_cost () =
  let n = 1_000_000 in
  let before = Gc.allocated_bytes () in
  let c = E.cells n 0 in
  let words = (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8) in
  check_bool
    (Printf.sprintf "an untouched 1M-slot block costs %.0f words, under one per slot"
       words)
    true
    (words < float_of_int n);
  check_int "its last slot is still reachable" (n - 1)
    ((E.cells_get c (n - 1)).M.loc.M.id - (E.cells_get c 0).M.loc.M.id)

(* ------------------------------------------------------------------ *)
(* The controller contract                                             *)
(* ------------------------------------------------------------------ *)

let test_controller_reads_slots () =
  let a = E.cell 0 and b = E.cell 0 in
  let seen = ref [] in
  let controller t runnable =
    seen := runnable :: !seen;
    if runnable = 0b11 then begin
      check_bool "p0 writes a" true (Sim.Scheduler.pending_loc t 0 == a.M.loc);
      check_bool "p1 reads b" true (Sim.Scheduler.pending_loc t 1 == b.M.loc);
      check_bool "p0's kind" true
        (Sim.Scheduler.pending_kind t 0 = Sim.Scheduler.Acc_write);
      check_bool "p1's kind" true
        (Sim.Scheduler.pending_kind t 1 = Sim.Scheduler.Acc_read)
    end;
    (* The highest runnable pid, to show the choice is the controller's. *)
    Sim.Scheduler.Fire (if runnable land 0b10 <> 0 then 1 else 0)
  in
  let _ =
    Sim.run ~controller ~procs:2 (fun p ->
        E.delay 5;
        if p = 0 then E.set a 1 else ignore (E.get b))
  in
  Alcotest.(check (list int)) "runnable bitmasks, in decision order"
    [ 0b11; 0b01 ] (List.rev !seen)

let test_controller_proc_limit () =
  let fire_lowest _ runnable =
    let rec low p = if runnable land (1 lsl p) <> 0 then p else low (p + 1) in
    Sim.Scheduler.Fire (low 0)
  in
  let c = E.cell 0 in
  let stats =
    Sim.run ~controller:fire_lowest ~procs:62 (fun _ ->
        ignore (E.fetch_and_add c 1))
  in
  check_int "62 controlled processors run" 62 stats.Sim.rmws;
  match
    Sim.run ~controller:fire_lowest ~procs:63 (fun _ ->
        ignore (E.fetch_and_add c 1))
  with
  | _ -> Alcotest.fail "a 63-processor controlled run was accepted"
  | exception Invalid_argument _ -> ()

(* Two processors each take an MCS lock, update a cell inside it and
   hold it across a delay, under a controller that fires the runnable
   pid after the last one it fired (round robin).  The controller gets
   [locked ()], which holds once both processors have entered
   [with_lock] and one is in its critical section, and [handlers] logs
   every exception that reaches a body's own handler. *)
let locked_pair controller =
  let l = Sim_mcs.create ~capacity:2 () in
  let c = E.cell 0 and entered = ref 0 and inside = ref 0 in
  let handlers = ref [] in
  let locked () = !entered = 2 && !inside > 0 in
  let body p =
    incr entered;
    match
      Sim_mcs.with_lock l (fun () ->
          incr inside;
          E.set c (E.get c + 1);
          E.delay 3;
          ignore (E.get c);
          decr inside)
    with
    | () -> ()
    | exception e ->
        handlers := (p, e = Sim.Aborted) :: !handlers;
        raise e
  in
  let result =
    match Sim.run ~controller:(controller locked) ~procs:2 body with
    | stats -> Ok stats
    | exception e -> Error e
  in
  (result, !handlers)

let round_robin last runnable =
  let rec next i =
    let p = (last + i) mod 2 in
    if runnable land (1 lsl p) <> 0 then p else next (i + 1)
  in
  next 1

exception Controller_failed

(* A controller that raises while a processor sits inside [with_lock]:
   the exception leaves [Sim.run] from the loop, so no body sees it,
   the lock's handler never runs its [release], and the controller is
   not called again. *)
let test_controller_raises_in_lock () =
  let calls = ref 0 and late = ref 0 and raised = ref false in
  let last = ref 1 in
  let controller locked _ runnable =
    if !raised then begin
      incr late;
      Sim.Scheduler.Quit
    end
    else begin
      incr calls;
      if locked () then begin
        raised := true;
        raise Controller_failed
      end;
      last := round_robin !last runnable;
      Sim.Scheduler.Fire !last
    end
  in
  let result, handlers = locked_pair controller in
  (match result with
  | Error Controller_failed -> ()
  | Error e -> Alcotest.failf "unexpected %s" (Printexc.to_string e)
  | Ok _ -> Alcotest.fail "the controller's exception was lost");
  check_int "the call that raised" 6 !calls;
  check_int "no call after it" 0 !late;
  check_int "no body's handler ran" 0 (List.length handlers)

(* A controller that quits while a processor sits inside [with_lock]:
   both bodies unwind, [release] runs in the unwinding, and the
   controller is not consulted again. *)
let test_controller_quits_in_lock () =
  let calls = ref 0 and late = ref 0 and quit = ref false in
  let last = ref 1 in
  let controller locked _ runnable =
    if !quit then incr late else incr calls;
    if !quit || locked () then begin
      quit := true;
      Sim.Scheduler.Quit
    end
    else begin
      last := round_robin !last runnable;
      Sim.Scheduler.Fire !last
    end
  in
  let result, handlers = locked_pair controller in
  (match result with
  | Ok stats ->
      check_int "both processors unwound" 2 stats.Sim.aborted_procs;
      Alcotest.(check (list int))
        "events, end clock, reads, writes, rmws" [ 7; 28; 2; 4; 2 ]
        [ stats.events_fired; stats.end_clock; stats.reads; stats.writes;
          stats.rmws ]
  | Error e -> Alcotest.failf "unexpected %s" (Printexc.to_string e));
  check_int "calls, the last one Quit" 6 !calls;
  check_int "no call while unwinding" 0 !late;
  Alcotest.(check (list (pair int bool)))
    "each body saw Aborted" [ (0, true); (1, true) ]
    (List.sort compare handlers)

(* [Fire q] for a q that is not runnable, a finished processor or one
   out of range, raises [Invalid_argument] from [Sim.run].  Processor
   1 finishes at once; the first call fires processor 0's first write,
   and the second, about its second write, answers [Fire q]. *)
let test_controller_fires_idle_pid () =
  List.iter
    (fun q ->
      let c = E.cell 0 and calls = ref 0 in
      let controller _ _ =
        incr calls;
        Sim.Scheduler.Fire (if !calls = 1 then 0 else q)
      in
      match
        Sim.run ~controller ~procs:2 (fun p ->
            if p = 0 then begin
              E.set c 1;
              E.set c 2
            end)
      with
      | _ -> Alcotest.failf "Fire %d was accepted" q
      | exception Invalid_argument _ ->
          check_int "the second call raised" 2 !calls;
          check_int "after the first write" 1 c.M.v)
    [ 1; 2; -1 ]

(* A seeded random controller over four checker scenarios, quitting at
   random now and then.  Every call's clock, runnable mask and each
   runnable pid's location key (its id from the run's first location)
   and kind, and every run's stats, go into one digest. *)
let test_random_controller_digest () =
  let b = Buffer.create 4096 in
  let kind = function
    | Sim.Scheduler.Acc_read -> 'r'
    | Acc_write -> 'w'
    | Acc_rmw -> 'x'
  in
  let runs = ref 0 and quits = ref 0 in
  List.iter
    (fun ((sc : Check.Scenario.t), procs, width, ops) ->
      let prog = sc.make ~procs ~width ~ops in
      for seed = 1 to 40 do
        let rng = Splitmix.of_int seed in
        let base = M.loc_count () in
        let inst = prog.Check.Explore.prepare () in
        let calls = ref 0 in
        let controller (t : Sim.Scheduler.t) runnable =
          incr calls;
          Printf.bprintf b "%d %d:" t.clock runnable;
          for p = 0 to procs - 1 do
            if runnable land (1 lsl p) <> 0 then
              Printf.bprintf b " %d%c"
                ((Sim.Scheduler.pending_loc t p).M.id - base)
                (kind (Sim.Scheduler.pending_kind t p))
          done;
          Buffer.add_char b '\n';
          if !calls >= 2_000 || Splitmix.int rng 60 = 0 then begin
            incr quits;
            Sim.Scheduler.Quit
          end
          else begin
            let rec pick k p =
              if runnable land (1 lsl p) = 0 then pick k (p + 1)
              else if k = 0 then p
              else pick (k - 1) (p + 1)
            in
            let n = ref 0 in
            for p = 0 to procs - 1 do
              if runnable land (1 lsl p) <> 0 then incr n
            done;
            Sim.Scheduler.Fire (pick (Splitmix.int rng !n) 0)
          end
        in
        let s =
          Sim.run ~seed ~config:M.uniform_config ~controller ~procs
            inst.Check.Explore.body
        in
        incr runs;
        Printf.bprintf b "%s: %d %d %d %d %d %d %d\n" sc.name s.Sim.end_clock
          s.events_fired s.aborted_procs s.reads s.writes s.rmws
          s.queue_wait_cycles
      done)
    Check.Scenario.
      [
        (elim_pool, 2, 2, 1);
        (counter_mixed, 2, 2, 1);
        (central_pool, 3, 2, 2);
        (shard, 2, 2, 2);
      ];
  check_int "runs" 160 !runs;
  Printf.printf "%d of %d runs quit, %d bytes of calls\n" !quits !runs
    (Buffer.length b);
  Alcotest.(check string)
    "digest of every call and run" "2eb0e172f554258a1819eb5213c568fb"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* Most of a DPOR search's decisions pick the processor that just ran,
   and are made inside it.  Over counter_mixed at 2 processors, the
   controller calls made in place outnumber half of all the events the
   search fires, and every decision is an event or a [Quit]. *)
let test_decisions_in_place () =
  let prog = Check.Scenario.counter_mixed.make ~procs:2 ~width:2 ~ops:1 in
  let asked = Sim.Scheduler.in_place_decisions ()
  and events = (Sim.totals ()).t_events in
  let o = Check.Explore.explore prog in
  let asked = Sim.Scheduler.in_place_decisions () - asked
  and events = (Sim.totals ()).t_events - events in
  Printf.printf "%d executions: %d of %d events decided in place\n" o.runs
    asked events;
  check_bool "most decisions are made in place" true (2 * asked > events)

let () =
  Alcotest.run "sim"
    [
      ( "event_heap",
        [
          Alcotest.test_case "basic ordering" `Quick test_heap_basic;
          QCheck_alcotest.to_alcotest prop_heap_sorted;
        ] );
      ( "splitmix",
        [
          Alcotest.test_case "deterministic" `Quick test_splitmix_deterministic;
          Alcotest.test_case "golden streams" `Quick test_splitmix_golden;
          Alcotest.test_case "bounds" `Quick test_splitmix_bounds;
          Alcotest.test_case "split independence" `Quick
            test_splitmix_split_independent;
          Alcotest.test_case "roughly uniform" `Quick test_splitmix_uniformish;
          Alcotest.test_case "bernoulli" `Quick test_bernoulli;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "delay advances clock" `Quick
            test_delay_advances_clock;
          Alcotest.test_case "now" `Quick test_now;
          Alcotest.test_case "pid/nprocs" `Quick test_pid_and_nprocs;
          Alcotest.test_case "rmw serializes" `Quick test_rmw_serializes;
          Alcotest.test_case "reads parallel" `Quick
            test_reads_do_not_serialize;
          Alcotest.test_case "writes serialize" `Quick test_writes_serialize;
          Alcotest.test_case "exchange chain" `Quick test_exchange_chain;
          Alcotest.test_case "cas single winner" `Quick test_cas_single_winner;
          Alcotest.test_case "cas physical equality" `Quick
            test_cas_physical_equality;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "abort" `Quick test_abort;
          Alcotest.test_case "abort partial" `Quick test_abort_partial;
          Alcotest.test_case "nested runs" `Quick test_nested_runs;
          Alcotest.test_case "ops outside run raise" `Quick
            test_outside_run_raises;
          Alcotest.test_case "rng streams differ" `Quick
            test_rng_streams_differ;
          Alcotest.test_case "run after an exception" `Quick
            test_run_after_exception;
          Alcotest.test_case "custom memory config" `Quick test_custom_config;
          Alcotest.test_case "proc exceptions propagate" `Quick
            test_exception_propagates;
          Alcotest.test_case "op counters" `Quick test_op_counters;
          Alcotest.test_case "serialized-reads model" `Quick
            test_serialized_reads_config;
          QCheck_alcotest.to_alcotest prop_serialization_chain;
          QCheck_alcotest.to_alcotest prop_step_loop_model;
          Alcotest.test_case "abort unwinds in key order" `Quick
            test_abort_unwinds_in_key_order;
          Alcotest.test_case "abort unwinds late parks in key order" `Quick
            test_abort_unwinds_late_park_in_key_order;
          Alcotest.test_case "second park rejected" `Quick
            test_second_park_rejected;
          Alcotest.test_case "controller reads the slots" `Quick
            test_controller_reads_slots;
          Alcotest.test_case "controller processor limit" `Quick
            test_controller_proc_limit;
          Alcotest.test_case "a controller raising inside a lock" `Quick
            test_controller_raises_in_lock;
          Alcotest.test_case "a controller quitting inside a lock" `Quick
            test_controller_quits_in_lock;
          Alcotest.test_case "a controller firing an idle pid" `Quick
            test_controller_fires_idle_pid;
          Alcotest.test_case "a random controller's digest" `Quick
            test_random_controller_digest;
          Alcotest.test_case "most decisions are made in place" `Quick
            test_decisions_in_place;
        ] );
      ( "spin",
        [
          Alcotest.test_case "abort in either phase" `Quick
            test_spin_abort_phases;
          Alcotest.test_case "crash in a pause" `Quick
            test_spin_crash_in_pause;
          Alcotest.test_case "deferred pause" `Quick test_spin_defer_pause;
          Alcotest.test_case "impure predicate raises" `Quick
            test_spin_impure_predicate;
          Alcotest.test_case "controller view" `Quick
            test_spin_controller_view;
          Alcotest.test_case "one parked slot per wait" `Quick
            test_spin_slot_invariants;
          QCheck_alcotest.to_alcotest prop_spin_model_equivalence;
          QCheck_alcotest.to_alcotest prop_spin_untraced_equivalence;
          Alcotest.test_case "hooks switched inside a run" `Quick
            test_spin_hooks_switched_mid_run;
          Alcotest.test_case "abort unwinds waiters in order" `Quick
            test_spin_abort_unwinds_waiters_in_order;
          test_dead_fast_forward;
          Alcotest.test_case "a dead run with no horizon fails" `Quick
            test_dead_without_horizon;
          test_quiet_injector;
          Alcotest.test_case "explorer equivalence" `Quick
            test_spin_explore_equivalence;
        ] );
      ( "cells",
        [
          Alcotest.test_case "reserved ids" `Quick test_cells_reserve_ids;
          Alcotest.test_case "match eager cells" `Quick test_cells_match_eager;
          Alcotest.test_case "untouched block cost" `Quick
            test_cells_untouched_cost;
        ] );
    ]

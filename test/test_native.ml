(* Tests of the native engine and natively-instantiated structures with
   real OCaml 5 domains.  This container has a single core, so these
   are correctness tests under preemptive interleaving, not
   scalability tests. *)

module E = Engine.Native

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* One generous capacity for the whole executable: every spawned domain
   claims a pid; bodies release them on exit so ids recycle. *)
let () = E.set_capacity 64

let spawn_all bodies =
  let ds =
    List.map
      (fun body ->
        Domain.spawn (fun () ->
            let r = body () in
            E.release_pid ();
            r))
      bodies
  in
  List.map Domain.join ds

(* ------------------------------------------------------------------ *)
(* Engine basics                                                       *)
(* ------------------------------------------------------------------ *)

let test_cells () =
  let c = E.cell 1 in
  check_int "get" 1 (E.get c);
  E.set c 2;
  check_int "set" 2 (E.get c);
  check_int "exchange returns old" 2 (E.exchange c 3);
  check_bool "cas hit" true (E.compare_and_set c 3 4);
  check_bool "cas miss" false (E.compare_and_set c 3 5);
  check_int "faa" 4 (E.fetch_and_add c 10);
  check_int "after faa" 14 (E.get c);
  let cs = E.cells 3 7 in
  check_int "cells_length" 3 (E.cells_length cs);
  check_bool "cells_get is stable" true (E.cells_get cs 1 == E.cells_get cs 1);
  E.set (E.cells_get cs 1) 8;
  check_int "slots are distinct locations" 7 (E.get (E.cells_get cs 0));
  check_int "slot written" 8 (E.get (E.cells_get cs 1));
  match E.cells_get cs 3 with
  | _ -> Alcotest.fail "out-of-bounds slot"
  | exception Invalid_argument _ -> ()

let test_pids_distinct_and_recycled () =
  (* A barrier keeps all eight domains alive at once — otherwise, on a
     small machine, a domain can finish and release its pid before the
     next one spawns, and recycling (correctly) hands out one id. *)
  let arrived = Atomic.make 0 in
  let pids =
    spawn_all
      (List.init 8 (fun _ () ->
           let p = E.pid () in
           Atomic.incr arrived;
           while Atomic.get arrived < 8 do
             Domain.cpu_relax ()
           done;
           p))
  in
  check_int "distinct pids" 8 (List.length (List.sort_uniq compare pids));
  List.iter
    (fun p -> check_bool "pid within capacity" true (p >= 0 && p < 64))
    pids;
  (* After release, eight more domains must fit well within capacity
     even if run many times. *)
  for _ = 1 to 20 do
    let again = spawn_all (List.init 8 (fun _ () -> E.pid ())) in
    List.iter
      (fun p -> check_bool "recycled pid in range" true (p >= 0 && p < 64))
      again
  done

(* One domain waits for the value another writes, and gets that very
   value back: the cell passes through [None] and a decoy first. *)
let test_spin_until () =
  let c = E.cell None and ready = Atomic.make false in
  let value = Some 42 in
  let got =
    spawn_all
      [
        (fun () ->
          Atomic.set ready true;
          E.spin_until c (function Some v -> v > 0 | None -> false));
        (fun () ->
          while not (Atomic.get ready) do
            Domain.cpu_relax ()
          done;
          E.set c (Some 0);
          E.set c value;
          None);
      ]
  in
  match got with
  | [ w; _ ] -> check_bool "the written value, physically" true (w == value)
  | _ -> assert false

let test_random_bounds () =
  let ok = ref true in
  let _ =
    spawn_all
      (List.init 4 (fun _ () ->
           for _ = 1 to 1000 do
             let x = E.random_int 7 in
             if x < 0 || x >= 7 then ok := false
           done))
  in
  check_bool "random_int in range across domains" true !ok

(* ------------------------------------------------------------------ *)
(* Locks and counters under real parallelism                           *)
(* ------------------------------------------------------------------ *)

let test_native_mcs_lock () =
  let lock = Native.Mcs_lock.create ~capacity:64 () in
  let counter = ref 0 in
  let domains = 4 and iters = 2_000 in
  let _ =
    spawn_all
      (List.init domains (fun _ () ->
           for _ = 1 to iters do
             Native.Mcs_lock.with_lock lock (fun () ->
                 (* Non-atomic increment: lost updates expose any
                    mutual-exclusion failure. *)
                 let v = !counter in
                 Domain.cpu_relax ();
                 counter := v + 1)
           done))
  in
  check_int "no lost updates" (domains * iters) !counter

let test_native_tas_lock () =
  let lock = Native.Tas_lock.create () in
  let counter = ref 0 in
  let domains = 4 and iters = 2_000 in
  let _ =
    spawn_all
      (List.init domains (fun _ () ->
           for _ = 1 to iters do
             Native.Tas_lock.with_lock lock (fun () ->
                 let v = !counter in
                 Domain.cpu_relax ();
                 counter := v + 1)
           done))
  in
  check_int "no lost updates" (domains * iters) !counter

let test_native_mcs_counter () =
  let c = Native.Mcs_counter.create ~capacity:64 () in
  let domains = 4 and iters = 1_000 in
  let results =
    spawn_all
      (List.init domains (fun _ () ->
           List.init iters (fun _ -> Native.Mcs_counter.fetch_and_inc c)))
  in
  let all = List.concat results |> List.sort compare in
  Alcotest.(check (list int))
    "dense distinct" (List.init (domains * iters) Fun.id) all

let test_native_combining_tree () =
  let c = Native.Combining_tree.create ~width:2 () in
  let domains = 4 and iters = 300 in
  let results =
    spawn_all
      (List.init domains (fun _ () ->
           List.init iters (fun _ -> Native.Combining_tree.fetch_and_inc c)))
  in
  let all = List.concat results |> List.sort compare in
  Alcotest.(check (list int))
    "dense distinct" (List.init (domains * iters) Fun.id) all

let test_native_anderson_lock () =
  let lock = Native.Anderson_lock.create ~capacity:64 () in
  let counter = ref 0 in
  let domains = 4 and iters = 1_000 in
  let _ =
    spawn_all
      (List.init domains (fun _ () ->
           for _ = 1 to iters do
             Native.Anderson_lock.with_lock lock (fun () ->
                 let v = !counter in
                 Domain.cpu_relax ();
                 counter := v + 1)
           done))
  in
  check_int "no lost updates" (domains * iters) !counter

let test_native_bitonic () =
  let c = Native.Bitonic_network.create ~width:4 () in
  let domains = 4 and iters = 500 in
  let results =
    spawn_all
      (List.init domains (fun _ () ->
           List.init iters (fun _ -> Native.Bitonic_network.fetch_and_inc c)))
  in
  let all = List.concat results |> List.sort compare in
  Alcotest.(check (list int))
    "dense distinct" (List.init (domains * iters) Fun.id) all

let test_native_work_stealing () =
  let t = Native.Work_stealing.create ~procs:64 () in
  let domains = 4 and iters = 500 in
  let results =
    spawn_all
      (List.init domains (fun d () ->
           let got = ref [] in
           for i = 0 to iters - 1 do
             Native.Work_stealing.enqueue t ((d * iters) + i)
           done;
           for _ = 0 to iters - 1 do
             match Native.Work_stealing.dequeue t with
             | Some v -> got := v :: !got
             | None -> assert false
           done;
           !got))
  in
  let all = List.concat results |> List.sort compare in
  Alcotest.(check (list int))
    "conservation" (List.init (domains * iters) Fun.id) all

let test_native_dtree_counter () =
  let c = Native.Diff_tree.create ~capacity:64 ~width:4 () in
  let domains = 4 and iters = 500 in
  let results =
    spawn_all
      (List.init domains (fun _ () ->
           List.init iters (fun _ -> Native.Diff_tree.fetch_and_inc c)))
  in
  let all = List.concat results |> List.sort compare in
  Alcotest.(check (list int))
    "dense distinct" (List.init (domains * iters) Fun.id) all

(* ------------------------------------------------------------------ *)
(* Pools and stacks under real parallelism                             *)
(* ------------------------------------------------------------------ *)

let test_native_elim_pool () =
  let pool = Native.Elim_pool.create ~capacity:64 ~width:4 () in
  let domains = 4 and iters = 1_000 in
  let results =
    spawn_all
      (List.init domains (fun d () ->
           let got = ref [] in
           for i = 0 to iters - 1 do
             Native.Elim_pool.enqueue pool ((d * iters) + i);
             match Native.Elim_pool.dequeue pool with
             | Some v -> got := v :: !got
             | None -> assert false
           done;
           !got))
  in
  let all = List.concat results |> List.sort compare in
  Alcotest.(check (list int))
    "conservation" (List.init (domains * iters) Fun.id) all

let test_native_elim_stack_sequential_lifo () =
  let stack = Native.Elim_stack.create ~capacity:64 ~width:4 () in
  Native.Elim_stack.push stack 1;
  Native.Elim_stack.push stack 2;
  Native.Elim_stack.push stack 3;
  check_int "lifo" 3 (Option.get (Native.Elim_stack.pop stack));
  check_int "lifo" 2 (Option.get (Native.Elim_stack.pop stack));
  check_int "lifo" 1 (Option.get (Native.Elim_stack.pop stack))

let test_native_elim_stack_concurrent () =
  let stack = Native.Elim_stack.create ~capacity:64 ~width:4 () in
  let domains = 4 and iters = 1_000 in
  let results =
    spawn_all
      (List.init domains (fun d () ->
           let got = ref [] in
           for i = 0 to iters - 1 do
             Native.Elim_stack.push stack ((d * iters) + i);
             match Native.Elim_stack.pop stack with
             | Some v -> got := v :: !got
             | None -> assert false
           done;
           !got))
  in
  let all = List.concat results |> List.sort compare in
  Alcotest.(check (list int))
    "conservation" (List.init (domains * iters) Fun.id) all

let test_native_producer_consumer_handoff () =
  (* Pure handoff: producers and consumers are distinct domains, so the
     dequeue-waits path and elimination path both get exercised. *)
  let pool = Native.Elim_pool.create ~capacity:64 ~width:4 () in
  let n = 2 and iters = 2_000 in
  let producers =
    List.init n (fun d () ->
        for i = 0 to iters - 1 do
          Native.Elim_pool.enqueue pool ((d * iters) + i)
        done;
        [])
  in
  let consumers =
    List.init n (fun _ () ->
        let got = ref [] in
        for _ = 0 to iters - 1 do
          match Native.Elim_pool.dequeue pool with
          | Some v -> got := v :: !got
          | None -> assert false
        done;
        !got)
  in
  let results = spawn_all (producers @ consumers) in
  let all = List.concat results |> List.sort compare in
  Alcotest.(check (list int))
    "handoff conservation" (List.init (n * iters) Fun.id) all

let test_native_central_pool () =
  let pool =
    Native.Central_pool.create ~size:8192
      ~head:(Native.Mcs_counter.as_counter (Native.Mcs_counter.create ~capacity:64 ()))
      ~tail:(Native.Mcs_counter.as_counter (Native.Mcs_counter.create ~capacity:64 ()))
      ()
  in
  let domains = 4 and iters = 500 in
  let results =
    spawn_all
      (List.init domains (fun d () ->
           let got = ref [] in
           for i = 0 to iters - 1 do
             Native.Central_pool.enqueue pool ((d * iters) + i);
             match Native.Central_pool.dequeue pool with
             | Some v -> got := v :: !got
             | None -> assert false
           done;
           !got))
  in
  let all = List.concat results |> List.sort compare in
  Alcotest.(check (list int))
    "conservation" (List.init (domains * iters) Fun.id) all

let test_native_rsu () =
  let t = Native.Rsu.create ~procs:64 () in
  let domains = 4 and iters = 500 in
  let results =
    spawn_all
      (List.init domains (fun d () ->
           let got = ref [] in
           for i = 0 to iters - 1 do
             Native.Rsu.enqueue t ((d * iters) + i)
           done;
           for _ = 0 to iters - 1 do
             match Native.Rsu.dequeue t with
             | Some v -> got := v :: !got
             | None -> assert false
           done;
           !got))
  in
  let all = List.concat results |> List.sort compare in
  Alcotest.(check (list int))
    "conservation" (List.init (domains * iters) Fun.id) all

let () =
  Alcotest.run "native"
    [
      ( "engine",
        [
          Alcotest.test_case "cells" `Quick test_cells;
          Alcotest.test_case "pids distinct and recycled" `Quick
            test_pids_distinct_and_recycled;
          Alcotest.test_case "random bounds" `Quick test_random_bounds;
          Alcotest.test_case "spin_until" `Quick test_spin_until;
        ] );
      ( "sync",
        [
          Alcotest.test_case "mcs lock" `Quick test_native_mcs_lock;
          Alcotest.test_case "tas lock" `Quick test_native_tas_lock;
          Alcotest.test_case "mcs counter" `Quick test_native_mcs_counter;
          Alcotest.test_case "combining tree" `Quick test_native_combining_tree;
          Alcotest.test_case "dtree counter" `Quick test_native_dtree_counter;
          Alcotest.test_case "anderson lock" `Quick test_native_anderson_lock;
          Alcotest.test_case "bitonic network" `Quick test_native_bitonic;
          Alcotest.test_case "work stealing" `Quick test_native_work_stealing;
        ] );
      ( "structures",
        [
          Alcotest.test_case "elim pool" `Quick test_native_elim_pool;
          Alcotest.test_case "elim stack sequential lifo" `Quick
            test_native_elim_stack_sequential_lifo;
          Alcotest.test_case "elim stack concurrent" `Quick
            test_native_elim_stack_concurrent;
          Alcotest.test_case "producer/consumer handoff" `Quick
            test_native_producer_consumer_handoff;
          Alcotest.test_case "central pool" `Quick test_native_central_pool;
          Alcotest.test_case "rsu" `Quick test_native_rsu;
        ] );
    ]

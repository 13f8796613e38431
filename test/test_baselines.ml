(* Tests for the comparison methods: diffracting-tree counters, the
   Figure-5 centralized pool and RSU. *)

module E = Sim.Engine
module Dtree = Baselines.Diff_tree.Make (E)
module Central = Baselines.Central_pool.Make (E)
module Rsu = Baselines.Rsu.Make (E)
module Mcs_counter = Sync.Mcs_counter.Make (E)
module Ctree = Sync.Combining_tree.Make (E)
module Local = Pools.Local_pool.Make (E)
module Bitonic = Baselines.Bitonic_network.Make (E)
module Ws = Baselines.Work_stealing.Make (E)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let run ?seed ~procs body =
  let stats = Sim.run ?seed ~procs ~abort_after:100_000_000 body in
  check_int "no simulated processor was cut off" 0 stats.aborted_procs;
  stats

(* ------------------------------------------------------------------ *)
(* Local pools (ring buffers)                                          *)
(* ------------------------------------------------------------------ *)

let test_local_pool_fifo_lifo () =
  let fifo = Local.create ~discipline:`Fifo ~lock_capacity:1 () in
  let lifo = Local.create ~discipline:`Lifo ~lock_capacity:1 () in
  let _ =
    run ~procs:1 (fun _ ->
        List.iter
          (fun v ->
            Local.enqueue fifo v;
            Local.enqueue lifo v)
          [ 1; 2; 3 ];
        check_int "fifo first" 1 (Option.get (Local.try_dequeue fifo));
        check_int "lifo first" 3 (Option.get (Local.try_dequeue lifo));
        check_int "fifo second" 2 (Option.get (Local.try_dequeue fifo));
        check_int "lifo second" 2 (Option.get (Local.try_dequeue lifo)))
  in
  ()

let test_local_pool_wraparound () =
  (* Exercise ring wrap-around with a tiny buffer. *)
  let p = Local.create ~size:4 ~lock_capacity:1 () in
  let _ =
    run ~procs:1 (fun _ ->
        for round = 1 to 5 do
          Local.enqueue p (2 * round);
          Local.enqueue p ((2 * round) + 1);
          check_int "fifo order kept across wraps" (2 * round)
            (Option.get (Local.try_dequeue p));
          check_int "fifo order kept across wraps" ((2 * round) + 1)
            (Option.get (Local.try_dequeue p))
        done;
        Alcotest.(check (option int)) "drained" None (Local.try_dequeue p))
  in
  ()

let test_local_pool_overflow () =
  let p = Local.create ~size:2 ~lock_capacity:1 () in
  let overflowed = ref false in
  let _ =
    run ~procs:1 (fun _ ->
        Local.enqueue p 1;
        Local.enqueue p 2;
        match Local.enqueue p 3 with
        | () -> ()
        | exception Failure _ -> overflowed := true)
  in
  check_bool "overflow detected" true !overflowed

let test_local_pool_full_ring_wraps () =
  (* Fill a size-4 ring completely on every lap, so each slot is reused
     across wraps in both disciplines; the fifth element overflows with
     the documented message. *)
  List.iter
    (fun discipline ->
      let p = Local.create ~discipline ~size:4 ~lock_capacity:1 () in
      let _ =
        run ~procs:1 (fun _ ->
            for lap = 0 to 4 do
              let vals = List.init 4 (fun i -> (10 * lap) + i) in
              List.iter (Local.enqueue p) vals;
              check_int "full" 4 (Local.size p);
              (match Local.enqueue p (-1) with
              | () -> Alcotest.fail "a fifth element fit in a size-4 ring"
              | exception Failure msg ->
                  Alcotest.(check string)
                    "overflow message" "Local_pool: overflow (increase ~size)"
                    msg);
              let expected =
                match discipline with `Fifo -> vals | `Lifo -> List.rev vals
              in
              List.iter
                (fun v ->
                  check_int "ring order across wraps" v
                    (Option.get (Local.try_dequeue p)))
                expected
            done;
            Alcotest.(check (option int)) "drained" None (Local.try_dequeue p))
      in
      ())
    [ `Fifo; `Lifo ]

let test_local_pool_concurrent () =
  let p = Local.create ~size:512 ~lock_capacity:8 () in
  let got = ref [] in
  let _ =
    run ~procs:8 (fun pid ->
        if pid < 4 then
          for i = 0 to 9 do
            Local.enqueue p ((pid * 10) + i)
          done
        else
          for _ = 0 to 9 do
            match Local.dequeue_blocking p with
            | Some v -> got := v :: !got
            | None -> Alcotest.fail "dequeue gave up"
          done)
  in
  Alcotest.(check (list int))
    "all transferred" (List.init 40 Fun.id)
    (List.sort compare !got)

(* ------------------------------------------------------------------ *)
(* Diffracting-tree counters                                           *)
(* ------------------------------------------------------------------ *)

let dtree_dense ~prisms ~procs ~iters ~width =
  let c = Dtree.create ~prisms ~capacity:procs ~width () in
  let results = Array.make (procs * iters) (-1) in
  let slot = ref 0 in
  let _ =
    run ~procs (fun _ ->
        for _ = 1 to iters do
          let v = Dtree.fetch_and_inc c in
          let s = !slot in
          incr slot;
          results.(s) <- v
        done)
  in
  Alcotest.(check (list int))
    "dense distinct values"
    (List.init (procs * iters) Fun.id)
    (List.sort compare (Array.to_list results))

let test_dtree_single_prism () = dtree_dense ~prisms:`Single_prism ~procs:24 ~iters:6 ~width:8

let test_dtree_multi_prism () = dtree_dense ~prisms:`Multi_prism ~procs:24 ~iters:6 ~width:8

let test_dtree_sequential () =
  let c = Dtree.create ~capacity:1 ~width:4 () in
  let got = ref [] in
  let _ =
    run ~procs:1 (fun _ ->
        for _ = 1 to 8 do
          got := Dtree.fetch_and_inc c :: !got
        done)
  in
  Alcotest.(check (list int))
    "sequential counting" (List.init 8 Fun.id)
    (List.rev !got)

let prop_dtree_dense =
  QCheck.Test.make ~name:"dtree counter dense (random widths/procs)" ~count:15
    QCheck.(pair (int_range 1 4) (int_range 1 24))
    (fun (wexp, procs) ->
      let width = 1 lsl wexp in
      let c = Dtree.create ~capacity:procs ~width () in
      let results = ref [] in
      let _ =
        Sim.run ~procs ~abort_after:50_000_000 (fun _ ->
            for _ = 1 to 3 do
              let v = Dtree.fetch_and_inc c in
              results := v :: !results
            done)
      in
      List.sort compare !results = List.init (procs * 3) Fun.id)

(* ------------------------------------------------------------------ *)
(* Bitonic counting network                                             *)
(* ------------------------------------------------------------------ *)

let test_bitonic_depth () =
  (* Bitonic[w] has depth log w * (log w + 1) / 2. *)
  List.iter
    (fun (w, d) ->
      let n = Bitonic.create ~width:w () in
      check_int (Printf.sprintf "depth of Bitonic[%d]" w) d (Bitonic.depth n))
    [ (2, 1); (4, 3); (8, 6); (16, 10) ]

let test_bitonic_sequential () =
  let n = Bitonic.create ~width:4 () in
  let got = ref [] in
  let _ =
    run ~procs:1 (fun _ ->
        for _ = 1 to 10 do
          got := Bitonic.fetch_and_inc n :: !got
        done)
  in
  Alcotest.(check (list int))
    "sequential counting" (List.init 10 Fun.id)
    (List.rev !got)

let test_bitonic_step_property () =
  (* Quiescent state after n tokens: output i received
     ceil((n - i) / w) tokens. *)
  List.iter
    (fun (width, tokens, seed) ->
      let net = Bitonic.create ~width () in
      let y = Array.make width 0 in
      let _ =
        Sim.run ~seed ~procs:tokens ~abort_after:50_000_000 (fun p ->
            E.delay (E.random_int 40);
            let out = Bitonic.traverse net ~wire:(p mod width) in
            y.(out) <- y.(out) + 1)
      in
      Array.iteri
        (fun i yi ->
          let expected = (tokens - i + width - 1) / width in
          check_int
            (Printf.sprintf "w=%d n=%d leaf %d" width tokens i)
            expected yi)
        y)
    [ (2, 7, 1); (4, 13, 2); (8, 29, 3); (16, 40, 4) ]

let test_periodic_depth () =
  (* Periodic[w] has depth (log w)^2. *)
  List.iter
    (fun (w, d) ->
      let n = Bitonic.create ~kind:`Periodic ~width:w () in
      check_int (Printf.sprintf "depth of Periodic[%d]" w) d (Bitonic.depth n))
    [ (2, 1); (4, 4); (8, 9); (16, 16) ]

let test_periodic_step_property () =
  List.iter
    (fun (width, tokens, seed) ->
      let net = Bitonic.create ~kind:`Periodic ~width () in
      let y = Array.make width 0 in
      let _ =
        Sim.run ~seed ~procs:tokens ~abort_after:50_000_000 (fun p ->
            E.delay (E.random_int 40);
            let out = Bitonic.traverse net ~wire:(p mod width) in
            y.(out) <- y.(out) + 1)
      in
      Array.iteri
        (fun i yi ->
          let expected = (tokens - i + width - 1) / width in
          check_int
            (Printf.sprintf "periodic w=%d n=%d leaf %d" width tokens i)
            expected yi)
        y)
    [ (2, 7, 1); (4, 13, 2); (8, 29, 3); (16, 40, 4) ]

let prop_periodic_dense =
  QCheck.Test.make ~name:"periodic counter dense (random widths/procs)"
    ~count:12
    QCheck.(pair (int_range 1 4) (int_range 1 24))
    (fun (wexp, procs) ->
      let width = 1 lsl wexp in
      let c = Bitonic.create ~kind:`Periodic ~width () in
      let results = ref [] in
      let _ =
        Sim.run ~procs ~abort_after:50_000_000 (fun _ ->
            for _ = 1 to 3 do
              let v = Bitonic.fetch_and_inc c in
              results := v :: !results
            done)
      in
      List.sort compare !results = List.init (procs * 3) Fun.id)

let prop_bitonic_dense =
  QCheck.Test.make ~name:"bitonic counter dense (random widths/procs)"
    ~count:12
    QCheck.(pair (int_range 1 4) (int_range 1 24))
    (fun (wexp, procs) ->
      let width = 1 lsl wexp in
      let c = Bitonic.create ~width () in
      let results = ref [] in
      let _ =
        Sim.run ~procs ~abort_after:50_000_000 (fun _ ->
            for _ = 1 to 3 do
              let v = Bitonic.fetch_and_inc c in
              results := v :: !results
            done)
      in
      List.sort compare !results = List.init (procs * 3) Fun.id)

(* ------------------------------------------------------------------ *)
(* Work stealing                                                        *)
(* ------------------------------------------------------------------ *)

let test_ws_owner_lifo () =
  let t = Ws.create ~procs:1 () in
  let _ =
    run ~procs:1 (fun _ ->
        Ws.enqueue t 1;
        Ws.enqueue t 2;
        Ws.enqueue t 3;
        check_int "owner pops newest" 3 (Option.get (Ws.dequeue t));
        check_int "owner pops newest" 2 (Option.get (Ws.dequeue t)))
  in
  ()

let test_ws_steals_oldest () =
  let t = Ws.create ~procs:2 () in
  let stolen = ref (-1) in
  let _ =
    run ~procs:2 (fun p ->
        if p = 0 then begin
          Ws.enqueue t 1;
          Ws.enqueue t 2;
          Ws.enqueue t 3;
          E.delay 10_000
        end
        else begin
          E.delay 2_000;
          (* Thief: own deque empty, must steal the victim's oldest. *)
          stolen := Option.get (Ws.dequeue t)
        end)
  in
  check_int "thief got the oldest element" 1 !stolen

let test_ws_conservation () =
  let procs = 16 in
  let t = Ws.create ~procs () in
  let got = ref [] in
  let _ =
    run ~procs (fun p ->
        for i = 0 to 4 do
          Ws.enqueue t ((p * 5) + i)
        done;
        for _ = 0 to 4 do
          match Ws.dequeue t with
          | Some v -> got := v :: !got
          | None -> Alcotest.fail "dequeue failed"
        done)
  in
  Alcotest.(check (list int))
    "dequeued = enqueued" (List.init 80 Fun.id)
    (List.sort compare !got)

let test_ws_stealing_distributes_work () =
  let procs = 8 in
  let t = Ws.create ~procs () in
  let got = ref [] in
  let _ =
    run ~procs (fun p ->
        if p = 0 then
          for i = 0 to 27 do
            Ws.enqueue t i
          done
        else
          for _ = 0 to 3 do
            match Ws.dequeue t with
            | Some v -> got := v :: !got
            | None -> Alcotest.fail "dequeue failed"
          done)
  in
  Alcotest.(check (list int))
    "thieves drained the producer" (List.init 28 Fun.id)
    (List.sort compare !got)

(* ------------------------------------------------------------------ *)
(* Centralized pool (Fig. 5)                                           *)
(* ------------------------------------------------------------------ *)

let central_with_mcs ~procs ~size =
  Central.create ~size
    ~head:(Mcs_counter.as_counter (Mcs_counter.create ~capacity:procs ()))
    ~tail:(Mcs_counter.as_counter (Mcs_counter.create ~capacity:procs ()))
    ()

let test_central_pool_conservation () =
  let procs = 16 in
  let pool = central_with_mcs ~procs ~size:1024 in
  let got = ref [] in
  let _ =
    run ~procs (fun p ->
        for i = 0 to 4 do
          Central.enqueue pool ((p * 5) + i);
          E.delay (E.random_int 20);
          match Central.dequeue pool with
          | Some v -> got := v :: !got
          | None -> Alcotest.fail "dequeue failed"
        done)
  in
  Alcotest.(check (list int))
    "dequeued = enqueued" (List.init 80 Fun.id)
    (List.sort compare !got)

let test_central_pool_dequeue_waits () =
  let pool = central_with_mcs ~procs:2 ~size:64 in
  let got = ref None in
  let _ =
    run ~procs:2 (fun p ->
        if p = 0 then got := Central.dequeue pool
        else begin
          E.delay 3_000;
          Central.enqueue pool 42
        end)
  in
  Alcotest.(check (option int)) "late enqueue observed" (Some 42) !got

let test_central_pool_with_ctree_counters () =
  let procs = 16 in
  let mk () = Ctree.as_counter (Ctree.create ~width:8 ()) in
  let pool = Central.create ~size:1024 ~head:(mk ()) ~tail:(mk ()) () in
  let got = ref [] in
  let _ =
    run ~procs (fun p ->
        Central.enqueue pool p;
        match Central.dequeue pool with
        | Some v -> got := v :: !got
        | None -> Alcotest.fail "dequeue failed")
  in
  Alcotest.(check (list int))
    "conserved with combining-tree counters" (List.init procs Fun.id)
    (List.sort compare !got)

let test_central_pool_with_dtree_counters () =
  let procs = 16 in
  let mk () = Dtree.as_counter (Dtree.create ~capacity:procs ~width:4 ()) in
  let pool = Central.create ~size:1024 ~head:(mk ()) ~tail:(mk ()) () in
  let got = ref [] in
  let _ =
    run ~procs (fun p ->
        Central.enqueue pool p;
        match Central.dequeue pool with
        | Some v -> got := v :: !got
        | None -> Alcotest.fail "dequeue failed")
  in
  Alcotest.(check (list int))
    "conserved with dtree counters" (List.init procs Fun.id)
    (List.sort compare !got)

let test_central_pool_stop () =
  let pool = central_with_mcs ~procs:1 ~size:16 in
  let stop = ref false in
  let got = ref (Some 0) in
  let _ =
    run ~procs:2 (fun p ->
        if p = 0 then got := Central.dequeue ~stop:(fun () -> !stop) pool
        else begin
          E.delay 2_000;
          stop := true
        end)
  in
  Alcotest.(check (option int)) "gave up on stop" None !got

(* ------------------------------------------------------------------ *)
(* RSU                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rsu_local_fast_path () =
  (* With a single pile there is nobody to balance with: enqueues and
     dequeues stay local and keep the pile's FIFO order. *)
  let t = Rsu.create ~procs:1 () in
  let _ =
    run ~procs:1 (fun _ ->
        Rsu.enqueue t 1;
        Rsu.enqueue t 2;
        check_int "dequeues own pile" 1
          (Option.get (Rsu.dequeue t));
        check_int "dequeues own pile" 2 (Option.get (Rsu.dequeue t)))
  in
  ()

let test_rsu_conservation () =
  let procs = 16 in
  let t = Rsu.create ~procs () in
  let got = ref [] in
  let _ =
    run ~procs (fun p ->
        for i = 0 to 4 do
          Rsu.enqueue t ((p * 5) + i)
        done;
        for _ = 0 to 4 do
          match Rsu.dequeue t with
          | Some v -> got := v :: !got
          | None -> Alcotest.fail "dequeue failed"
        done)
  in
  Alcotest.(check (list int))
    "dequeued = enqueued" (List.init 80 Fun.id)
    (List.sort compare !got)

let test_rsu_balancing_moves_work () =
  (* One producer fills its pile; the other processors can only make
     progress through the balancing step. *)
  let procs = 8 in
  let t = Rsu.create ~procs () in
  let got = ref [] in
  let _ =
    run ~procs (fun p ->
        if p = 0 then
          for i = 0 to 27 do
            Rsu.enqueue t i
          done
        else
          for _ = 0 to 3 do
            match Rsu.dequeue t with
            | Some v -> got := v :: !got
            | None -> Alcotest.fail "dequeue failed"
          done)
  in
  check_int "consumers stole everything" 28 (List.length !got);
  Alcotest.(check (list int))
    "distinct values" (List.init 28 Fun.id)
    (List.sort compare !got)

let test_rsu_stop () =
  let t : int Rsu.t = Rsu.create ~procs:2 () in
  let stop = ref false in
  let got = ref (Some 0) in
  let _ =
    run ~procs:2 (fun p ->
        if p = 0 then got := Rsu.dequeue ~stop:(fun () -> !stop) t
        else begin
          E.delay 2_000;
          stop := true
        end)
  in
  Alcotest.(check (option int)) "empty rsu gives up on stop" None !got

let prop_rsu_conservation =
  QCheck.Test.make ~name:"rsu conservation (random shapes)" ~count:15
    QCheck.(pair (int_range 1 16) (int_range 1 5))
    (fun (procs, per_proc) ->
      let t = Rsu.create ~procs () in
      let got = ref [] in
      let _ =
        Sim.run ~procs ~abort_after:50_000_000 (fun p ->
            for i = 0 to per_proc - 1 do
              Rsu.enqueue t ((p * per_proc) + i)
            done;
            for _ = 0 to per_proc - 1 do
              match Rsu.dequeue t with
              | Some v -> got := v :: !got
              | None -> ()
            done)
      in
      List.sort compare !got = List.init (procs * per_proc) Fun.id)

let () =
  Alcotest.run "baselines"
    [
      ( "local_pool",
        [
          Alcotest.test_case "fifo vs lifo" `Quick test_local_pool_fifo_lifo;
          Alcotest.test_case "ring wraparound" `Quick test_local_pool_wraparound;
          Alcotest.test_case "overflow" `Quick test_local_pool_overflow;
          Alcotest.test_case "full ring wraps" `Quick
            test_local_pool_full_ring_wraps;
          Alcotest.test_case "concurrent transfer" `Quick
            test_local_pool_concurrent;
        ] );
      ( "diff_tree",
        [
          Alcotest.test_case "single prism dense" `Quick test_dtree_single_prism;
          Alcotest.test_case "multi prism dense" `Quick test_dtree_multi_prism;
          Alcotest.test_case "sequential counting" `Quick test_dtree_sequential;
          QCheck_alcotest.to_alcotest prop_dtree_dense;
        ] );
      ( "bitonic",
        [
          Alcotest.test_case "depth" `Quick test_bitonic_depth;
          Alcotest.test_case "sequential" `Quick test_bitonic_sequential;
          Alcotest.test_case "step property" `Quick test_bitonic_step_property;
          QCheck_alcotest.to_alcotest prop_bitonic_dense;
          Alcotest.test_case "periodic depth" `Quick test_periodic_depth;
          Alcotest.test_case "periodic step property" `Quick
            test_periodic_step_property;
          QCheck_alcotest.to_alcotest prop_periodic_dense;
        ] );
      ( "work_stealing",
        [
          Alcotest.test_case "owner lifo" `Quick test_ws_owner_lifo;
          Alcotest.test_case "steals oldest" `Quick test_ws_steals_oldest;
          Alcotest.test_case "conservation" `Quick test_ws_conservation;
          Alcotest.test_case "stealing distributes" `Quick
            test_ws_stealing_distributes_work;
        ] );
      ( "central_pool",
        [
          Alcotest.test_case "conservation" `Quick test_central_pool_conservation;
          Alcotest.test_case "dequeue waits" `Quick test_central_pool_dequeue_waits;
          Alcotest.test_case "with combining-tree counters" `Quick
            test_central_pool_with_ctree_counters;
          Alcotest.test_case "with dtree counters" `Quick
            test_central_pool_with_dtree_counters;
          Alcotest.test_case "stop" `Quick test_central_pool_stop;
        ] );
      ( "rsu",
        [
          Alcotest.test_case "local fast path" `Quick test_rsu_local_fast_path;
          Alcotest.test_case "conservation" `Quick test_rsu_conservation;
          Alcotest.test_case "balancing moves work" `Quick
            test_rsu_balancing_moves_work;
          Alcotest.test_case "stop" `Quick test_rsu_stop;
          QCheck_alcotest.to_alcotest prop_rsu_conservation;
        ] );
    ]

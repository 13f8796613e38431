(* Tests of the benchmark suite itself (bench/suite/README.md):

   - every workload runs through the library entry at tiny sizes, all
     its units pass, and every metric name and unit it emits matches
     BENCHMARK.json;
   - [compare] reads agree / DIFFER / unresolved as its bounds say;
   - the ledger arithmetic, including an unbalanced ledger;
   - quartiles match Python's [statistics.quantiles];
   - the host-speed calibration samples a phase and scales its time. *)

open Etrees_suite
module J = Etrace.Json

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let check_float = Alcotest.(check (float 1e-9))
let check_names = Alcotest.(check (list (pair string string)))

let benchmark =
  lazy
    (match J.parse_file "../../../BENCHMARK.json" with
    | Ok j -> j
    | Error e -> Alcotest.fail ("BENCHMARK.json: " ^ e))

let declared section =
  let ( >>= ) = Option.bind in
  match J.member section (Lazy.force benchmark) >>= J.to_list with
  | None -> Alcotest.fail ("BENCHMARK.json: no " ^ section)
  | Some entries ->
      List.map
        (fun e ->
          match (J.member "name" e >>= J.to_str, J.member "unit" e >>= J.to_str) with
          | Some n, Some u -> (n, u)
          | _ -> Alcotest.fail ("BENCHMARK.json: malformed " ^ section ^ " entry"))
        entries

let with_units names = List.map (fun n -> (n, Metrics.unit_of n)) names

(* ---------------------------------------------------------------- *)

let fake_costs _ =
  {
    Ledger.heap_ns = 10.0;
    read_ns = 5.0;
    write_ns = 6.0;
    rmw_ns = 7.0;
    delay_ns = 4.0;
    stamp_ns = 1.0;
    injector_ns = 0.0;
    race_ns = 0.0;
    calib_ns_per_step = 100.0;
  }

let tiny_workload w () =
  let rep = Workload.run_rep ~size:Workload.Tiny ~seed:1 ~traced:false w in
  List.iter
    (fun (u : Workload.unit_result) -> check_bool u.line true u.ok)
    rep.units;
  check_bool "events fired" true (rep.events > 0);
  check_bool "setup ended at the first event" true
    (rep.setup_s > 0.0 && rep.wall_s > 0.0);
  let again = Workload.run_rep ~size:Workload.Tiny ~seed:1 ~traced:false w in
  check_string "repetitions agree" (Workload.digest rep) (Workload.digest again);
  let setups = ref [] in
  let third =
    Workload.run_rep ~at_setup:(fun s -> setups := s :: !setups)
      ~size:Workload.Tiny ~seed:1 ~traced:false w
  in
  check_bool "set-up reported once, at the first event" true
    (!setups = [ third.setup_s ]);
  let e2e = Results.end_to_end ~setups:!setups [ rep; again ] in
  check_names "end-to-end names and units" (declared "end_to_end")
    (with_units (List.map fst e2e));
  List.iter (fun (n, v) -> check_bool (n ^ " is positive") true (v > 0.0)) e2e;
  let traced = Workload.run_rep ~size:Workload.Tiny ~seed:1 ~traced:true w in
  check_string "tracing leaves the outputs alone" (Workload.digest rep)
    (Workload.digest traced);
  let pl =
    Layers.per_layer ~size:Workload.Tiny ~costs_at:fake_costs ~splitmix:1.0
      ~guard:1.0 ~reps:[ rep ] ~traced w
  in
  check_names "per-layer names and units" (declared "per_layer")
    (with_units (List.map fst pl));
  let verdict = Results.judge ~lost:0 [ rep; again ] in
  check_int "no unit failed" 0 verdict.Results.failed

let test_judge () =
  let rep = Workload.run_rep ~size:Workload.Tiny ~seed:1 ~traced:false
      Workload.Check_dpor in
  let bent =
    { rep with
      units =
        List.map
          (fun (u : Workload.unit_result) -> { u with line = u.line ^ " x" })
          rep.units }
  in
  let v = Results.judge ~lost:0 [ rep; bent ] in
  check_int "a digest that moves fails its units" v.Results.attempted
    v.Results.failed;
  let v = Results.judge ~lost:1 [ rep ] in
  check_int "a lost repetition fails every unit" v.Results.attempted
    v.Results.failed

(* ---------------------------------------------------------------- *)

let bounds = [ ("wall_s", 0.10); ("events_per_s", 0.10) ]

let run ?(seed = 1) ~wall ~p99 () =
  [ { Results.workload = "pc_saturated"; seed;
      metrics = [ ("wall_s", wall); ("events_per_s", 1e6 /. wall) ];
      exact = [ ("sim.latency_p99_cycles", p99) ];
      digest = "d1" } ]

let walls = [ 5.00; 5.05; 4.98; 5.02; 5.01 ]
let set ?(scale = 1.0) ?(p99 = 703.0) () =
  List.map (fun w -> run ~wall:(w *. scale) ~p99 ()) walls

let status_of metric lines =
  match List.find_opt (fun l -> l.Results.metric = metric) lines with
  | Some l -> Results.status_name l.Results.status
  | None -> "missing"

let test_compare_identical () =
  let lines = Results.compare_sets ~bounds (set ()) (set ()) in
  List.iter
    (fun l ->
      check_string (l.Results.metric ^ " agrees") "agree"
        (Results.status_name l.Results.status))
    lines;
  check_int "two bounded, one exact, the digest" 4 (List.length lines)

let test_compare_slower () =
  let lines = Results.compare_sets ~bounds (set ()) (set ~scale:1.15 ()) in
  check_string "15% slower" "DIFFER" (status_of "wall_s" lines);
  check_string "simulation unchanged" "agree"
    (status_of "sim.latency_p99_cycles" lines)

let test_compare_exact () =
  let lines = Results.compare_sets ~bounds (set ()) (set ~p99:704.0 ()) in
  check_string "p99 off by one" "DIFFER" (status_of "sim.latency_p99_cycles" lines);
  check_string "host time unchanged" "agree" (status_of "wall_s" lines)

let test_compare_unresolved () =
  let noisy = List.map (fun w -> run ~wall:w ~p99:703.0 ()) [ 4.0; 5.0; 6.0; 5.0; 4.5 ] in
  let lines = Results.compare_sets ~bounds (set ()) noisy in
  check_string "spread wider than the bound" "unresolved" (status_of "wall_s" lines)

(* Simulated values may differ between seeds, never within one. *)
let test_compare_seeds () =
  let mixed p99s =
    List.mapi (fun i p99 -> run ~seed:(i + 1) ~wall:5.0 ~p99 ()) p99s
  in
  let lines =
    Results.compare_sets ~bounds (mixed [ 703.0; 959.0 ]) (mixed [ 703.0; 959.0 ])
  in
  check_string "same seeds, same values" "agree"
    (status_of "sim.latency_p99_cycles" lines);
  let lines =
    Results.compare_sets ~bounds (mixed [ 703.0; 959.0 ]) (mixed [ 703.0; 960.0 ])
  in
  check_string "seed 2 moved" "DIFFER" (status_of "sim.latency_p99_cycles" lines)

(* The JSON a run writes reads back into the samples [compare] uses. *)
let test_results_roundtrip () =
  let verdict = { Results.attempted = 2; failed = 0; digest = "abc" } in
  let r =
    { Results.workload = "pc_saturated"; reps = 3; verdict;
      metrics = [ ("wall_s", 5.25); ("events_per_s", 2.5e6) ];
      exact = [ ("sim.latency_p99_cycles", 703.0) ]; per_layer = [] }
  in
  let text = Results.to_string (Results.to_json ~seed:1 ~trace:false [ r ]) in
  match Result.bind (J.parse text) Results.samples_of_run with
  | Error e -> Alcotest.fail e
  | Ok [ s ] ->
      check_string "workload" "pc_saturated" s.Results.workload;
      check_int "seed" 1 s.Results.seed;
      check_float "wall_s" 5.25 (List.assoc "wall_s" s.Results.metrics);
      check_float "p99" 703.0 (List.assoc "sim.latency_p99_cycles" s.Results.exact);
      check_string "digest" "abc" s.Results.digest
  | Ok _ -> Alcotest.fail "expected one workload"

let test_summary_line () =
  let verdict = { Results.attempted = 2; failed = 1; digest = "abc" } in
  let r =
    { Results.workload = "pc_saturated"; reps = 3; verdict;
      metrics = [ ("wall_s", 5.25) ]; exact = []; per_layer = [] }
  in
  match J.parse (Results.summary_line ~trace:false [ r ]) with
  | Error e -> Alcotest.fail e
  | Ok j ->
      check_bool "a failed unit is not correct" true
        (J.member "correct" j = Some (J.Bool false));
      check_bool "failed count" true (J.member "failed" j = Some (J.Num 1.0))

(* ---------------------------------------------------------------- *)

let point ?(heap = true) ~events ~reads ~writes ~rmws () =
  { Ledger.occupancy = 4; events; reads; writes; rmws; heap }

let test_ledger () =
  (* 1000 events: 400 reads, 200 writes, 100 RMWs, 300 others. *)
  let p = point ~events:1000 ~reads:400 ~writes:200 ~rmws:100 () in
  let s = Ledger.estimate ~costs_at:fake_costs ~wall_s:1e-4 [ p ] in
  (* 1e-4 s = 100_000 ns *)
  check_float "heap" (1000.0 *. 10.0 /. 1e5) s.Ledger.event_heap;
  check_float "engine"
    (((400.0 *. 5.0) +. (200.0 *. 6.0) +. (100.0 *. 7.0) +. (300.0 *. 4.0)) /. 1e5)
    s.Ledger.engine_impl;
  check_float "memory" (300.0 *. 1.0 /. 1e5) s.Ledger.memory;
  check_float "residual"
    (1.0 -. (s.Ledger.event_heap +. s.Ledger.engine_impl +. s.Ledger.memory))
    s.Ledger.residual;
  check_bool "balanced" true (s.Ledger.residual >= 0.0);
  let dpor = point ~heap:false ~events:1000 ~reads:400 ~writes:200 ~rmws:100 () in
  let s = Ledger.estimate ~costs_at:fake_costs ~wall_s:1e-4 [ dpor ] in
  check_float "model-checker runs bypass the heap" 0.0 s.Ledger.event_heap;
  let k = Ledger.at_speed ~ns_per_step:50.0 (fake_costs 4) in
  check_float "a host twice as fast halves the costs" 5.0 k.Ledger.heap_ns;
  check_float "and records its speed" 50.0 k.Ledger.calib_ns_per_step

let test_ledger_unbalanced () =
  let p = point ~events:1000 ~reads:400 ~writes:200 ~rmws:100 () in
  (* The same work in 10 us: the unit costs claim more time than the
     run took. *)
  let s = Ledger.estimate ~costs_at:fake_costs ~wall_s:1e-5 [ p ] in
  check_float "residual negative, not clipped"
    (1.0 -. ((1000.0 *. 10.0) +. 5100.0 +. 300.0) /. 1e4)
    s.Ledger.residual

(* ---------------------------------------------------------------- *)

(* The timer runs slices through a phase of plain computation, and
   their time comes off the phase's. *)
let test_calib () =
  let t0 = Span.now () in
  Calib.start ();
  let x = ref 0 in
  while Workload.secs t0 (Span.now ()) < 0.45 do
    x := Sys.opaque_identity (!x + 1)
  done;
  let r = Calib.stop () in
  check_bool "a slice per period" true (r.Calib.samples >= 3);
  check_bool "slices took time" true (r.Calib.loop_s > 0.0 && r.Calib.loop_s < 0.45);
  check_float "reference seconds at the measured speed"
    (2.0 *. Calib.ref_ns_per_step /. r.Calib.ns_per_step)
    (Calib.to_ref ~ns_per_step:r.Calib.ns_per_step 2.0);
  let idle = (Calib.start (); Calib.stop ()) in
  check_int "a phase too short for the timer still gets a slice" 1 idle.Calib.samples

(* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
let test_quartiles () =
  let q1, q2, q3 = Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  check_float "q1" 2.75 q1;
  check_float "q2" 5.5 q2;
  check_float "q3" 8.25 q3;
  check_float "median" 5.5 (Stats.median [ 10.0; 1.0; 5.0; 6.0 ]);
  check_float "spread" ((8.25 -. 2.75) /. 5.5)
    (Stats.spread (List.init 10 (fun i -> float_of_int (i + 1))))

let () =
  Alcotest.run "bench_suite"
    [
      ( "workloads",
        List.map
          (fun w ->
            Alcotest.test_case ("tiny " ^ Workload.name w) `Quick (tiny_workload w))
          Workload.all
        @ [ Alcotest.test_case "unit verdicts" `Quick test_judge ] );
      ( "compare",
        [
          Alcotest.test_case "identical sets agree" `Quick test_compare_identical;
          Alcotest.test_case "15% slower differs" `Quick test_compare_slower;
          Alcotest.test_case "simulated value off by one" `Quick test_compare_exact;
          Alcotest.test_case "wide spread is unresolved" `Quick
            test_compare_unresolved;
          Alcotest.test_case "exact values are per seed" `Quick test_compare_seeds;
          Alcotest.test_case "results round trip" `Quick test_results_roundtrip;
          Alcotest.test_case "summary line" `Quick test_summary_line;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "shares" `Quick test_ledger;
          Alcotest.test_case "unbalanced" `Quick test_ledger_unbalanced;
        ] );
      ("stats", [ Alcotest.test_case "quartiles" `Quick test_quartiles ]);
      ("calib", [ Alcotest.test_case "slices and reference seconds" `Quick test_calib ]);
    ]

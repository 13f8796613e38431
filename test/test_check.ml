(* Tests for etrees.check: the exhaustive-interleaving model checker.

   Covers the schedule codec, exact interleaving counts on toy
   programs (DPOR strictly below naive enumeration on independent
   accesses), determinism of exploration, clean verdicts on the
   paper's structures at small sizes, the seeded balancer bug
   (step-property counterexample found well under the 10k budget and
   byte-identically replayable), the centralized pool's deadlock under
   a starved dequeuer, golden exploration counts and counterexample
   schedules, the replay-divergence check, and the quiescent-consistency
   monitor. *)

module E = Sim.Engine
module Ex = Check.Explore
module Mon = Check.Monitor
module Sc = Check.Scenario

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Schedule codec                                                      *)
(* ------------------------------------------------------------------ *)

let test_schedule_codec () =
  let rt a = Ex.parse_schedule (Ex.format_schedule a) in
  List.iter
    (fun a -> Alcotest.(check (array int)) "round trip" a (rt a))
    [ [| 0 |]; [| 0; 0; 0; 1; 1; 0 |]; [| 2; 1; 0 |]; Array.make 40 1 ];
  check_string "run-length rendering" "0x5,1x3"
    (Ex.format_schedule [| 0; 0; 0; 0; 0; 1; 1; 1 |]);
  Alcotest.(check (array int))
    "bare pids accepted" [| 0; 1; 0 |]
    (Ex.parse_schedule "0,1,0");
  check_int "switches" 2 (Ex.switches [| 0; 0; 1; 0 |]);
  check_int "no switches" 0 (Ex.switches [| 1; 1; 1 |]);
  (match Ex.parse_schedule "0xnope" with
  | exception (Invalid_argument _ | Failure _) -> ()
  | _ -> Alcotest.fail "malformed schedule parsed")

(* ------------------------------------------------------------------ *)
(* Toy programs: exact interleaving counts                             *)
(* ------------------------------------------------------------------ *)

(* Two processors, one engine write each.  With [shared] both write the
   same cell (dependent: both orders matter); otherwise each writes its
   own cell (independent: one order suffices). *)
let toy ~shared =
  {
    Ex.name = "toy";
    procs = 2;
    prepare =
      (fun () ->
        let a = E.cell 0 and b = E.cell 0 in
        let body pid =
          E.set (if shared || pid = 0 then a else b) (pid + 1)
        in
        { Ex.body; at_quiescence = (fun () -> []) });
  }

let test_toy_counts () =
  let naive_ind = Ex.explore ~dpor:false (toy ~shared:false) in
  let dpor_ind = Ex.explore ~dpor:true (toy ~shared:false) in
  let naive_dep = Ex.explore ~dpor:false (toy ~shared:true) in
  let dpor_dep = Ex.explore ~dpor:true (toy ~shared:true) in
  List.iter
    (fun (o : Ex.outcome) ->
      check_bool "uncapped" false o.Ex.capped;
      check_bool "no violation" true (o.Ex.counterexample = None))
    [ naive_ind; dpor_ind; naive_dep; dpor_dep ];
  check_int "naive explores both orders" 2 naive_ind.Ex.runs;
  check_int "independent writes need one order" 1 dpor_ind.Ex.runs;
  check_bool "dpor < naive on independent accesses" true
    (dpor_ind.Ex.runs < naive_ind.Ex.runs);
  check_int "dependent writes need both orders" 2
    (dpor_dep.Ex.complete + dpor_dep.Ex.sleep_blocked);
  check_int "naive agrees on the dependent case" 2 naive_dep.Ex.runs

let test_explore_deterministic () =
  let prog = Sc.elim_pool.Sc.make ~procs:2 ~width:2 ~ops:1 in
  let a = Ex.explore prog and b = Ex.explore prog in
  check_int "runs" a.Ex.runs b.Ex.runs;
  check_int "complete" a.Ex.complete b.Ex.complete;
  check_int "sleep-blocked" a.Ex.sleep_blocked b.Ex.sleep_blocked;
  check_int "max depth" a.Ex.max_depth b.Ex.max_depth

(* The explorer keeps the happens-before state of a replayed prefix
   from the execution that logged it, keyed by location ids relative to
   the watermark before [prepare].  This [prepare] allocates one extra
   cell before the shared one on every second call, so the second
   execution's replayed first step writes a cell whose key is not the
   logged one.  Without the check the explorer would search the wrong
   space and report nothing. *)
let test_nondeterministic_prepare () =
  let calls = ref 0 in
  let prog =
    {
      Ex.name = "shifty";
      procs = 2;
      prepare =
        (fun () ->
          incr calls;
          if !calls mod 2 = 0 then ignore (E.cell 0);
          let c = E.cell 0 in
          let body pid =
            E.set c pid;
            E.set c (pid + 2)
          in
          { Ex.body; at_quiescence = (fun () -> []) });
    }
  in
  match Ex.explore prog with
  | exception Ex.Replay_diverged msg ->
      check_string "names the step"
        "shifty: step 1 (p0) does not replay the access logged for it; \
         prepare or the program is not deterministic"
        msg
  | o -> Alcotest.failf "explored %d executions without noticing" o.Ex.runs

(* ------------------------------------------------------------------ *)
(* Clean structures verify; DPOR prunes                                *)
(* ------------------------------------------------------------------ *)

let verified name (o : Ex.outcome) =
  check_bool (name ^ ": exhausted the space") false o.Ex.capped;
  (match o.Ex.counterexample with
  | None -> ()
  | Some (v, r) ->
      Alcotest.failf "%s: unexpected %s violation (%s): %s" name
        v.Mon.property
        (Ex.format_schedule r.Ex.schedule)
        v.Mon.detail);
  check_bool (name ^ ": did some work") true (o.Ex.complete > 0)

let test_clean_scenarios () =
  List.iter
    (fun (scenario, procs, ops) ->
      let prog = scenario.Sc.make ~procs ~width:2 ~ops in
      verified scenario.Sc.name (Ex.explore prog))
    [ (Sc.elim_pool, 2, 1); (Sc.tree, 2, 1); (Sc.counter, 2, 1);
      (Sc.counter_mixed, 2, 1); (Sc.central_pool, 2, 1) ]

let test_dpor_prunes_tree () =
  let prog = Sc.tree.Sc.make ~procs:2 ~width:2 ~ops:1 in
  let dpor = Ex.explore ~dpor:true prog in
  let naive = Ex.explore ~dpor:false ~max_interleavings:2_000 prog in
  verified "tree (dpor)" dpor;
  check_bool "naive blows past DPOR's count" true
    (naive.Ex.capped || naive.Ex.runs > dpor.Ex.runs)

(* ------------------------------------------------------------------ *)
(* Seeded bug: counterexample + byte-identical replay                  *)
(* ------------------------------------------------------------------ *)

let test_seeded_bug_found () =
  let prog = Sc.tree_buggy.Sc.make ~procs:2 ~width:2 ~ops:2 in
  let o = Ex.explore ~max_interleavings:10_000 prog in
  match o.Ex.counterexample with
  | None -> Alcotest.fail "seeded balancer bug not found within 10k runs"
  | Some (v, r) ->
      check_string "violated property" "step-property" v.Mon.property;
      check_bool "found within the 10k budget" true (o.Ex.runs < 10_000);
      let small = Ex.minimize prog v r.Ex.schedule in
      check_bool "minimization never grows the schedule" true
        (Array.length small <= Array.length r.Ex.schedule);
      check_bool "minimization never adds switches" true
        (Ex.switches small <= Ex.switches r.Ex.schedule);
      (* Byte-identical replay: the minimized schedule re-executes to
         the same violation, twice over. *)
      let r1 = Ex.replay prog small and r2 = Ex.replay prog small in
      check_string "replayed schedule is stable"
        (Ex.format_schedule r1.Ex.schedule)
        (Ex.format_schedule r2.Ex.schedule);
      let violated (run : Ex.run) =
        List.exists
          (fun (x : Mon.violation) -> x.Mon.property = v.Mon.property)
          run.Ex.violations
      in
      check_bool "replay 1 reproduces the violation" true (violated r1);
      check_bool "replay 2 reproduces the violation" true (violated r2);
      check_string "violation detail is byte-identical across replays"
        (String.concat "|"
           (List.map (fun (x : Mon.violation) -> x.Mon.detail)
              r1.Ex.violations))
        (String.concat "|"
           (List.map (fun (x : Mon.violation) -> x.Mon.detail)
              r2.Ex.violations))

let test_unseeded_tree_clean () =
  (* Same shape, bug absent: the checker must verify it. *)
  let prog = Sc.tree.Sc.make ~procs:2 ~width:2 ~ops:2 in
  verified "tree ops=2" (Ex.explore prog)

(* ------------------------------------------------------------------ *)
(* Deadlock detection                                                  *)
(* ------------------------------------------------------------------ *)

let test_starved_central_pool_deadlocks () =
  let prog = Sc.central_pool_starved.Sc.make ~procs:2 ~width:2 ~ops:1 in
  let o = Ex.explore prog in
  match o.Ex.counterexample with
  | None -> Alcotest.fail "starved centralized pool never deadlocked"
  | Some (v, r) ->
      check_string "violated property" "deadlock" v.Mon.property;
      check_bool "deadlocking schedule is non-trivial" true
        (Array.length r.Ex.schedule > 0);
      check_bool "counted" true (o.Ex.deadlocks > 0)

(* ------------------------------------------------------------------ *)
(* Golden exploration: the explorer's counts are part of its contract  *)
(* ------------------------------------------------------------------ *)

(* Every count below was recorded before the explorer's bookkeeping
   was rewritten for speed; exploration order and pruning must stay
   exactly as they were.  Seed 1 is the seed `dune build @check`
   uses, so these agree with its printed execution counts. *)

let counts (o : Ex.outcome) =
  Printf.sprintf
    "runs=%d complete=%d deadlocks=%d sleep_blocked=%d budget_hits=%d \
     max_depth=%d capped=%b"
    o.Ex.runs o.Ex.complete o.Ex.deadlocks o.Ex.sleep_blocked
    o.Ex.budget_hits o.Ex.max_depth o.Ex.capped

let test_golden_dpor_counts () =
  List.iter
    (fun (scenario, procs, width, ops, expected) ->
      let prog = scenario.Sc.make ~procs ~width ~ops in
      check_string
        (Printf.sprintf "%s p%d w%d o%d" scenario.Sc.name procs width ops)
        expected
        (counts (Ex.explore ~seed:1 prog)))
    [
      ( Sc.elim_pool, 2, 4, 1,
        "runs=1893 complete=1893 deadlocks=0 sleep_blocked=0 budget_hits=0 \
         max_depth=91 capped=false" );
      ( Sc.counter_mixed, 2, 2, 1,
        "runs=130 complete=130 deadlocks=0 sleep_blocked=0 budget_hits=0 \
         max_depth=43 capped=false" );
      ( Sc.tree, 3, 2, 1,
        "runs=1202 complete=1132 deadlocks=0 sleep_blocked=70 budget_hits=0 \
         max_depth=61 capped=false" );
      ( Sc.shard, 3, 2, 1,
        "runs=159 complete=133 deadlocks=0 sleep_blocked=26 budget_hits=0 \
         max_depth=107 capped=false" );
      ( Sc.central_pool, 3, 2, 2,
        "runs=105 complete=96 deadlocks=0 sleep_blocked=9 budget_hits=0 \
         max_depth=20 capped=false" );
    ]

(* Scenarios whose executions mostly replay a prefix an earlier one
   decided.  counter_mixed p3 is bench/suite's check_dpor scenario;
   every execution of the starved pool deadlocks, so spin-block and
   deadlock detection must work below replayed frames too. *)
let test_golden_replay_counts () =
  let explore ?stop_on_violation (scenario : Sc.t) ~procs ~width ~ops =
    let prog = scenario.Sc.make ~procs ~width ~ops in
    counts (Ex.explore ~seed:1 ?stop_on_violation prog)
  in
  check_string "counter_mixed p3 w2 o1"
    "runs=76256 complete=74173 deadlocks=0 sleep_blocked=2083 budget_hits=0 \
     max_depth=74 capped=false"
    (explore Sc.counter_mixed ~procs:3 ~width:2 ~ops:1);
  check_string "central_pool_starved p2 w2 o1, every execution"
    "runs=4 complete=0 deadlocks=4 sleep_blocked=0 budget_hits=0 max_depth=12 \
     capped=false"
    (explore ~stop_on_violation:false Sc.central_pool_starved ~procs:2 ~width:2
       ~ops:1)

let test_golden_naive_counts () =
  let prog = Sc.elim_pool.Sc.make ~procs:3 ~width:2 ~ops:1 in
  check_string "elim_pool p3 w2 o1, naive, 2,000-execution cap"
    "runs=2000 complete=2000 deadlocks=0 sleep_blocked=0 budget_hits=0 \
     max_depth=70 capped=true"
    (counts (Ex.explore ~dpor:false ~max_interleavings:2_000 ~seed:1 prog))

let test_golden_counterexamples () =
  let prog = Sc.tree_buggy.Sc.make ~procs:2 ~width:2 ~ops:2 in
  (match (Ex.explore ~seed:1 prog).Ex.counterexample with
  | None -> Alcotest.fail "tree_buggy: no counterexample"
  | Some (v, r) ->
      check_string "tree_buggy schedule" "0x26,1x27"
        (Ex.format_schedule r.Ex.schedule);
      check_string "tree_buggy minimised schedule" "0x26,1x27"
        (Ex.format_schedule (Ex.minimize ~seed:1 prog v r.Ex.schedule)));
  (* The deadlock detail names process-global location ids, so only
     the deadlocked pids are pinned. *)
  let prog = Sc.central_pool_starved.Sc.make ~procs:2 ~width:2 ~ops:1 in
  match (Ex.explore ~seed:1 prog).Ex.counterexample with
  | Some (_, { Ex.status = Ex.Deadlocked blocked; schedule; _ }) ->
      Alcotest.(check (list int))
        "central_pool_starved deadlocked pids" [ 1 ] (List.map fst blocked);
      check_string "central_pool_starved schedule" "0x2,1x7"
        (Ex.format_schedule schedule)
  | _ -> Alcotest.fail "central_pool_starved: no deadlock"

(* ------------------------------------------------------------------ *)
(* Quiescent-consistency monitor                                       *)
(* ------------------------------------------------------------------ *)

let op is_inc result = { Mon.is_inc; result = Some result }
let paired is_inc = { Mon.is_inc; result = None }

let qc_ok ops = (Mon.quiescent_consistency ops).Mon.ok

let test_quiescent_consistency_monitor () =
  check_bool "empty history" true (qc_ok []);
  check_bool "inc burst returning 0..n-1" true
    (qc_ok [ op true 0; op true 1; op true 2 ]);
  check_bool "order of the multiset is irrelevant" true
    (qc_ok [ op true 2; op true 0; op true 1 ]);
  check_bool "inc skipping a value" false (qc_ok [ op true 0; op true 2 ]);
  check_bool "single inc returning 5" false (qc_ok [ op true 5 ]);
  check_bool "inc then dec" true (qc_ok [ op true 0; op false 0 ]);
  check_bool "dec first goes negative" true (qc_ok [ op false (-1) ]);
  check_bool "pairs cancel" true (qc_ok [ paired true; paired false ]);
  check_bool "unbalanced pairs" false (qc_ok [ paired true ]);
  check_bool "pairs plus a realizable tail" true
    (qc_ok [ paired true; paired false; op true 0 ]);
  check_bool "undershoot is not realizable" false
    (qc_ok [ op true (-2); op false (-2) ]);
  check_bool "paired balance accepts the undershoot history" true
    (Mon.paired_balance [ op true (-2); op false (-2) ]).Mon.ok

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "check"
    [
      ( "explore",
        [
          Alcotest.test_case "schedule codec" `Quick test_schedule_codec;
          Alcotest.test_case "toy interleaving counts" `Quick test_toy_counts;
          Alcotest.test_case "deterministic" `Quick test_explore_deterministic;
          Alcotest.test_case "nondeterministic prepare raises" `Quick
            test_nondeterministic_prepare;
          Alcotest.test_case "clean scenarios verify" `Slow
            test_clean_scenarios;
          Alcotest.test_case "dpor prunes the tree" `Slow test_dpor_prunes_tree;
        ] );
      ( "counterexample",
        [
          Alcotest.test_case "seeded bug found + replayed" `Quick
            test_seeded_bug_found;
          Alcotest.test_case "unseeded tree is clean" `Slow
            test_unseeded_tree_clean;
          Alcotest.test_case "starved central pool deadlocks" `Quick
            test_starved_central_pool_deadlocks;
        ] );
      ( "golden",
        [
          Alcotest.test_case "dpor counts" `Slow test_golden_dpor_counts;
          Alcotest.test_case "dpor counts across replays" `Slow
            test_golden_replay_counts;
          Alcotest.test_case "naive counts" `Slow test_golden_naive_counts;
          Alcotest.test_case "counterexamples" `Quick
            test_golden_counterexamples;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "quiescent consistency" `Quick
            test_quiescent_consistency_monitor;
        ] );
    ]

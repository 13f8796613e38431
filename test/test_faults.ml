(* Tests for etrees.faults: fault-plan determinism, scheduler fault
   semantics (stall / crash / hotspot / jitter), the conservation audit
   and termination-bound checker, and the chaos workload's determinism
   regression. *)

module E = Sim.Engine
module FP = Faults.Fault_plan
module W = Workloads

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let uniform = Sim.Memory.uniform_config

(* ------------------------------------------------------------------ *)
(* Scheduler fault semantics                                           *)
(* ------------------------------------------------------------------ *)

(* A stall window defers events landing inside it to the window end:
   delays of 100+100 with a stall of [150, 250) land the second
   checkpoint at exactly 250. *)
let test_stall_defers () =
  let plan = { FP.seed = 0; events = [ FP.Stall { pid = 0; at = 150; cycles = 100 } ] } in
  let x = ref 0 and y = ref 0 in
  let stats =
    Faults.Inject.run ~plan ~procs:1 (fun _ ->
        E.delay 100;
        x := E.now ();
        E.delay 100;
        y := E.now ())
  in
  check_int "before the window" 100 !x;
  check_int "deferred to window end" 250 !y;
  check_int "one defer counted" 1 stats.Sim.fault_defers;
  check_int "nobody crashed" 0 stats.Sim.crashed_procs

(* A crashed processor never runs again (its continuation is dropped,
   not unwound), while its peers are unaffected. *)
let test_crash_stops () =
  let plan = { FP.seed = 0; events = [ FP.Crash { pid = 1; at = 200 } ] } in
  let last = [| 0; 0 |] in
  let cleanup_ran = ref false in
  let stats =
    Faults.Inject.run ~plan ~procs:2 (fun p ->
        Fun.protect
          ~finally:(fun () -> if p = 1 then cleanup_ran := true)
          (fun () ->
            while E.now () < 500 do
              E.delay 10;
              last.(p) <- E.now ()
            done))
  in
  check_int "survivor ran to the horizon" 500 last.(0);
  check_bool "victim stopped before the crash time" true (last.(1) < 200);
  check_int "one crash counted" 1 stats.Sim.crashed_procs;
  check_int "crash is not an abort" 0 stats.Sim.aborted_procs;
  (* Crash-stop, not exception: cleanup handlers must NOT run. *)
  check_bool "no unwinding on crash" false !cleanup_ran

(* A hotspot covering every location scales serialized memory latency
   by exactly its factor. *)
let test_hotspot_scales () =
  let writes = 10 in
  let body c _ = for _ = 1 to writes do E.set c 1 done in
  let base =
    let c = ref None in
    Sim.run ~config:uniform ~procs:1 (fun p ->
        let cell = E.cell 0 in
        c := Some cell;
        body cell p)
  in
  let plan =
    FP.hotspot ~num:1 ~den:1 ~from_:0 ~until_:1_000_000 ~factor:5 ()
  in
  let faulted =
    Faults.Inject.run ~config:uniform ~plan ~procs:1 (fun p ->
        body (E.cell 0) p)
  in
  check_int "faulted run is exactly factor x slower"
    (5 * base.Sim.end_clock) faulted.Sim.end_clock

(* Jitter lengthens delays deterministically: two runs agree, and both
   are no faster than the jitter-free run. *)
let test_jitter_deterministic () =
  let plan = FP.jitter ~from_:0 ~until_:10_000 ~amp:64 in
  let body _ = for _ = 1 to 50 do E.delay 10 done in
  let base = Sim.run ~procs:4 body in
  let a = Faults.Inject.run ~plan ~procs:4 body in
  let b = Faults.Inject.run ~plan ~procs:4 body in
  check_int "jittered runs identical" a.Sim.end_clock b.Sim.end_clock;
  check_bool "jitter never speeds things up" true
    (a.Sim.end_clock >= base.Sim.end_clock)

(* An empty plan is quiet from cycle 0: the run leaves its injector at
   the first event after it and is byte-for-byte the plain simulator. *)
let test_none_plan_neutral () =
  let body p = for _ = 1 to 20 do E.delay (10 + p) done in
  let a = Sim.run ~procs:8 body in
  let b = Faults.Inject.run ~plan:FP.none ~procs:8 body in
  check_bool "no-fault injection is the identity" true (a = b)

(* ------------------------------------------------------------------ *)
(* Fault-plan construction                                             *)
(* ------------------------------------------------------------------ *)

let test_plan_deterministic () =
  let mk () = FP.ladder ~seed:7 ~procs:64 ~horizon:50_000 ~level:3 in
  check_string "ladder plans replay" (FP.describe (mk ())) (FP.describe (mk ()));
  let other = FP.ladder ~seed:8 ~procs:64 ~horizon:50_000 ~level:3 in
  check_bool "different seed, different plan" true
    (FP.describe (mk ()) <> FP.describe other)

let test_crashes_clamped () =
  (* At least one processor always survives. *)
  let plan = FP.crashes ~seed:3 ~procs:4 ~horizon:1_000 ~count:100 in
  check_int "count clamped to procs - 1" 3 (FP.crash_count plan);
  let pids = FP.faulty_pids plan in
  check_bool "distinct pids in range" true
    (List.sort_uniq compare pids = pids
    && List.for_all (fun p -> p >= 0 && p < 4) pids)

let test_parse_pair () =
  check_bool "8x2000" true (FP.parse_pair "8x2000" = Ok (8, 2000));
  check_bool "rejects zero" true (Result.is_error (FP.parse_pair "0x5"));
  check_bool "rejects junk" true (Result.is_error (FP.parse_pair "8"));
  check_bool "rejects empty" true (Result.is_error (FP.parse_pair "x"))

(* ------------------------------------------------------------------ *)
(* When a plan goes quiet                                              *)
(* ------------------------------------------------------------------ *)

let quiet_from plan = (FP.injector plan).Sim.Scheduler.quiet_from

let test_quiet_from_values () =
  let plan events = { FP.seed = 3; events } in
  check_int "stalls: the last one's end" 320
    (quiet_from
       (plan
          [
            FP.Stall { pid = 0; at = 150; cycles = 100 };
            FP.Stall { pid = 1; at = 300; cycles = 20 };
            FP.Stall { pid = 0; at = 40; cycles = 5 };
          ]));
  check_int "crashes: the last one" 200
    (quiet_from
       (plan [ FP.Crash { pid = 1; at = 200 }; FP.Crash { pid = 2; at = 90 } ]));
  check_int "hot spot: its window's end" 750
    (quiet_from (FP.hotspot ~from_:250 ~until_:750 ~factor:8 ()));
  check_int "jitter: its window's end" 1_000
    (quiet_from (FP.jitter ~from_:10 ~until_:1_000 ~amp:64));
  check_int "jitter of amplitude 0: never a fault" 0
    (quiet_from (FP.jitter ~from_:10 ~until_:1_000 ~amp:0));
  check_int "none: from the start" 0 (quiet_from FP.none)

(* Random plans, ladders and unions of every class with random windows,
   probed for every pid at the boundaries of the plan's windows, one
   cycle either side, and a spread of later cycles.  At or after
   [quiet_from], [on_event] is its verdict at [quiet_from] and never
   defers, [mem_latency] is the base cost on every location, and
   [delay_jitter] is 0; before it, a deferral never ends after it. *)
let gen_quiet_plan =
  let open QCheck.Gen in
  let* seed = int_bound 10_000 in
  let* procs = int_range 1 16 in
  let* horizon = int_range 1 5_000 in
  let* kind = int_bound 4 in
  if kind < 4 then return (procs, FP.ladder ~seed ~procs ~horizon ~level:kind)
  else
    let window =
      map2 (fun a b -> (min a b, max a b)) (int_bound horizon) (int_bound horizon)
    in
    let* stalls = int_bound 3 in
    let* cycles = int_range 1 500 in
    let* crash = int_bound 3 in
    let* hot = opt window in
    let* jitter = opt (pair window (int_bound 3)) in
    let+ num = int_range 1 2 in
    let hot =
      Option.map
        (fun (from_, until_) ->
          FP.hotspot ~salt:seed ~num ~den:2 ~from_ ~until_ ~factor:4 ())
        hot
    and jitter =
      Option.map
        (fun ((from_, until_), amp) -> FP.jitter ~from_ ~until_ ~amp)
        jitter
    in
    ( procs,
      FP.union ~seed
        ([
           FP.stalls ~seed ~procs ~horizon ~count:stalls ~cycles;
           FP.crashes ~seed ~procs ~horizon ~count:crash;
         ]
        @ Option.to_list hot @ Option.to_list jitter) )

let quiet_contract_holds (procs, plan) =
  let inj = FP.injector plan in
  let q = inj.Sim.Scheduler.quiet_from in
  let locs = List.init 8 (fun _ -> (Sim.Memory.cell 0).Sim.Memory.loc) in
  let edges =
    List.concat_map
      (function
        | FP.Stall { at; cycles; _ } -> [ at; at + cycles ]
        | FP.Crash { at; _ } -> [ at ]
        | FP.Hotspot { from_; until_; _ } | FP.Jitter { from_; until_; _ } ->
            [ from_; until_ ])
      plan.FP.events
  in
  let times =
    List.concat_map (fun e -> [ e - 1; e; e + 1 ]) (q :: edges)
    @ List.map (fun d -> q + d) [ 2; 3; 7; 50; 999; 5_000; 1_000_000 ]
  in
  List.for_all
    (fun pid ->
      let at_quiet = inj.on_event ~pid ~time:q in
      List.for_all
        (fun time ->
          if time < q then
            match inj.on_event ~pid ~time with
            | Sim.Scheduler.Fault_defer until -> until <= q
            | Fault_proceed | Fault_drop -> true
          else
            let verdict = inj.on_event ~pid ~time in
            verdict = at_quiet
            && (match verdict with Fault_defer _ -> false | _ -> true)
            && List.for_all
                 (fun loc -> inj.mem_latency ~loc ~pid ~now:time ~base:7 = 7)
                 locs
            && inj.delay_jitter ~pid ~now:time ~base:3 = 0)
        times)
    (List.init (procs + 1) Fun.id)

let prop_quiet_contract =
  QCheck.Test.make ~name:"hooks are constant from quiet_from" ~count:500
    (QCheck.make
       ~print:(fun (procs, plan) ->
         Printf.sprintf "procs %d, quiet from %d, %s" procs (quiet_from plan)
           (FP.describe plan))
       gen_quiet_plan)
    quiet_contract_holds

(* ------------------------------------------------------------------ *)
(* Conservation audit and termination checker units                    *)
(* ------------------------------------------------------------------ *)

let test_conservation_exact () =
  let open Analysis.Conservation in
  let r =
    audit
      {
        enq_started = 10;
        enq_completed = 10;
        dequeued = 8;
        duplicates = 0;
        phantoms = 0;
        residue = Some 2;
        in_flight = 0;
      }
  in
  check_bool "balanced books pass" true r.ok;
  let r =
    audit
      {
        enq_started = 10;
        enq_completed = 10;
        dequeued = 8;
        duplicates = 0;
        phantoms = 0;
        residue = Some 1;
        in_flight = 0;
      }
  in
  check_bool "a lost element fails a fault-free audit" false r.ok;
  let r =
    audit
      {
        enq_started = 10;
        enq_completed = 9;
        dequeued = 8;
        duplicates = 0;
        phantoms = 0;
        residue = Some 0;
        in_flight = 1;
      }
  in
  check_bool "one crash excuses one stranded element" true r.ok;
  let r =
    audit
      {
        enq_started = 10;
        enq_completed = 10;
        dequeued = 10;
        duplicates = 1;
        phantoms = 0;
        residue = Some 0;
        in_flight = 5;
      }
  in
  check_bool "duplicates never pass" false r.ok

let test_check_values () =
  let dups, phantoms =
    Analysis.Conservation.check_values
      ~enq_started:(fun v -> v < 100)
      [ 1; 2; 3; 2; 666 ]
  in
  check_int "one duplicate" 1 dups;
  check_int "one phantom" 1 phantoms

let test_termination_bound () =
  let open Faults.Termination in
  let v = check ~levels:5 ~entries:40 ~started:10 ~stuck:0 () in
  check_bool "entries within started*depth" true v.ok;
  let v = check ~levels:5 ~entries:51 ~started:10 ~stuck:0 () in
  check_bool "excess entries fail" false v.ok;
  let v = check ~started:10 ~stuck:2 () in
  check_bool "stuck processors fail liveness" false v.ok;
  check_bool "no-tree verdict is liveness only" true v.visits_ok

(* ------------------------------------------------------------------ *)
(* Chaos workload: determinism regression                              *)
(* ------------------------------------------------------------------ *)

let chaos_line ~plan name =
  W.Chaos.format_point
    (W.Chaos.run ~seed:1 ~horizon:5_000 ~grace:2_000 ~plan ~procs:8
       (Option.get (W.Methods.pool_method name)))

(* Same (seed, scale, fault plan) => byte-identical report line, for a
   faulty and a fault-free configuration. *)
let test_chaos_deterministic () =
  let faulty = FP.ladder ~seed:7 ~procs:8 ~horizon:5_000 ~level:3 in
  List.iter
    (fun plan ->
      List.iter
        (fun name ->
          check_string
            (Printf.sprintf "%s under %S replays" name (FP.describe plan))
            (chaos_line ~plan name) (chaos_line ~plan name))
        [ "etree"; "mcs" ])
    [ FP.none; faulty ]

(* The full simulation under faults stays clean under the race
   detector. *)
let test_chaos_race_free () =
  let plan = FP.ladder ~seed:7 ~procs:8 ~horizon:4_000 ~level:2 in
  let p =
    W.Chaos.run ~seed:1 ~horizon:4_000 ~grace:2_000 ~races:true ~plan ~procs:8
      (Option.get (W.Methods.pool_method "etree"))
  in
  check_int "no races under faults" 0 (Option.get p.W.Chaos.races)

(* ------------------------------------------------------------------ *)
(* Registries (satellite: single source of method names)               *)
(* ------------------------------------------------------------------ *)

let test_registries () =
  List.iter
    (fun name ->
      check_bool (name ^ " resolves") true
        (W.Methods.pool_method name <> None))
    W.Chaos.default_methods;
  check_bool "etree listed" true (List.mem "etree" W.Methods.pool_method_names);
  check_bool "unknown pool rejected" true (W.Methods.pool_method "nope" = None);
  check_bool "faa counter resolves" true
    (W.Methods.counter_method "faa" <> None);
  check_bool "counter names non-empty" true
    (W.Methods.counter_method_names <> [])

(* ------------------------------------------------------------------ *)
(* Properties: conservation and the balancer-step bound under random   *)
(* fault plans                                                         *)
(* ------------------------------------------------------------------ *)

let plan_gen ~procs ~horizon =
  QCheck.Gen.(
    let* seed = int_bound 10_000 in
    let* stalls = int_bound 4 in
    let* crash = int_bound 2 in
    let* hot = int_bound 1 in
    let plans =
      [ FP.stalls ~seed ~procs ~horizon ~count:stalls ~cycles:(horizon / 10) ]
      @ (if crash > 0 then [ FP.crashes ~seed ~procs ~horizon ~count:crash ]
         else [])
      @
      if hot > 0 then
        [ FP.hotspot ~from_:(horizon / 4) ~until_:(horizon / 2) ~factor:6 () ]
      else []
    in
    return (FP.union ~seed plans))

let plan_arb ~procs ~horizon =
  QCheck.make ~print:FP.describe (plan_gen ~procs ~horizon)

let prop_conservation_and_bound ~procs ~count =
  let horizon = 3_000 in
  QCheck.Test.make
    ~name:
      (Printf.sprintf "conservation + termination bound, %d procs" procs)
    ~count
    (plan_arb ~procs ~horizon)
    (fun plan ->
      let p =
        W.Chaos.run ~seed:1 ~horizon ~grace:2_000 ~plan ~procs
          (Option.get (W.Methods.pool_method "etree"))
      in
      p.W.Chaos.conservation.Analysis.Conservation.ok
      && p.W.Chaos.termination.Faults.Termination.visits_ok)

let () =
  let qcheck = QCheck_alcotest.to_alcotest in
  Alcotest.run "faults"
    [
      ( "scheduler",
        [
          Alcotest.test_case "stall defers to window end" `Quick
            test_stall_defers;
          Alcotest.test_case "crash stops a processor for good" `Quick
            test_crash_stops;
          Alcotest.test_case "hotspot scales memory latency" `Quick
            test_hotspot_scales;
          Alcotest.test_case "jitter is deterministic" `Quick
            test_jitter_deterministic;
          Alcotest.test_case "none-plan is the identity" `Quick
            test_none_plan_neutral;
        ] );
      ( "plans",
        [
          Alcotest.test_case "seed-derived plans replay" `Quick
            test_plan_deterministic;
          Alcotest.test_case "crashes leave a survivor" `Quick
            test_crashes_clamped;
          Alcotest.test_case "parse_pair" `Quick test_parse_pair;
          Alcotest.test_case "quiet_from of each fault class" `Quick
            test_quiet_from_values;
          qcheck prop_quiet_contract;
        ] );
      ( "audits",
        [
          Alcotest.test_case "conservation accounting" `Quick
            test_conservation_exact;
          Alcotest.test_case "duplicate/phantom detection" `Quick
            test_check_values;
          Alcotest.test_case "termination bound" `Quick test_termination_bound;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "report is deterministic" `Quick
            test_chaos_deterministic;
          Alcotest.test_case "race-free under faults" `Quick
            test_chaos_race_free;
          Alcotest.test_case "method registries" `Quick test_registries;
          qcheck (prop_conservation_and_bound ~procs:8 ~count:12);
          qcheck (prop_conservation_and_bound ~procs:32 ~count:6);
        ] );
    ]

(* Layer unit costs, measured through each layer's public functions at
   the processor counts a workload runs at, and the per-layer metrics
   of a traced run built from them.

   A round trip is one simulated access (or delay) issued by a processor
   body and fired by [Sim.run], with every processor parked in the heap:
   it covers effect dispatch, the heap and, for writes and RMWs, the
   memory stamps.  A layer's self cost is its round trip minus the unit
   costs of the layers beneath it. *)

module E = Sim.Engine

(* Unit costs are the best of seven timings: the least a layer costs.
   Interference from the rest of the host then lands in the ledger's
   residual instead of inflating a layer's share. *)
let repeats = 7

let ns_per ~n f =
  let t0 = Span.now () in
  f ();
  Int64.to_float (Int64.sub (Span.now ()) t0) /. float_of_int n

let best_of g = List.fold_left Float.min infinity (List.init repeats (fun _ -> g ()))

(* The best of [repeats] rounds of every named timing, taken
   round-robin: all of them then pass through the same spells of host
   slowness, so the differences that make self costs stay meaningful.
   A calibration slice after each round gives the host's mean speed
   over them. *)
let interleaved_best timings =
  let best = Array.make (List.length timings) infinity and speed = ref 0.0 in
  for _ = 1 to repeats do
    List.iteri
      (fun i (name, timing) ->
        best.(i) <- Float.min best.(i) (Span.tally name timing))
      timings;
    speed := !speed +. Calib.ns_per_step_now ()
  done;
  (Array.to_list best, !speed /. float_of_int repeats)

(* One timing of push, [min_time], [pop_min] at [procs] live entries. *)
let heap_timing ~procs =
  let n = 200_000 in
  let h = Sim.Event_heap.create () in
  for i = 0 to procs - 1 do
    Sim.Event_heap.push h ~time:(i land 15) ~seq:i ()
  done;
  let seq = ref procs in
  fun () ->
    ns_per ~n (fun () ->
        for _ = 1 to n do
          let t = Sim.Event_heap.min_time h in
          Sim.Event_heap.pop_min h;
          Sim.Event_heap.push h ~time:(t + 1 + (!seq land 15)) ~seq:!seq ();
          incr seq
        done)

type access = Read | Write | Rmw | Delay

(* One timing of a [Sim.run] whose [procs] processors each issue a
   stream of one kind of access on a cell of their own. *)
let roundtrip_timing ~procs kind =
  let n = max 200 (100_000 / procs) in
  let cells = Array.init procs (fun _ -> Sim.Memory.cell 0) in
  let body p =
    let c = cells.(p) in
    match kind with
    | Read -> for _ = 1 to n do ignore (Sys.opaque_identity (E.get c)) done
    | Write -> for i = 1 to n do E.set c i done
    | Rmw -> for _ = 1 to n do ignore (E.fetch_and_add c 1) done
    | Delay -> for _ = 1 to n do E.delay 1 done
  in
  fun () -> ns_per ~n:(procs * n) (fun () -> ignore (Sim.run ~procs body))

let stamp_ns () =
  Span.with_span "layers.sim.memory.stamps" @@ fun () ->
  let n = 1_000_000 in
  let c = Sim.Memory.cell 0 in
  best_of (fun () ->
      ns_per ~n (fun () ->
          for i = 1 to n do
            Sim.Memory.issue_stamp c.Sim.Memory.loc ~pid:0 ~begins:i
              ~finish:(i + 8);
            ignore (Sys.opaque_identity (Sim.Memory.shadow_clean c));
            Sim.Memory.commit_stamp c ~pid:0 ~time:(i + 8) ~seq:i
          done))

let splitmix_ns () =
  Span.with_span "layers.engine.splitmix" @@ fun () ->
  let n = 2_000_000 in
  let rng = Engine.Splitmix.of_int 1 in
  best_of (fun () ->
      ns_per ~n (fun () ->
          for _ = 1 to n do
            ignore (Sys.opaque_identity (Engine.Splitmix.int rng 1000))
          done))

let guard_ns () =
  Span.with_span "layers.trace.etrace_guard" @@ fun () ->
  let n = 10_000_000 in
  best_of (fun () ->
      ns_per ~n (fun () ->
          for i = 1 to n do
            if Etrace.on Etrace.lv_events then
              Etrace.emit (Etrace.Event.Spin_begin { pid = i; time = i })
          done))

(* One timing of the level-3 plan's hooks, called directly: one
   [on_event] and one [mem_latency] per simulated event. *)
let injector_timing ~procs ~horizon =
  let n = 1_000_000 in
  let plan =
    Faults.Fault_plan.ladder ~seed:Workload.fault_seed ~procs ~horizon ~level:3
  in
  let inj = Faults.Fault_plan.injector plan in
  let loc = (Sim.Memory.cell 0).Sim.Memory.loc in
  fun () ->
    ns_per ~n (fun () ->
        for i = 0 to n - 1 do
          let pid = i mod procs and time = i mod horizon in
          ignore (Sys.opaque_identity (inj.Sim.Scheduler.on_event ~pid ~time));
          ignore
            (Sys.opaque_identity
               (inj.Sim.Scheduler.mem_latency ~loc ~pid ~now:time ~base:8))
        done)

(* A write-then-read run, bare or under [Race_detector.run]: the
   detector's cost per access is the difference. *)
let race_timing ~procs ~watched =
  let n = max 100 (100_000 / procs) in
  let cells = Array.init procs (fun _ -> Sim.Memory.cell 0) in
  let body p =
    let c = cells.(p) in
    for i = 1 to n do
      E.set c i;
      ignore (Sys.opaque_identity (E.get c))
    done
  in
  let run () = ignore (Sim.run ~procs body) in
  fun () ->
    ns_per ~n:(2 * n * procs) (fun () ->
        if watched then ignore (Analysis.Race_detector.run run) else run ())

(* Unit costs at heap occupancy [procs]; the injector and the race
   detector are timed only for the workload that installs them. *)
let costs ~size ~stamp ~procs w =
  Span.with_span (Printf.sprintf "layers.costs p%d" procs) @@ fun () ->
  let rt kind name = ("layers.sim.engine_impl." ^ name, roundtrip_timing ~procs kind) in
  let chaos =
    if w = Workload.Chaos_faults then
      [
        ( "layers.faults.injector",
          injector_timing ~procs ~horizon:(Workload.chaos_horizon size) );
        ("layers.analysis.race_detector.bare", race_timing ~procs ~watched:false);
        ("layers.analysis.race_detector.watched", race_timing ~procs ~watched:true);
      ]
    else []
  in
  match
    interleaved_best
      (("layers.sim.event_heap", heap_timing ~procs)
      :: rt Read "read" :: rt Write "write" :: rt Rmw "rmw" :: rt Delay "delay"
      :: chaos)
  with
  | heap :: read :: write :: rmw :: delay :: extra, speed ->
      let injector, race =
        match extra with
        | [ inj; bare; watched ] -> (inj, watched -. bare)
        | _ -> (0.0, 0.0)
      in
      {
        Ledger.heap_ns = heap;
        read_ns = read -. heap;
        write_ns = write -. heap -. stamp;
        rmw_ns = rmw -. heap -. stamp;
        delay_ns = delay -. heap;
        stamp_ns = stamp;
        injector_ns = injector;
        race_ns = race;
        calib_ns_per_step = speed;
      }
  | _ -> assert false

(* Memoised per heap occupancy, so points that share one measure once;
   the stamps do not depend on it. *)
let costs_table ~size w =
  let tbl = Hashtbl.create 4 and stamp = lazy (stamp_ns ()) in
  fun procs ->
    match Hashtbl.find_opt tbl procs with
    | Some c -> c
    | None ->
        let c = costs ~size ~stamp:(Lazy.force stamp) ~procs w in
        Hashtbl.add tbl procs c;
        c

(* Shares of the model checker's time, from the traced repetition's
   spans: the [prepare] and [at_quiescence] tallies under each
   scenario's [check.explore] span. *)
let check_shares spans =
  List.concat_map
    (fun sname ->
      let key m = Printf.sprintf "check.%s.%s" sname m in
      let point =
        List.find_opt (fun s -> s.Span.name = "point " ^ sname) spans
      in
      match
        Option.bind point (fun p ->
            Span.find spans ~parent:p.Span.id "check.explore")
      with
      | None -> []
      | Some ex ->
          let dur = Int64.to_float ex.Span.dur_ns in
          let part name =
            match Span.find spans ~parent:ex.Span.id name with
            | Some t -> Int64.to_float t.Span.dur_ns /. dur
            | None -> 0.0
          in
          [
            (key "prepare_share", part "check.scenario.prepare");
            (key "monitor_share", part "check.monitor");
            ( key "explore_self_share",
              Int64.to_float (Span.self_ns spans ex) /. dur );
          ])
    Metrics.check_scenarios

(* Every per-layer metric of [Metrics.per_layer], in its order, for one
   workload: [reps] are the untraced repetitions, [traced] the traced
   one.  A metric of a layer the workload does not exercise reads 0.
   Unit costs are reported at the repetitions' host speed, the speed
   their wall time was measured at. *)
let per_layer ~size ~costs_at ~splitmix ~guard ~reps ~(traced : Workload.rep) w =
  let r = List.hd reps in
  let f = float_of_int in
  let wall = Stats.median (List.map (fun (r : Workload.rep) -> r.wall_s) reps) in
  let speed =
    Stats.median (List.map (fun (r : Workload.rep) -> r.calib_ns_per_step) reps)
  in
  let costs_at occupancy = Ledger.at_speed ~ns_per_step:speed (costs_at occupancy) in
  let shares = Ledger.estimate ~costs_at ~wall_s:wall traced.points in
  let k = costs_at (Workload.headline_procs size w) in
  let measured =
    r.exact @ r.counters
    @ List.filter (fun (n, _) -> String.starts_with ~prefix:"core.attr." n)
        traced.counters
    @ check_shares traced.spans
    @ [
        ("sim.event_heap.ns_per_event", k.heap_ns);
        ("sim.event_heap.est_share", shares.event_heap);
        ("sim.engine_impl.reads", f r.reads);
        ("sim.engine_impl.writes", f r.writes);
        ("sim.engine_impl.rmws", f r.rmws);
        ("sim.engine_impl.other_events", f (r.events - r.reads - r.writes - r.rmws));
        ("sim.engine_impl.read_ns", k.read_ns);
        ("sim.engine_impl.write_ns", k.write_ns);
        ("sim.engine_impl.rmw_ns", k.rmw_ns);
        ("sim.engine_impl.delay_ns", k.delay_ns);
        ("sim.engine_impl.est_share", shares.engine_impl);
        ("sim.memory.stamp_ns", k.stamp_ns);
        ("sim.memory.est_share", shares.memory);
        ("sim.scheduler.events", f r.events);
        ("engine.splitmix.int_ns", splitmix);
        ("trace.etrace.guard_ns", guard);
        ( "trace.overhead_share",
          (* Both sides at reference speed: the traced repetition runs
             after the others, possibly in another phase of the host. *)
          let ref_wall (r : Workload.rep) =
            Calib.to_ref ~ns_per_step:r.calib_ns_per_step r.wall_s
          in
          let untraced = Stats.median (List.map ref_wall reps) in
          (ref_wall traced -. untraced) /. untraced );
        ("faults.injector_ns_per_event", k.injector_ns);
        ("faults.est_share", shares.faults);
        ("analysis.race_detector.ns_per_op", k.race_ns);
        ("analysis.race_detector.est_share", shares.race_detector);
        ("ledger.residual_share", shares.residual);
        ( "runtime.gc.major_collections",
          Stats.median
            (List.map (fun (r : Workload.rep) -> f r.major_collections) reps) );
        ("host.raw_wall_s", wall);
        ("host.calib_ns_per_step", speed);
      ]
  in
  List.map
    (fun (name, _) ->
      (name, Option.value ~default:0.0 (List.assoc_opt name measured)))
    Metrics.per_layer

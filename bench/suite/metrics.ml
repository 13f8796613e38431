(* The metric vocabulary: names and units of everything the suite
   prints.  BENCHMARK.json at the repository root must list the same
   end-to-end and per-layer names with the same units (the suite's tests
   hold the two together); the regression bounds and directions live
   only there. *)

(* Host-side, user-visible, measured with tracing off.  Every workload
   reports every one of them, and none can read 0 on a completed run.
   Their seconds are reference seconds: host time scaled to the
   reference host speed ({!Calib}). *)
let end_to_end =
  [
    ("wall_s", "s");
    ("events_per_s", "events/s");
    ("ops_per_s", "ops/s");
    ("setup_s", "s");
    ("peak_heap_mb", "MB");
    ("minor_words_per_event", "words/event");
  ]

(* Simulated results at each workload's headline point.  They repeat
   exactly for a seed, so [compare] demands equality instead of a
   bound; the traced run also reports them per layer. *)
let exact =
  [
    ("sim.throughput_per_mcycle", "ops/Mcycle");
    ("sim.latency_p50_cycles", "cycles");
    ("sim.latency_p99_cycles", "cycles");
  ]

let attr_contexts = [ "outside"; "level0"; "level1"; "level2"; "level3"; "level4" ]
let attr_categories = [ "spin"; "queue"; "service"; "work" ]
let check_scenarios = [ "elim_pool"; "counter_mixed" ]

(* From the traced run.  A layer a workload does not exercise reads 0
   there (the injector on pc_saturated, shard stealing on
   chaos_faults, ...). *)
let per_layer =
  exact
  @ [
      ("sim.event_heap.ns_per_event", "ns");
      ("sim.event_heap.est_share", "fraction");
      ("sim.engine_impl.reads", "count");
      ("sim.engine_impl.writes", "count");
      ("sim.engine_impl.rmws", "count");
      ("sim.engine_impl.other_events", "count");
      ("sim.engine_impl.read_ns", "ns");
      ("sim.engine_impl.write_ns", "ns");
      ("sim.engine_impl.rmw_ns", "ns");
      ("sim.engine_impl.delay_ns", "ns");
      ("sim.engine_impl.est_share", "fraction");
      ("sim.memory.stamp_ns", "ns");
      ("sim.memory.est_share", "fraction");
      ("sim.memory.queue_wait_cycles_per_op", "cycles");
      ("sim.scheduler.events", "count");
      ("engine.splitmix.int_ns", "ns");
      ("trace.etrace.guard_ns", "ns");
      ("trace.overhead_share", "fraction");
      ("faults.injector_ns_per_event", "ns");
      ("faults.est_share", "fraction");
      ("faults.fault_defers", "count");
      ("faults.crashed_procs", "count");
      ("faults.stuck_procs", "count");
      ("analysis.race_detector.ns_per_op", "ns");
      ("analysis.race_detector.est_share", "fraction");
      ("analysis.race_detector.races", "count");
      ("analysis.conservation.fail_points", "count");
      ("core.elim_rate", "fraction");
    ]
  @ List.init 5 (fun i -> (Printf.sprintf "core.level%d.elim_fraction" i, "fraction"))
  @ List.concat_map
      (fun ctx ->
        List.map
          (fun cat -> (Printf.sprintf "core.attr.%s.%s_share" ctx cat, "fraction"))
          attr_categories)
      attr_contexts
  @ [
      ("shard.steal_hit_ratio", "fraction");
      ("shard.steal_probed", "count");
      ("shard.starved", "count");
    ]
  @ List.concat_map
      (fun s ->
        List.map
          (fun (m, u) -> (Printf.sprintf "check.%s.%s" s m, u))
          [
            ("executions", "count");
            ("sleep_blocked_share", "fraction");
            ("max_depth", "count");
            ("prepare_share", "fraction");
            ("monitor_share", "fraction");
            ("explore_self_share", "fraction");
          ])
      check_scenarios
  @ [
      ("ledger.residual_share", "fraction");
      ("runtime.gc.major_collections", "count");
      ("host.raw_wall_s", "s");
      ("host.calib_ns_per_step", "ns");
    ]

let unit_of name =
  match List.assoc_opt name end_to_end with
  | Some u -> u
  | None -> List.assoc name per_layer

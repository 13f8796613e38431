(* The four workloads, and one repetition of each.

   Every workload goes through lib/'s public entry points only.  The
   benchmark wraps the closures it hands in — the pool constructor
   [make], the chaos pools' operations, the model checker's [prepare]
   and [at_quiescence] — and brackets each call into a library with a
   span (see {!Span}); it never reaches inside. *)

module W = Workloads
module E = Sim.Engine

type t = Pc_saturated | Service_bursty | Chaos_faults | Check_dpor

let all = [ Pc_saturated; Service_bursty; Chaos_faults; Check_dpor ]

let name = function
  | Pc_saturated -> "pc_saturated"
  | Service_bursty -> "service_bursty"
  | Chaos_faults -> "chaos_faults"
  | Check_dpor -> "check_dpor"

let of_name s = List.find_opt (fun w -> name w = s) all

(* [Full] is the benchmark.  [Tiny] takes every code path at sizes the
   test suite can afford. *)
type size = Full | Tiny

(* Repetitions per run, each in a fresh process; host metrics are their
   median.  With the host-speed calibration every workload's
   events_per_s repeats within 10% between runs at three, so none needs
   five (bench/suite/README.md, "Repetitions"). *)
let repetitions = 3

(* Set-up-only runs before each repetition: processes that exit at
   their first simulated event.  Set-up takes 6–70 ms and a single
   reading of it is noisy, so setup_s is the median over these and the
   repetitions' own readings. *)
let setup_runs = 4

(* The fault plans' seed stays fixed while the workload seed varies, so
   a seed changes the inputs, not the adversary. *)
let fault_seed = 7

(* The processor count of the point each workload's headline figures
   are read at; layer unit costs are reported at it too. *)
let headline_procs size w =
  match (w, size) with
  | Pc_saturated, Full -> 256
  | Pc_saturated, Tiny -> 16
  | Service_bursty, Full -> 256
  | Service_bursty, Tiny -> 32
  | Chaos_faults, Full -> 64
  | Chaos_faults, Tiny -> 16
  | Check_dpor, Full -> 3
  | Check_dpor, Tiny -> 2

type unit_result = {
  label : string;
  line : string;  (** deterministic rendering: the unit's digest input *)
  ok : bool;
}

(* Host times here are as measured; {!Results} scales them to the
   reference host speed. *)
type rep = {
  setup_s : float;  (** process start to the first simulated event *)
  wall_s : float;
      (** first simulated event to the last result, less the time the
          calibration slices took *)
  calib_ns_per_step : float;  (** the host's speed over the timed phase ({!Calib}) *)
  calib_samples : int;
  events : int;
  reads : int;
  writes : int;
  rmws : int;
  ops : int;  (** pool/service operations, or DPOR executions *)
  minor_words : float;  (** allocated during the timed phase *)
  top_heap_words : int;
  major_collections : int;
  units : unit_result list;
  points : Ledger.counts list;
  exact : (string * float) list;  (** simulated headline results *)
  counters : (string * float) list;  (** deterministic layer counters *)
  spans : Span.t list;  (** traced repetitions only *)
}

(* What one unit (a simulated point, or a model-checked scenario)
   contributes to its repetition. *)
type unit_out = {
  result : unit_result;
  counts : Ledger.counts option;
  unit_ops : int;
  unit_exact : (string * float) list;
  unit_counters : (string * float) list;
}

let guard label f =
  try f ()
  with e ->
    {
      result =
        { label; line = label ^ ": raised " ^ Printexc.to_string e; ok = false };
      counts = None;
      unit_ops = 0;
      unit_exact = [];
      unit_counters = [];
    }

(* Engine odometer deltas over [f]. *)
let counted ~procs ~heap f =
  let t0 = Sim.totals () in
  let v = f () in
  let t1 = Sim.totals () in
  ( v,
    {
      Ledger.occupancy = procs;
      heap;
      events = t1.Sim.t_events - t0.Sim.t_events;
      reads = t1.Sim.t_reads - t0.Sim.t_reads;
      writes = t1.Sim.t_writes - t0.Sim.t_writes;
      rmws = t1.Sim.t_rmws - t0.Sim.t_rmws;
    } )

let f = float_of_int
let share num den = if den = 0 then 0.0 else f num /. f den
let secs a b = Int64.to_float (Int64.sub b a) /. 1e9

(* The first [Proc_start] of a repetition ends its set-up: the host
   time and allocation counter at that moment.  [at_first_event] runs
   once, right then, whichever sink sees the event. *)
let first_event : (int64 * float) option ref = ref None
let at_first_event = ref ignore

let note_first_event = function
  | Etrace.Event.Proc_start _ when Option.is_none !first_event ->
      first_event := Some (Span.now (), Gc.minor_words ());
      !at_first_event ()
  | _ -> ()

(* A sink that uninstalls itself once it has seen the first event
   watches for it, so the rest of an untraced run is untraced (a traced
   point installs its own sinks over it).  The first event hands the
   set-up time to [at_setup] and starts the host-speed calibration for
   the timed phase. *)
let arm_first_event ~t0 ~at_setup =
  first_event := None;
  at_first_event :=
    (fun () ->
      Option.iter (fun (t, _) -> at_setup (secs t0 t)) !first_event;
      Calib.start ());
  Etrace.install (fun e ->
      note_first_event e;
      if Option.is_some !first_event then Etrace.uninstall ())

(* One simulated point.  A traced repetition runs it under the cycle
   attribution sink (and the first-event watch), and the summed
   processor lifetimes over the run's length give the point's mean heap
   occupancy. *)
let sim_point ~traced ~procs ~(mem : 'a -> Sim.stats) (run : unit -> 'a) =
  let (v, attribution), counts =
    counted ~procs ~heap:true (fun () ->
        if traced then begin
          let attr = Etrace.Attribution.create ~procs in
          let v =
            Etrace.with_tracing
              (Etrace.tee [ Etrace.Attribution.sink attr; note_first_event ])
              run
          in
          (v, Some (Etrace.Attribution.summarize attr))
        end
        else (run (), None))
  in
  match attribution with
  | None -> (v, None, counts)
  | Some s ->
      let lifetimes = s.Etrace.Attribution.total_cycles in
      let occupancy = Float.round (share lifetimes (mem v).Sim.end_clock) in
      (v, attribution, { counts with occupancy = max 1 (Float.to_int occupancy) })

let mem_line (m : Sim.stats) =
  Printf.sprintf "events %d reads %d writes %d rmws %d qwait %d end %d"
    m.Sim.events_fired m.Sim.reads m.Sim.writes m.Sim.rmws
    m.Sim.queue_wait_cycles m.Sim.end_clock

(* ---------------------------------------------------------------- *)
(* Wrapped pool constructors.                                         *)

(* [make] under a span, keeping the pool it builds so that its residue
   and level stats can be read after the run.  The pool's operations
   are left alone. *)
let captured (make : procs:int -> int W.Pool_obj.pool) =
  let built = ref None in
  let make ~procs =
    let pool = Span.with_span "workloads.make" (fun () -> make ~procs) in
    built := Some pool;
    pool
  in
  (make, fun () -> Option.get !built)

(* A chaos point reports no latency distribution, so its pool's
   operations record their simulated latency into [lat] (reading the
   simulated clock costs no simulated cycles). *)
let timed_ops ~horizon lat (make : procs:int -> int W.Pool_obj.pool) ~procs =
  let pool = make ~procs in
  let note t0 =
    let t1 = E.now () in
    if t1 <= horizon then Etrace.Histogram.add lat (t1 - t0)
  in
  {
    pool with
    W.Pool_obj.enqueue =
      (fun v ->
        let t0 = E.now () in
        pool.W.Pool_obj.enqueue v;
        note t0);
    dequeue =
      (fun ~stop ->
        let t0 = E.now () in
        let r = pool.W.Pool_obj.dequeue ~stop in
        note t0;
        r);
  }

let elim_counters (pool : int W.Pool_obj.pool) =
  match pool.W.Pool_obj.stats_by_level with
  | None -> []
  | Some stats ->
      let levels = stats () in
      ( "core.elim_rate",
        Core.Elim_stats.elimination_fraction (Core.Elim_stats.merge levels) )
      :: List.mapi
           (fun i s ->
             ( Printf.sprintf "core.level%d.elim_fraction" i,
               Core.Elim_stats.elimination_fraction s ))
           levels

let attr_counters (s : Etrace.Attribution.summary) =
  let module A = Etrace.Attribution in
  List.concat_map
    (fun (row : A.row) ->
      let ctx =
        if row.A.depth < 0 then "outside" else Printf.sprintf "level%d" row.A.depth
      in
      List.map
        (fun cat ->
          ( Printf.sprintf "core.attr.%s.%s_share" ctx (A.category_name cat),
            share row.A.cycles.(A.cat_index cat) s.A.total_cycles ))
        [ A.Spin; A.Queue; A.Service; A.Work ])
    s.A.by_layer

let residue_of (pool : int W.Pool_obj.pool) =
  Option.map
    (fun probe ->
      let r = ref 0 in
      ignore (Sim.run ~procs:1 (fun _ -> r := probe ()));
      !r)
    pool.W.Pool_obj.residue

let headline_exact ~thr (lat : Etrace.Histogram.summary) =
  [
    ("sim.throughput_per_mcycle", f thr);
    ("sim.latency_p50_cycles", f lat.Etrace.Histogram.p50);
    ("sim.latency_p99_cycles", f lat.Etrace.Histogram.p99);
  ]

(* ---------------------------------------------------------------- *)
(* pc_saturated: Figure 7's zero-think-time regime on Etree-32.       *)

let pc_units ~size ~seed ~traced =
  let procs_list, horizon =
    match size with Full -> ([ 64; 256 ], 500_000) | Tiny -> ([ 4; 16 ], 20_000)
  in
  let headline = headline_procs size Pc_saturated in
  List.map
    (fun procs ->
      let label = Printf.sprintf "p%d" procs in
      guard label @@ fun () ->
      Span.with_span ("point " ^ label) @@ fun () ->
      let make, built = captured (fun ~procs -> W.Methods.etree_pool ~procs ()) in
      let point, attribution, counts =
        sim_point ~traced ~procs ~mem:(fun p -> p.W.Produce_consume.mem)
          (fun () ->
            Span.with_span "workloads.produce_consume.run" (fun () ->
                W.Produce_consume.run ~seed ~horizon ~workload:0 ~procs make))
      in
      let pool = built () in
      (* Every processor's loop ends with a dequeue that returned an
         element (Produce_consume asserts it; a lost element leaves a
         processor spinning until the run aborts, which raises), so
         completed enqueues equal dequeues and conservation comes down
         to an empty pool after the run. *)
      let residue = Span.with_span "workloads.residue" (fun () -> residue_of pool) in
      let conserved = residue = Some 0 in
      let p = point.W.Produce_consume.lat in
      let m = point.W.Produce_consume.mem in
      let line =
        Printf.sprintf "pc %s: thr %d lat %.17g p50 %d p99 %d ops %d elim %s %s; residue %s"
          label point.W.Produce_consume.throughput_per_m
          point.W.Produce_consume.latency p.Etrace.Histogram.p50
          p.Etrace.Histogram.p99 point.W.Produce_consume.ops
          (match point.W.Produce_consume.elim_rate with
          | None -> "-"
          | Some r -> Printf.sprintf "%.17g" r)
          (mem_line m)
          (match residue with None -> "-" | Some r -> string_of_int r)
      in
      let headline_only xs = if procs = headline then xs else [] in
      {
        result = { label; line; ok = conserved };
        counts = Some counts;
        unit_ops = point.W.Produce_consume.ops;
        unit_exact =
          headline_only
            (headline_exact ~thr:point.W.Produce_consume.throughput_per_m p);
        unit_counters =
          ("analysis.conservation.fail_points", if conserved then 0.0 else 1.0)
          :: headline_only
               ((( "sim.memory.queue_wait_cycles_per_op",
                   share m.Sim.queue_wait_cycles (m.Sim.writes + m.Sim.rmws) )
                :: elim_counters pool)
               @ match attribution with
                 | Some s -> attr_counters s
                 | None -> []);
      })
    procs_list

(* ---------------------------------------------------------------- *)
(* service_bursty: the open-loop service frontend, 1 and 8 shards.    *)

let service_units ~size ~seed ~traced =
  let procs = headline_procs size Service_bursty in
  let sessions = match size with Full -> 20_000 | Tiny -> 640 in
  let regime =
    W.Arrivals.Bursty { mean_gap = 800; burst = 32; hot_factor = 8 }
  in
  List.map
    (fun shards ->
      let label = Printf.sprintf "shards%d" shards in
      guard label @@ fun () ->
      Span.with_span ("point " ^ label) @@ fun () ->
      let point, _, counts =
        sim_point ~traced ~procs ~mem:(fun p -> p.W.Service.mem) (fun () ->
            Span.with_span "workloads.service.run" (fun () ->
                W.Service.run ~seed ~procs ~width:4 ~shards ~sessions ~regime ()))
      in
      let ok = point.W.Service.conservation.Analysis.Conservation.ok in
      let headline_only xs = if shards = 8 then xs else [] in
      {
        result =
          {
            label;
            line =
              Printf.sprintf "service %s: %s; %s" label
                (W.Service.format_point point)
                (mem_line point.W.Service.mem);
            ok;
          };
        counts = Some counts;
        unit_ops = point.W.Service.completed;
        unit_exact =
          headline_only
            (headline_exact ~thr:point.W.Service.throughput_per_m
               point.W.Service.sojourn);
        unit_counters =
          ("analysis.conservation.fail_points", if ok then 0.0 else 1.0)
          :: headline_only
               [
                 ( "shard.steal_hit_ratio",
                   share point.W.Service.steal_hits point.W.Service.steal_probed );
                 ("shard.steal_probed", f point.W.Service.steal_probed);
                 ("shard.starved", f point.W.Service.starved);
               ];
      })
    [ 1; 8 ]

(* ---------------------------------------------------------------- *)
(* chaos_faults: fault-ladder level 2 (stalls, a hot spot, jitter)    *)
(* for three methods, and level 3 (crashes too) for the MCS pool, all *)
(* under the race detector.                                           *)

(* Whether a crash strands a lock's waiters depends on where it lands,
   so at level 3 the tree methods' work swings a hundredfold from seed
   to seed.  The MCS pool strands every waiter behind a crashed holder
   on every seed: its stuck processors spin on reads until the abort
   horizon, the same amount of work each time, with every fault and
   race-detector hook in the loop. *)
let chaos_points = function
  | Full -> [ (2, 64, [ "etree"; "shard4"; "ctree" ]); (3, 32, [ "mcs" ]) ]
  | Tiny -> [ (2, 16, [ "etree"; "shard4"; "ctree" ]); (3, 8, [ "mcs" ]) ]

let chaos_horizon = function Full -> 50_000 | Tiny -> 5_000

let chaos_units ~size ~seed ~traced =
  let horizon = chaos_horizon size in
  List.concat_map
    (fun (level, procs, methods) ->
      let plan =
        Span.with_span "faults.fault_plan.ladder" (fun () ->
            Faults.Fault_plan.ladder ~seed:fault_seed ~procs ~horizon ~level)
      in
      List.map
        (fun meth ->
          let label = Printf.sprintf "%s/L%d" meth level in
          guard label @@ fun () ->
          Span.with_span ("point " ^ label) @@ fun () ->
          let make, built = captured (Option.get (W.Methods.pool_method meth)) in
          let lat = Etrace.Histogram.create () in
          let point, _, counts =
            sim_point ~traced ~procs ~mem:(fun p -> p.W.Chaos.mem) (fun () ->
                Span.with_span "workloads.chaos.run" (fun () ->
                    W.Chaos.run ~seed ~horizon ~races:true ~plan ~procs
                      (timed_ops ~horizon lat make)))
          in
          let lat = Etrace.Histogram.summary lat in
          let audit_ok = point.W.Chaos.conservation.Analysis.Conservation.ok in
          let races = Option.value ~default:(-1) point.W.Chaos.races in
          let m = point.W.Chaos.mem in
          let headline_only xs =
            if meth = "etree" && level = 2 then xs else []
          in
          {
            result =
              {
                label;
                line =
                  Printf.sprintf "chaos %s: %s; %s; lat %s" label
                    (W.Chaos.format_point point) (mem_line m)
                    (Etrace.Histogram.format_summary lat);
                ok = audit_ok && races = 0;
              };
            counts = Some counts;
            unit_ops = point.W.Chaos.ops;
            unit_exact =
              headline_only (headline_exact ~thr:point.W.Chaos.throughput_per_m lat);
            unit_counters =
              [
                ("analysis.conservation.fail_points", if audit_ok then 0.0 else 1.0);
                ("analysis.race_detector.races", f (max races 0));
                ("faults.fault_defers", f m.Sim.fault_defers);
                ("faults.crashed_procs", f m.Sim.crashed_procs);
                ("faults.stuck_procs", f m.Sim.aborted_procs);
              ]
              @ headline_only (elim_counters (built ()));
          })
        methods)
    (chaos_points size)

(* ---------------------------------------------------------------- *)
(* check_dpor: exhaustive DPOR over two scenarios.  elim_pool is      *)
(* dominated by building the structure in [prepare], counter_mixed by *)
(* the exploration itself.  The model checker seldom reaches a point  *)
(* where a signal handler runs, so the wrapped [prepare], called once *)
(* per execution, also starts the host-speed calibration's slices.    *)

(* The explorer's seed feeds the balancers' random prism choices, so it
   changes the program being checked (at seed 2, counter_mixed outgrows
   the execution budget).  It stays fixed: the checker's input is the
   scenario, and it has no workload seed. *)
let check_seed = 1

let check_units ~size =
  let scenarios =
    match size with
    | Full -> [ ("elim_pool", 2, 4, 1); ("counter_mixed", 3, 2, 1) ]
    | Tiny -> [ ("elim_pool", 2, 2, 1); ("counter_mixed", 2, 2, 1) ]
  in
  List.map
    (fun (sname, procs, width, ops) ->
      guard sname @@ fun () ->
      Span.with_span ("point " ^ sname) @@ fun () ->
      let sc = Option.get (Check.Scenario.find sname) in
      let program = sc.Check.Scenario.make ~procs ~width ~ops in
      let prepare () =
        Calib.poll ();
        Span.tally "check.scenario.prepare" (fun () ->
            let inst = program.Check.Explore.prepare () in
            {
              inst with
              Check.Explore.at_quiescence =
                (fun () ->
                  Span.tally "check.monitor" inst.Check.Explore.at_quiescence);
            })
      in
      let o, counts =
        counted ~procs ~heap:false (fun () ->
            Span.with_span "check.explore" (fun () ->
                Check.Explore.explore ~dpor:true ~seed:check_seed
                  { program with Check.Explore.prepare }))
      in
      let verified =
        Option.is_none o.Check.Explore.counterexample && not o.Check.Explore.capped
      in
      let key m = Printf.sprintf "check.%s.%s" sname m in
      {
        result =
          {
            label = sname;
            line =
              Printf.sprintf
                "check %s p%d w%d o%d: %s runs %d complete %d deadlocks %d \
                 sleep %d budget %d depth %d events %d"
                sname procs width ops
                (if verified then "verified" else "NOT verified")
                o.Check.Explore.runs o.Check.Explore.complete
                o.Check.Explore.deadlocks o.Check.Explore.sleep_blocked
                o.Check.Explore.budget_hits o.Check.Explore.max_depth
                counts.Ledger.events;
            ok = verified;
          };
        counts = Some counts;
        unit_ops = o.Check.Explore.runs;
        unit_exact = [];
        unit_counters =
          [
            (key "executions", f o.Check.Explore.runs);
            ( key "sleep_blocked_share",
              share o.Check.Explore.sleep_blocked o.Check.Explore.runs );
            (key "max_depth", f o.Check.Explore.max_depth);
          ];
      })
    scenarios

(* ---------------------------------------------------------------- *)

(* Sum values that several units report under one name. *)
let sum_by_name kvs =
  List.fold_left
    (fun acc (k, v) ->
      match List.assoc_opt k acc with
      | Some v0 -> (k, v0 +. v) :: List.remove_assoc k acc
      | None -> (k, v) :: acc)
    [] kvs
  |> List.rev

(* One repetition, in this process.  [t0] is when the process that runs
   it was started (by default: now).  An untraced repetition calls
   [at_setup] with its set-up time when its first event fires; a
   process that measures set-up alone exits there. *)
let run_rep ?t0 ?(at_setup = ignore) ~size ~seed ~traced w =
  let t0 = match t0 with Some t -> t | None -> Span.now () in
  Span.enabled := traced;
  arm_first_event ~t0 ~at_setup;
  let tot0 = Sim.totals () in
  let outs =
    match w with
    | Pc_saturated -> pc_units ~size ~seed ~traced
    | Service_bursty -> service_units ~size ~seed ~traced
    | Chaos_faults -> chaos_units ~size ~seed ~traced
    | Check_dpor -> check_units ~size
  in
  (* Calibration stops first, so every slice it ran lies inside the
     timed phase and comes off it. *)
  let calib = Calib.stop () in
  let t_end = Span.now () and words_end = Gc.minor_words () in
  Etrace.uninstall ();
  Span.enabled := false;
  let tot1 = Sim.totals () in
  let gc = Gc.quick_stat () in
  let t_first, words_first =
    match !first_event with Some m -> m | None -> (t_end, words_end)
  in
  {
    setup_s = secs t0 t_first;
    wall_s = secs t_first t_end -. calib.Calib.loop_s;
    calib_ns_per_step = calib.Calib.ns_per_step;
    calib_samples = calib.Calib.samples;
    events = tot1.Sim.t_events - tot0.Sim.t_events;
    reads = tot1.Sim.t_reads - tot0.Sim.t_reads;
    writes = tot1.Sim.t_writes - tot0.Sim.t_writes;
    rmws = tot1.Sim.t_rmws - tot0.Sim.t_rmws;
    ops = List.fold_left (fun a o -> a + o.unit_ops) 0 outs;
    minor_words = words_end -. words_first;
    top_heap_words = gc.Gc.top_heap_words;
    major_collections = gc.Gc.major_collections;
    units = List.map (fun o -> o.result) outs;
    points = List.filter_map (fun o -> o.counts) outs;
    exact = List.concat_map (fun o -> o.unit_exact) outs;
    counters = sum_by_name (List.concat_map (fun o -> o.unit_counters) outs);
    spans = Span.take ();
  }

(* The repetition's deterministic outputs, as one hex digest. *)
let digest rep =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (Printf.sprintf "events %d reads %d writes %d rmws %d ops %d"
             rep.events rep.reads rep.writes rep.rmws rep.ops
          :: List.map (fun u -> u.line) rep.units)))

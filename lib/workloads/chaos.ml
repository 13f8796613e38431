(* The robustness sweep (etrees.faults): the produce-consume workload
   of §2.5.1 run under a deterministic fault plan, with a full ledger of
   values so the run can be audited afterwards.

   Unlike {!Produce_consume}, an aborted processor is data here, not a
   bug: crashes strand elements and stalls starve dequeuers, and the
   point of the experiment is to quantify how gracefully each method
   degrades.  Every point carries a conservation audit (no element lost
   or duplicated) and a termination-bound verdict (the paper's O(log w)
   balancer-step claim, checked in aggregate). *)

module E = Sim.Engine

type point = {
  method_name : string;
  procs : int;
  plan : string;            (* Fault_plan.describe, stable *)
  ops : int;                (* ops completed inside the window *)
  started : int;            (* pool ops issued, completed or not *)
  throughput_per_m : int;
  latency : float;
  elim_rate : float option;
  starved : int;            (* dequeues that gave up empty-handed *)
  crashed : int;
  stuck : int;              (* aborted (non-crashed) processors *)
  end_clock : int;
  races : int option;       (* Some n when run under the race detector *)
  mem : Sim.stats;
  conservation : Analysis.Conservation.report;
  termination : Faults.Termination.verdict;
}

let default_methods =
  [ "etree"; "estack"; "mcs"; "ctree"; "dtree32"; "shard4" ]

let run_plain ?(seed = 1) ?(horizon = 50_000) ?config ?(grace = 25_000)
    ?(workload = 50) ~plan ~procs (make : procs:int -> int Pool_obj.pool) =
  let pool = make ~procs in
  (* The workload's own ledger: which values were handed to enqueue,
     which enqueues returned, which values dequeues produced. *)
  let enq_started = ref 0 in
  let enq_completed = ref 0 in
  let handed = Hashtbl.create 1024 in
  let deq_started = ref 0 in
  let dequeued = ref [] in
  let starved = ref 0 in
  let ops = ref 0 in
  let latency_total = ref 0 in
  let record t0 =
    let t1 = E.now () in
    if t1 <= horizon then begin
      incr ops;
      latency_total := !latency_total + (t1 - t0)
    end
  in
  let stats =
    Faults.Inject.run ~seed ?config
      ~abort_after:((horizon * 4) + 2_000_000)
      ~plan ~procs
      (fun p ->
        let i = ref 0 in
        while E.now () < horizon do
          let v = (p * 1_000_000) + !i in
          incr i;
          let t0 = E.now () in
          incr enq_started;
          Hashtbl.replace handed v ();
          pool.Pool_obj.enqueue v;
          incr enq_completed;
          record t0;
          let t0 = E.now () in
          incr deq_started;
          (* A peer may have crashed between its ticket and its element:
             give up once well past the window instead of spinning. *)
          (match
             pool.Pool_obj.dequeue ~stop:(fun () -> E.now () > horizon + grace)
           with
          | Some v -> dequeued := v :: !dequeued
          | None -> incr starved);
          record t0;
          if workload > 0 then E.delay (E.random_int (workload + 1))
        done)
  in
  (* Residue probe: engine-level reads, so run it as a quiescent
     one-processor simulation after the faulty run. *)
  let residue =
    match pool.Pool_obj.residue with
    | None -> None
    | Some f ->
        let r = ref 0 in
        ignore (Sim.run ~seed ~procs:1 (fun _ -> r := f ()));
        Some !r
  in
  let levels, entries =
    match pool.Pool_obj.stats_by_level with
    | None -> (None, None)
    | Some stats ->
        let per_level = stats () in
        ( Some (List.length per_level),
          Some (Core.Elim_stats.entries (Core.Elim_stats.merge per_level)) )
  in
  let started = !enq_started + !deq_started in
  let termination =
    Faults.Termination.check ?levels ?entries ~started
      ~stuck:stats.Sim.aborted_procs ()
  in
  let duplicates, phantoms =
    Analysis.Conservation.check_values
      ~enq_started:(Hashtbl.mem handed)
      !dequeued
  in
  let conservation =
    Analysis.Conservation.audit
      {
        enq_started = !enq_started;
        enq_completed = !enq_completed;
        dequeued = List.length !dequeued;
        duplicates;
        phantoms;
        residue;
        in_flight = stats.Sim.crashed_procs + stats.Sim.aborted_procs;
      }
  in
  let latency =
    if !ops = 0 then 0.0
    else float_of_int !latency_total /. float_of_int !ops
  in
  {
    method_name = pool.Pool_obj.name;
    procs;
    plan = Faults.Fault_plan.describe plan;
    ops = !ops;
    started;
    throughput_per_m =
      int_of_float (float_of_int !ops *. 1e6 /. float_of_int horizon);
    latency;
    elim_rate =
      (match pool.Pool_obj.stats_by_level with
      | None -> None
      | Some stats ->
          Some
            (Core.Elim_stats.elimination_fraction
               (Core.Elim_stats.merge (stats ()))));
    starved = !starved;
    crashed = stats.Sim.crashed_procs;
    stuck = stats.Sim.aborted_procs;
    end_clock = stats.Sim.end_clock;
    races = None;
    mem = stats;
    conservation;
    termination;
  }

let run ?seed ?horizon ?config ?grace ?workload ?(races = false) ~plan ~procs
    make =
  if races then begin
    let point, report =
      Analysis.Race_detector.run (fun () ->
          run_plain ?seed ?horizon ?config ?grace ?workload ~plan ~procs make)
    in
    { point with races = Some (List.length report.Analysis.Race_detector.races) }
  end
  else run_plain ?seed ?horizon ?config ?grace ?workload ~plan ~procs make

(* Stable one-line rendering: the determinism regression test compares
   these byte-for-byte across repeated runs. *)
let format_point p =
  let elim =
    match p.elim_rate with
    | None -> "-"
    | Some r -> Printf.sprintf "%.1f%%" (100.0 *. r)
  in
  let races =
    match p.races with None -> "" | Some n -> Printf.sprintf " races %d;" n
  in
  Printf.sprintf
    "%-16s p%-3d | thr %6d/M lat %7.1f elim %6s | starved %d crashed %d \
     stuck %d;%s conservation %s; termination %s"
    p.method_name p.procs p.throughput_per_m p.latency elim p.starved
    p.crashed p.stuck races p.conservation.Analysis.Conservation.detail
    (Faults.Termination.format p.termination)

let resolve name =
  match Methods.pool_method name with
  | Some make -> make
  | None ->
      invalid_arg
        (Printf.sprintf "Chaos: unknown method %S (known: %s)" name
           (String.concat ", " Methods.pool_method_names))

let sweep ?(seed = 1) ?(fault_seed = 7) ?horizon ?config ?grace ?workload
    ?races ?(methods = default_methods) ~procs () =
  let horizon_v = match horizon with Some h -> h | None -> 50_000 in
  List.map
    (fun level ->
      let plan =
        Faults.Fault_plan.ladder ~seed:fault_seed ~procs ~horizon:horizon_v
          ~level
      in
      let points =
        List.map
          (fun name ->
            run ~seed ?horizon ?config ?grace ?workload ?races ~plan ~procs
              (resolve name))
          methods
      in
      (level, Faults.Fault_plan.level_label level, points))
    (List.init Faults.Fault_plan.ladder_levels Fun.id)

let format_ladder levels =
  String.concat ""
    (List.map
       (fun (level, label, points) ->
         Printf.sprintf "-- fault level %d (%s) --\n%s%s\n" level label
           (match points with p :: _ -> "plan: " ^ p.plan ^ "\n" | [] -> "")
           (String.concat ""
              (List.map (fun p -> format_point p ^ "\n") points)))
       levels)

let to_json ~level ~label p =
  Report.(
    Obj
      ([
         ("method", Str p.method_name);
         ("procs", Int p.procs);
         ("fault_level", Int level);
         ("fault_label", Str label);
         ("plan", Str p.plan);
         ("throughput_per_m", Int p.throughput_per_m);
         ("latency", Float p.latency);
         ("ops", Int p.ops);
         ("started", Int p.started);
         ("elim_rate", opt (fun r -> Float r) p.elim_rate);
         ("races", opt (fun n -> Int n) p.races);
         ("starved", Int p.starved);
         ("crashed", Int p.crashed);
         ("stuck", Int p.stuck);
         ("conservation_ok", Bool p.conservation.Analysis.Conservation.ok);
         ("conservation", Str p.conservation.Analysis.Conservation.detail);
         ("termination_ok", Bool p.termination.Faults.Termination.ok);
         ("termination", Str (Faults.Termination.format p.termination));
       ]
      @ mem_fields p.mem))

(* The produce-consume benchmark of §2.5.1 (Figures 7 and 8).

   Each processor alternately enqueues a fresh element, dequeues one,
   and waits a uniform random number of cycles in [0, workload]; the run
   lasts [horizon] simulated cycles.  Reported: throughput (operations
   completed, normalized to operations per 10^6 cycles) and latency
   (average cycles per produce/consume operation). *)

module E = Sim.Engine

type point = {
  procs : int;
  throughput_per_m : int; (* produce+consume ops per 10^6 cycles *)
  latency : float;        (* average cycles per operation *)
  lat : Etrace.Histogram.summary; (* per-operation latency distribution *)
  ops : int;              (* raw operations completed in the window *)
  elim_rate : float option; (* eliminated/entries over all levels *)
  races : int option;     (* Some n when run under the race detector *)
  mem : Sim.stats;        (* engine-level op counters, see Report.ops *)
}

(* Overall elimination fraction of the run, when the method exposes
   per-level stats (trees only). *)
let elim_rate_of (pool : _ Pool_obj.pool) =
  match pool.Pool_obj.stats_by_level with
  | None -> None
  | Some stats ->
      Some (Core.Elim_stats.elimination_fraction (Core.Elim_stats.merge (stats ())))

let run_plain ~seed ~horizon ?config ~workload ~procs
    (make : procs:int -> int Pool_obj.pool) =
  let pool = make ~procs in
  let ops = ref 0 in
  let lat = Etrace.Histogram.create () in
  let record t0 =
    let t1 = E.now () in
    if t1 <= horizon then begin
      incr ops;
      Etrace.Histogram.add lat (t1 - t0)
    end
  in
  let stats =
    Sim.run ~seed ?config ~procs ~abort_after:((horizon * 4) + 2_000_000)
      (fun p ->
        let i = ref 0 in
        while E.now () < horizon do
          (* produce *)
          let t0 = E.now () in
          pool.Pool_obj.enqueue ((p * 1_000_000) + !i);
          incr i;
          record t0;
          (* consume: always succeeds eventually because every processor
             enqueues before it dequeues (P2). *)
          let t0 = E.now () in
          (match pool.Pool_obj.dequeue ~stop:(fun () -> false) with
          | Some _ -> ()
          | None -> assert false);
          record t0;
          if workload > 0 then E.delay (E.random_int (workload + 1))
        done)
  in
  if stats.aborted_procs > 0 then
    failwith
      (Printf.sprintf "produce-consume: %d processors stuck (method %s)"
         stats.aborted_procs pool.Pool_obj.name);
  {
    procs;
    throughput_per_m =
      int_of_float (float_of_int !ops *. 1e6 /. float_of_int horizon);
    latency = Etrace.Histogram.mean lat;
    lat = Etrace.Histogram.summary lat;
    ops = !ops;
    elim_rate = elim_rate_of pool;
    races = None;
    mem = stats;
  }

(* [races] reruns nothing: the whole simulated run executes under the
   race detector's tracer, and the point carries the race count
   (etrees.analysis, dynamic prong). *)
let run ?(seed = 1) ?(horizon = 200_000) ?config ?(races = false) ~workload
    ~procs make =
  if races then begin
    let point, report =
      Analysis.Race_detector.run (fun () ->
          run_plain ~seed ~horizon ?config ~workload ~procs make)
    in
    { point with races = Some (List.length report.Analysis.Race_detector.races) }
  end
  else run_plain ~seed ~horizon ?config ~workload ~procs make

let to_json ~method_name ~workload (p : point) =
  Report.(
    Obj
      ([
         ("method", Str method_name);
         ("workload", Int workload);
         ("procs", Int p.procs);
         ("throughput_per_m", Int p.throughput_per_m);
         ("latency", Float p.latency);
         ("latency_hist", histogram_json p.lat);
         ("ops", Int p.ops);
         ("elim_rate", opt (fun r -> Float r) p.elim_rate);
         ("races", opt (fun n -> Int n) p.races);
       ]
      @ mem_fields p.mem))

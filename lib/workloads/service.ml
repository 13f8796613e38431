(* The service-frontend workload (etrees.shard, docs/SHARDING.md).

   A bounded pool of [procs] simulated workers multiplexes [sessions]
   client sessions against a {!Shard.Shard_pool} frontend.  Each worker
   owns [sessions / procs] sessions and an open-loop arrival schedule
   drawn from an {!Arrivals} regime.  The submit half routes by the
   session id (a session's jobs colocate on its home shard); the drain
   half models the worker pool consuming jobs: each worker dequeues
   from its own collector id's home shard and relies on the steal path
   when it runs dry — sharding's load balancer.  A worker starts
   draining only after completing its own equal number of submissions,
   so availability (P2) holds globally and every dequeue has an element
   somewhere in the frontend.  The worker serves its schedule
   sequentially: when it falls behind, later arrivals queue and their
   sojourn (completion - scheduled arrival) grows — exactly the SLO
   p50/p90/p99 dynamics a saturated frontend produces, reported from
   an {!Etrace.Histogram}.

   The ledger mirrors {!Chaos}: every value handed to an enqueue is
   recorded with its session, so a dequeued value attributes to the
   shard it lived in (elements never migrate — a steal moves the
   dequeuer), giving per-shard conservation inputs that
   {!Analysis.Conservation.combine} folds into the whole-frontend
   audit. *)

module E = Sim.Engine
module Spool = Shard.Shard_pool.Make (E)

type point = {
  regime : string;        (* Arrivals.describe, stable *)
  regime_name : string;   (* Arrivals.name *)
  shards : int;
  steal_probes : int;
  policy : string;        (* Adapt.policy_name *)
  procs : int;
  width : int;
  sessions : int;         (* actual sessions simulated *)
  requests : int;         (* issued: 2 per session *)
  completed : int;        (* requests that finished (starved excluded) *)
  starved : int;          (* dequeues that gave up after [grace] *)
  end_clock : int;
  throughput_per_m : int; (* completed requests per million cycles *)
  sojourn : Etrace.Histogram.summary;  (* completion - scheduled arrival *)
  steal_empty_homes : int;
  steal_probed : int;
  steal_hits : int;
  residue : int;
  residue_by_shard : int list;
  conservation : Analysis.Conservation.report;  (* whole frontend *)
  conservation_by_shard : Analysis.Conservation.report list;
  mem : Sim.stats;
}

let run ?(seed = 1) ?(procs = 256) ?(width = 4) ?(shards = 1) ?steal_probes
    ?(policy = `Static) ?(grace = 500_000) ?(sessions = 10_000) ~regime () =
  if procs < 1 then invalid_arg "Service.run: procs must be >= 1";
  let per_worker = max 1 (sessions / procs) in
  let sessions = per_worker * procs in
  let requests = 2 * sessions in
  (* Leaf capacity: at most [sessions] elements are ever live, and the
     step property spreads a shard's residue evenly over its leaves, so
     2x the single-shard worst case per leaf absorbs any hash skew. *)
  let leaf_size = max 1_024 (2 * sessions / width) in
  let pool =
    Spool.create ?steal_probes ~policy ~leaf_size ~capacity:procs ~width
      ~shards ()
  in
  let session_of ~pid ~k = (pid * per_worker) + (k mod per_worker) in
  let value_of ~pid ~k = (pid * 2 * per_worker) + k in
  (* The ledger: value -> session, so a dequeued value attributes to
     the shard it lived in. *)
  let handed = Hashtbl.create (2 * requests) in
  let enq_started = Array.make shards 0 in
  let enq_completed = Array.make shards 0 in
  let deq_by_shard = Array.make shards 0 in
  let dequeued = ref [] in
  let starved = ref 0 in
  let completed = ref 0 in
  let hist = Etrace.Histogram.create () in
  let body pid =
    let gen = Arrivals.create ~seed ~stream:pid regime in
    (* The worker's collector id: drains always start at this id's home
       shard, so consumption concentrates per worker and the steal path
       carries whatever imbalance the session hash left behind. *)
    let collector = sessions + pid in
    let next = ref 0 in
    for k = 0 to (2 * per_worker) - 1 do
      next := !next + Arrivals.next_gap gen ~now:!next;
      let now = E.now () in
      if now < !next then E.delay (!next - now);
      let done_ =
        if k < per_worker then begin
          let session = session_of ~pid ~k in
          let home = Spool.shard_of pool ~session in
          let v = value_of ~pid ~k in
          enq_started.(home) <- enq_started.(home) + 1;
          Hashtbl.replace handed v session;
          Spool.enqueue pool ~session v;
          enq_completed.(home) <- enq_completed.(home) + 1;
          true
        end
        else begin
          let t0 = E.now () in
          match
            Spool.dequeue
              ~stop:(fun () -> E.now () - t0 > grace)
              pool ~session:collector
          with
          | Some v ->
              dequeued := v :: !dequeued;
              true
          | None ->
              incr starved;
              false
        end
      in
      if done_ then begin
        incr completed;
        Etrace.Histogram.add hist (E.now () - !next)
      end
    done
  in
  (* No abort horizon: availability (P2) plus the per-dequeue [grace]
     bound every request, so the run terminates on its own. *)
  let stats = Sim.run ~seed ~procs body in
  (* Residue probe: engine-level reads, quiescent one-processor run. *)
  let residue_by_shard =
    let r = ref [] in
    ignore (Sim.run ~seed ~procs:1 (fun _ -> r := Spool.residue_by_shard pool));
    !r
  in
  (* Attribute each dequeued value to the shard it lived in; values
     never handed out count as phantoms against shard 0. *)
  List.iter
    (fun v ->
      let s =
        match Hashtbl.find_opt handed v with
        | Some session -> Spool.shard_of pool ~session
        | None -> 0
      in
      deq_by_shard.(s) <- deq_by_shard.(s) + 1)
    !dequeued;
  let duplicates, phantoms =
    Analysis.Conservation.check_values ~enq_started:(Hashtbl.mem handed)
      !dequeued
  in
  let inputs =
    List.map2
      (fun s residue ->
        {
          Analysis.Conservation.enq_started = enq_started.(s);
          enq_completed = enq_completed.(s);
          dequeued = deq_by_shard.(s);
          (* Value-level safety is global (a stolen value legitimately
             surfaces far from its enqueuer's processor); attribute it
             to the combined ledger only. *)
          duplicates = 0;
          phantoms = 0;
          residue = Some residue;
          in_flight = 0;
        })
      (List.init shards Fun.id)
      residue_by_shard
  in
  let conservation_by_shard = List.map Analysis.Conservation.audit inputs in
  let combined = Analysis.Conservation.combine inputs in
  let conservation =
    Analysis.Conservation.audit { combined with duplicates; phantoms }
  in
  let steal = Spool.steal_stats pool in
  let end_clock = stats.Sim.end_clock in
  {
    regime = Arrivals.describe regime;
    regime_name = Arrivals.name regime;
    shards;
    steal_probes = (match steal_probes with Some p -> min p (shards - 1) | None -> shards - 1);
    policy = Adapt.policy_name policy;
    procs;
    width;
    sessions;
    requests;
    completed = !completed;
    starved = !starved;
    end_clock;
    throughput_per_m =
      (if end_clock = 0 then 0
       else
         int_of_float
           (float_of_int !completed *. 1e6 /. float_of_int end_clock));
    sojourn = Etrace.Histogram.summary hist;
    steal_empty_homes = steal.Spool.empty_homes;
    steal_probed = steal.Spool.probes;
    steal_hits = steal.Spool.steals;
    residue = List.fold_left ( + ) 0 residue_by_shard;
    residue_by_shard;
    conservation;
    conservation_by_shard;
    mem = stats;
  }

(* Stable one-line rendering (the determinism test compares these). *)
let format_point p =
  Printf.sprintf
    "%-28s shards %-2d p%-3d | thr %6d/M sojourn p50 %7d p90 %7d p99 %7d | \
     steals %d/%d probes | starved %d residue %d; %s"
    p.regime p.shards p.procs p.throughput_per_m p.sojourn.Etrace.Histogram.p50
    p.sojourn.Etrace.Histogram.p90 p.sojourn.Etrace.Histogram.p99 p.steal_hits
    p.steal_probed p.starved p.residue
    p.conservation.Analysis.Conservation.detail

let default_regimes ~mean_gap =
  [
    Arrivals.Poisson { mean_gap };
    Arrivals.Bursty { mean_gap; burst = 32; hot_factor = 8 };
    Arrivals.Diurnal { mean_gap; amplitude_pct = 80; period = 100_000 };
  ]

let to_json p =
  Report.(
    Obj
      ([
         ("regime", Str p.regime_name);
         ("regime_detail", Str p.regime);
         ("shards", Int p.shards);
         ("steal_probes", Int p.steal_probes);
         ("policy", Str p.policy);
         ("procs", Int p.procs);
         ("width", Int p.width);
         ("sessions", Int p.sessions);
         ("requests", Int p.requests);
         ("completed", Int p.completed);
         ("starved", Int p.starved);
         ("throughput_per_m", Int p.throughput_per_m);
         ("sojourn", histogram_json p.sojourn);
         ("steal_empty_homes", Int p.steal_empty_homes);
         ("steal_probed", Int p.steal_probed);
         ("steal_hits", Int p.steal_hits);
         ("residue", Int p.residue);
         ( "residue_by_shard",
           Arr (List.map (fun r -> Int r) p.residue_by_shard) );
         ("conservation_ok", Bool p.conservation.Analysis.Conservation.ok);
         ("conservation", Str p.conservation.Analysis.Conservation.detail);
         ( "conservation_by_shard_ok",
           Bool
             (List.for_all
                (fun (r : Analysis.Conservation.report) ->
                  r.Analysis.Conservation.ok)
                p.conservation_by_shard) );
       ]
      @ mem_fields p.mem))

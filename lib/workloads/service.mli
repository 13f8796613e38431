(** The service-frontend workload (docs/SHARDING.md): a bounded pool of
    simulated workers multiplexing client sessions against a
    {!Shard.Shard_pool} frontend, under {!Arrivals} request regimes.

    Each session submits one job (enqueue, routed by its session id)
    and the worker pool drains one job per session (dequeue, routed by
    the worker's collector id, stealing on an empty home); workers
    serve their open-loop arrival schedules sequentially, so backlog
    shows up as sojourn (completion minus scheduled arrival), reported
    as SLO p50/p90/p99.  Every run carries
    a per-shard conservation audit composed into the whole-frontend
    ledger with {!Analysis.Conservation.combine}. *)

type point = {
  regime : string;
  regime_name : string;
  shards : int;
  steal_probes : int;
  policy : string;
  procs : int;
  width : int;
  sessions : int;
  requests : int;
  completed : int;
  starved : int;
  end_clock : int;
  throughput_per_m : int;
  sojourn : Etrace.Histogram.summary;
  steal_empty_homes : int;
  steal_probed : int;
  steal_hits : int;
  residue : int;
  residue_by_shard : int list;
  conservation : Analysis.Conservation.report;
  conservation_by_shard : Analysis.Conservation.report list;
  mem : Sim.stats;
}

val run :
  ?seed:int ->
  ?procs:int ->
  ?width:int ->
  ?shards:int ->
  ?steal_probes:int ->
  ?policy:Adapt.policy ->
  ?grace:int ->
  ?sessions:int ->
  regime:Arrivals.regime ->
  unit ->
  point
(** One point: [sessions] (rounded to a multiple of [procs]; default
    10k) sessions of two requests each over [shards] pools of the
    given [width] (defaults 256 procs, width 4 — the near-saturation
    operating point of docs/SHARDING.md).  [grace] bounds how long a
    dequeue waits before counting as starved (default 500k cycles);
    [steal_probes]/[policy] pass through to
    {!Shard.Shard_pool.Make.create}. *)

val format_point : point -> string
(** Stable one-line rendering (byte-compared by the determinism
    test). *)

val default_regimes : mean_gap:int -> Arrivals.regime list
(** Poisson, bursty (32 @ x8) and diurnal (80%%, period 100k). *)

val to_json : point -> Report.json
(** One BENCH_service.json point. *)

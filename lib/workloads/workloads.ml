(** Benchmark workloads reproducing every experiment of the paper's
    evaluation (§2.5, §3), all running on the deterministic simulator:

    - {!Produce_consume} — Figures 7 and 8 (throughput & latency vs.
      concurrency at several think-time workloads);
    - {!Table1} — Table 1 (per-level elimination fractions) and the
      derived expected-depth numbers of §2.5.1;
    - {!Counting} — Figure 9 (fetch&increment throughput; no
      elimination possible);
    - {!Queens} — Figure 10 left (10-queens job distribution);
    - {!Response_time} — Figure 10 right (sparse producer/consumer
      handoff);
    - {!Chaos} — the etrees.faults robustness sweep (degradation under
      deterministic fault plans, with conservation and termination
      audits);
    - {!Arrivals}/{!Service} — the etrees.shard service frontend:
      Poisson/bursty/diurnal session arrivals against a sharded
      elimination-tree pool, with SLO percentiles and a composed
      conservation audit (docs/SHARDING.md);
    - {!Methods} — constructors for every compared method with the
      paper's parameters, plus the named method registries;
    - {!Pool_obj} — first-class pool/counter plumbing;
    - {!Report} — plain-text tables and JSON emission;
    - {!Traced} — running any of the above under tracing sinks
      (cycle attribution, Chrome/Perfetto export). *)

module Pool_obj = Pool_obj
module Methods = Methods
module Arrivals = Arrivals
module Service = Service
module Produce_consume = Produce_consume
module Chaos = Chaos
module Counting = Counting
module Queens = Queens
module Response_time = Response_time
module Table1 = Table1
module Lifo_fidelity = Lifo_fidelity
module Load_sweep = Load_sweep
module Adapt_sweep = Adapt_sweep
module Report = Report
module Traced = Traced
module Experiment = Experiment

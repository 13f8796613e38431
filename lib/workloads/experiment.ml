(* The experiment table: one descriptor per experiment of the
   evaluation (DESIGN.md §3), holding its name, whether the @perf gate
   tracks it and a run function returning the printed text, the JSON
   points and the verdict failures.  bench/main.exe, `etrees_run perf`,
   the @perf rule and the smoke test in test_bench_shapes.ml all
   iterate [all], so a new experiment is one more entry here. *)

module R = Report

type scale = {
  horizon : int;
  counts : int list;
  rt_total : int;
  sessions : int;
  adapt_workloads : int list;
}

let default =
  {
    horizon = 200_000;
    counts = [ 2; 4; 8; 16; 32; 64; 128; 256 ];
    rt_total = 2_560;
    (* 6 service points x 175k: >= 1M simulated sessions *)
    sessions = 175_000;
    adapt_workloads = Adapt_sweep.default_workloads;
  }

let quick =
  {
    horizon = 50_000;
    counts = [ 4; 16; 64; 256 ];
    rt_total = 640;
    sessions = 5_000;
    (* load falls as think time grows; CI keeps three points of it *)
    adapt_workloads = [ 0; 2_000; 16_000 ];
  }

let full = { default with horizon = 1_000_000; sessions = 350_000 }

type trace = { level : Etrace.Level.t; out : string option }

type output = {
  text : string;
  points : R.json list option;
  extra : (string * R.json) list;
  failures : string list;
}

type t = {
  name : string;
  tracked : bool;
  run : ?trace:trace -> scale -> output;
}

let progress fmt =
  Printf.ksprintf
    (fun s ->
      prerr_string ("# " ^ s ^ "\n");
      flush stderr)
    fmt

let output ?points ?(extra = []) ?(failures = []) b =
  { text = Buffer.contents b; points; extra; failures }

let section b title = Printf.bprintf b "== %s ==\n\n" title
let verdict ok = if ok then "PASS" else "FAIL"

(* A fresh text buffer opened by a section header. *)
let start title =
  let b = Buffer.create 4096 in
  section b title;
  b

let method_name make = (make ~procs:2).Pool_obj.name
let counter_name make = (make ~procs:2).Pool_obj.cname

(* One series per method: its points at each key, in key order, the
   method announced on stderr as "what: name" before its runs. *)
let series what name run keys methods =
  List.map
    (fun m ->
      progress "%s: %s" what (name m);
      List.map (fun k -> run k m) keys)
    methods

(* Table rows from columns of points: row i is labelled [labels_i] and
   holds [cell] of every column's i-th point. *)
let rec grid labels cell columns =
  match labels with
  | [] -> []
  | l :: labels ->
      (l, List.map (fun ps -> cell (List.hd ps)) columns)
      :: grid labels cell (List.map List.tl columns)

let labels = List.map string_of_int

let table b ~title ?(row_label = "procs") columns rows =
  Buffer.add_string b (R.table ~title ~row_label ~columns rows);
  Buffer.add_char b '\n'

(* [series] printed as one table per [(title, cell)]: a column per
   method, a row per key. *)
let sweep b what name run keys methods tables =
  let sr = series what name run keys methods in
  List.iter
    (fun (title, cell) ->
      table b ~title (List.map name methods) (grid (labels keys) cell sr))
    tables;
  sr

(* The JSON points of per-method series, in method order. *)
let encode name to_json methods series =
  List.concat
    (List.map2
       (fun m -> List.map (to_json ~method_name:(name m)))
       methods series)

let pc ?config ?races ?(workload = 0) b what s counts methods tables =
  sweep b what method_name
    (fun procs make ->
      Produce_consume.run ~horizon:s.horizon ?config ?races ~workload ~procs
        make)
    counts methods tables

let pc_tput p = R.int_ p.Produce_consume.throughput_per_m
let pc_lat p = R.float1 p.Produce_consume.latency

(* ------------------------------------------------------------------ *)
(* Figures 7 and 8: produce-consume                                    *)
(* ------------------------------------------------------------------ *)

let pc_figure b ?races s workload =
  let methods = Methods.produce_consume_methods in
  let title = Printf.sprintf "Produce-Consume, Workload=%d: %s" workload in
  pc ?races ~workload b
    (Printf.sprintf "produce-consume W=%d" workload)
    s s.counts methods
    [
      (title "throughput (ops per 10^6 cycles)", pc_tput);
      (title "average latency (cycles/op)", pc_lat);
    ]
  |> encode method_name (Produce_consume.to_json ~workload) methods

(* With [trace], a traced run of the elimination tree at the largest
   processor count adds its cycle-attribution table (docs/TRACING.md). *)
let fig7 ?trace s =
  let b = start "Figure 7: produce-consume, Workload = 0" in
  let points = pc_figure b ~races:true s 0 in
  match trace with
  | None -> output b ~points
  | Some { level; out } ->
      let procs = List.fold_left max 2 s.counts in
      progress "fig7 traced: etree @ %d procs (level %s)" procs
        (Etrace.Level.to_string level);
      let tr =
        Traced.run
          ?chrome_level:(Option.map (fun _ -> level) out)
          ~procs
          (fun () ->
            Produce_consume.run ~horizon:s.horizon ~workload:0 ~procs
              (fun ~procs -> Methods.etree_pool ~procs ()))
      in
      let r = Traced.report ~name:"etree" ~workload:0 ?out tr in
      Buffer.add_string b r.Traced.text;
      Option.iter
        (fun (st : Etrace.Chrome.stats) ->
          progress "wrote %s (%d events, %d tracks)" (Option.get out)
            st.Etrace.Chrome.events st.Etrace.Chrome.tracks)
        r.Traced.validated;
      output b ~points
        ~extra:[ ("attribution", R.attribution_json tr.Traced.attribution) ]
        ~failures:(List.map (( ^ ) "fig7: ") r.Traced.failures)

let fig8 ?trace:_ s =
  let b = Buffer.create 8192 in
  Buffer.add_string b
    "== Figure 8: produce-consume, Workload > 0 ==\n\
     (the paper's exact non-zero workload constants are illegible in the\n\
    \ available text; 1000/4000/16000 preserve the reported regimes)\n\n";
  let points = List.concat_map (pc_figure b s) [ 1_000; 4_000; 16_000 ] in
  output b ~points

(* ------------------------------------------------------------------ *)
(* Table 1: elimination fractions per level                            *)
(* ------------------------------------------------------------------ *)

let table1 ?trace:_ s =
  let b = start "Table 1: fraction of tokens eliminated per tree level" in
  let run procs =
    progress "table1: %d procs" procs;
    Table1.run ~horizon:s.horizon ~procs ()
  in
  let r16 = run 16 in
  let r256 = run 256 in
  table b ~title:"Etree-32 on produce-consume (W=0)" ~row_label:"level"
    [ "16 procs"; "256 procs" ]
    (List.map2
       (fun a c ->
         ( Printf.sprintf "level %d" a.Table1.level,
           [ R.percent a.Table1.fraction; R.percent c.Table1.fraction ] ))
       r16.Table1.rows r256.Table1.rows);
  Printf.bprintf b
    "expected nodes traversed (incl. leaf): %.2f @16 procs, %.2f @256 procs\n\
     requests reaching leaf pools:          %s @16 procs, %s @256 procs\n\n"
    r16.Table1.expected_nodes r256.Table1.expected_nodes
    (R.percent r16.Table1.leaf_fraction)
    (R.percent r256.Table1.leaf_fraction);
  output b

(* ------------------------------------------------------------------ *)
(* Figures 9 and 10: counting, 10-queens, response time                *)
(* ------------------------------------------------------------------ *)

let counting b what ~title s methods =
  sweep b what counter_name
    (fun procs make -> Counting.run ~horizon:s.horizon ~procs make)
    s.counts methods
    [ (title, fun p -> R.int_ p.Counting.throughput_per_m) ]
  |> encode counter_name Counting.to_json methods

let queens b what s methods =
  sweep b what method_name
    (fun procs make -> Queens.run ~procs make)
    s.counts methods
    [
      ( "Elapsed cycles until all 1110 tasks consumed",
        fun p -> R.int_ p.Queens.elapsed );
    ]
  |> encode method_name Queens.to_json methods

let fig9 ?trace:_ s =
  let b = start "Figure 9: counting benchmark (fetch&increment loop)" in
  let points =
    counting b "counting" ~title:"Throughput (fetch&inc per 10^6 cycles)" s
      Methods.counting_methods
  in
  output b ~points

let fig10 ?trace:_ s =
  let methods = Methods.distribution_methods in
  let b = start "Figure 10 (left): 10-queens job distribution" in
  let queens_points = queens b "queens" s methods in
  section b "Figure 10 (right): response time (sparse handoff)";
  let rt =
    sweep b "response-time" method_name
      (fun procs make -> Response_time.run ~total:s.rt_total ~procs make)
      (List.filter (fun n -> n mod 2 = 0) s.counts)
      methods
      [
        ( Printf.sprintf
            "Elapsed time until %d elements consumed, normalized per dequeue"
            s.rt_total,
          fun p -> R.float1 p.Response_time.normalized );
        ( "Per-element response time, p50/p90/p99 (cycles)",
          fun p -> R.latency_cell p.Response_time.rt );
      ]
  in
  output b
    ~points:
      (queens_points @ encode method_name Response_time.to_json methods rt)

(* ------------------------------------------------------------------ *)
(* Chaos: the etrees.faults robustness sweep                           *)
(* ------------------------------------------------------------------ *)

let chaos ?trace:_ s =
  let b =
    start "Chaos: degradation under deterministic fault plans (etrees.faults)"
  in
  let procs = 64 and fault_seed = 7 in
  progress "chaos: procs=%d fault-seed=%d" procs fault_seed;
  let levels =
    Chaos.sweep ~fault_seed ~horizon:s.horizon ~procs ~races:true ()
  in
  Buffer.add_string b (Chaos.format_ladder levels);
  let by_level = List.map (fun (_, _, points) -> points) levels in
  let t title cell =
    table b ~title ~row_label:"method"
      (List.map (fun (_, label, _) -> label) levels)
      (grid
         (List.map (fun p -> p.Chaos.method_name) (List.hd by_level))
         cell by_level)
  in
  t "Throughput (ops per 10^6 cycles) vs fault level" (fun p ->
      R.int_ p.Chaos.throughput_per_m);
  t "Verdicts (conservation / termination bound; see docs/FAULTS.md)"
    (fun p ->
      verdict p.Chaos.conservation.Analysis.Conservation.ok
      ^ "/"
      ^ verdict p.Chaos.termination.Faults.Termination.ok);
  let per_point f =
    List.concat_map
      (fun (level, label, points) -> List.filter_map (f level label) points)
      levels
  in
  output b
    ~points:
      (per_point (fun level label p -> Some (Chaos.to_json ~level ~label p)))
    ~failures:
      (per_point (fun level label p ->
           let c = p.Chaos.conservation in
           if c.Analysis.Conservation.ok then None
           else
             Some
               (Printf.sprintf "chaos: conservation @ level %d (%s), %s: %s"
                  level label p.Chaos.method_name
                  c.Analysis.Conservation.detail)))

(* ------------------------------------------------------------------ *)
(* S1: the sharded service frontend (docs/SHARDING.md)                 *)
(* ------------------------------------------------------------------ *)

(* 256 workers (the paper's machine size) at mean gap 800 offer ~0.32
   req/cycle against a width-4 tree whose single-shard capacity is
   ~0.08: the single tree collapses while 8 shards keep up. *)
let service ?trace:_ s =
  let b =
    start
      "S1: sharded service frontend, closed-loop sessions (docs/SHARDING.md)"
  in
  let shard_counts = [ 1; 8 ] in
  let regimes = Service.default_regimes ~mean_gap:800 in
  let points =
    List.concat_map
      (fun regime ->
        List.map
          (fun shards ->
            progress "service: %s shards=%d sessions=%d"
              (Arrivals.describe regime) shards s.sessions;
            Service.run ~shards ~sessions:s.sessions ~regime ())
          shard_counts)
      regimes
  in
  List.iter
    (fun p -> Buffer.add_string b (Service.format_point p ^ "\n"))
    points;
  Buffer.add_char b '\n';
  let t title cell =
    table b ~title ~row_label:"regime" (labels shard_counts)
      (grid
         (List.map Arrivals.name regimes)
         cell
         (List.map
            (fun n -> List.filter (fun p -> p.Service.shards = n) points)
            shard_counts))
  in
  t "Completed requests per 10^6 cycles vs shard count" (fun p ->
      R.int_ p.Service.throughput_per_m);
  t "Sojourn (completion - scheduled arrival), p50/p90/p99 (cycles)"
    (fun p -> R.latency_cell p.Service.sojourn);
  let bad =
    List.filter
      (fun p -> not p.Service.conservation.Analysis.Conservation.ok)
      points
  in
  Printf.bprintf b "conservation (whole frontend, per shard): %s\n\n"
    (verdict (bad = []));
  output b
    ~points:(List.map Service.to_json points)
    ~failures:
      (List.map
         (fun p ->
           Printf.sprintf "service: conservation @ %s shards=%d: %s"
             p.Service.regime_name p.Service.shards
             p.Service.conservation.Analysis.Conservation.detail)
         bad)

(* ------------------------------------------------------------------ *)
(* A1: the adaptive crossover (docs/ADAPTIVE.md)                       *)
(* ------------------------------------------------------------------ *)

let adapt ?trace:_ s =
  let b =
    start "A1: reactive vs hand-tuned static elimination (docs/ADAPTIVE.md)"
  in
  let procs = List.fold_left max 2 s.counts in
  let specs = Adapt_sweep.methods () in
  let sr =
    series "adapt"
      (fun spec -> Printf.sprintf "%s @ %d procs" spec.Adapt_sweep.label procs)
      (fun workload spec ->
        Adapt_sweep.run_point ~horizon:s.horizon ~procs ~workload spec)
      s.adapt_workloads specs
  in
  let t what cell =
    table b ~row_label:"workload"
      ~title:
        (Printf.sprintf "Produce-consume @ %d procs: %s vs think time" procs
           what)
      (List.map (fun spec -> spec.Adapt_sweep.label) specs)
      (grid (labels s.adapt_workloads) cell sr)
  in
  t "throughput (ops per 10^6 cycles)" (fun p ->
      R.int_ p.Adapt_sweep.throughput_per_m);
  t "average latency (cycles/op)" (fun p -> R.float1 p.Adapt_sweep.latency);
  (* The reactive column's final state at each point of the axis. *)
  let flat = List.concat sr in
  List.iter
    (fun p ->
      Option.iter
        (fun levels ->
          Printf.bprintf b "adapted (W=%d) spin:[widths] by depth: %s\n"
            p.Adapt_sweep.workload (Adapt_sweep.format_adapt levels))
        p.Adapt_sweep.final_adapt)
    flat;
  Printf.bprintf b
    "\nshape: saturation within 5%% of best static: %s; low-load latency \
     strictly best: %s\n\n"
    (verdict (Adapt_sweep.saturation_ok flat))
    (verdict (Adapt_sweep.low_load_ok flat));
  output b
    ~points:(List.map Adapt_sweep.to_json flat)
    ~failures:(Adapt_sweep.shape_failures flat)

(* ------------------------------------------------------------------ *)
(* Ablations and extras beyond the paper (EXPERIMENTS.md)              *)
(* ------------------------------------------------------------------ *)

let ablate ?trace:_ s =
  let b = start "Ablations: what makes the elimination tree fast?" in
  ignore
    (pc b "ablate" s
       (List.filter (fun n -> n >= 16) s.counts)
       Methods.ablation_methods
       [
         ("Produce-consume W=0: throughput (ops per 10^6 cycles)", pc_tput);
         ("Produce-consume W=0: average latency (cycles/op)", pc_lat);
       ]);
  output b

(* Load sweep and LIFO fidelity: the thesis experiments. *)
let thesis b s =
  section b
    "Extra: elimination rate and latency vs offered load (Etree-32, 256 procs)";
  progress "load sweep";
  table b ~title:"The busier it gets, the faster it gets"
    ~row_label:"workload"
    [ "latency"; "root elim"; "reach leaf" ]
    (List.map
       (fun (p : Load_sweep.point) ->
         ( string_of_int p.Load_sweep.workload,
           [
             R.float1 p.Load_sweep.latency;
             R.percent p.Load_sweep.root_elimination;
             R.percent p.Load_sweep.leaf_fraction;
           ] ))
       (Load_sweep.sweep ~horizon:s.horizon ~procs:256
          ~workloads:[ 0; 500; 1_000; 2_000; 4_000; 8_000; 16_000 ]
          ()));
  section b
    "Extra: LIFO fidelity of the stack-like pool (fraction of pops returning \
     the newest element)";
  let methods =
    [
      (fun ~procs -> Methods.estack_pool ~procs ());
      (fun ~procs -> Methods.etree_pool ~procs ());
    ]
  in
  let counts = List.filter (fun n -> n >= 4) s.counts in
  let sr =
    series "lifo fidelity" method_name
      (fun procs make -> Lifo_fidelity.run ~horizon:s.horizon ~procs make)
      counts methods
  in
  (* Two columns per method: its hits, then its rank. *)
  table b
    ~title:
      "Stack-like pool vs plain (FIFO-leaf) pool, produce-consume (hits: pop \
       returned the newest element; rank: 0 = stack, 1 = queue)"
    (List.concat_map
       (fun m -> [ method_name m ^ " hits"; method_name m ^ " rank" ])
       methods)
    (grid (labels counts) Fun.id
       (List.concat_map
          (fun ps ->
            [
              List.map (fun p -> R.percent p.Lifo_fidelity.hit_fraction) ps;
              List.map (fun p -> R.float2 p.Lifo_fidelity.mean_rank) ps;
            ])
          sr))

(* The cost model lets reads of a hot location share it; re-running
   the headline comparison with reads queueing like writes must keep
   the ranking and shapes, moving only constants. *)
let model b s =
  section b "Extra: model sensitivity (reads serialize like writes)";
  List.iter
    (fun (label, config) ->
      ignore
        (pc ?config b
           (Printf.sprintf "model(%s)" label)
           s
           (List.filter (fun n -> n >= 16) s.counts)
           Methods.produce_consume_methods
           [
             ( Printf.sprintf "Produce-consume W=0 throughput, %s read model"
                 label,
               pc_tput );
           ]))
    [
      ("shared (default)", None);
      ("serialized", Some Sim.Memory.serialized_reads_config);
    ]

let extra ?trace:_ s =
  let b =
    start
      "Extra: elimination-tree width sensitivity (the paper chose 32 \
       empirically)"
  in
  ignore
    (pc b "width" s s.counts Methods.width_methods
       [ ("Produce-consume W=0: throughput (ops per 10^6 cycles)", pc_tput) ]);
  section b "Extra: counting-network lineage (not in the paper)";
  ignore
    (counting b "extra counting" s Methods.counting_extra_methods
       ~title:
         "Throughput (fetch&inc per 10^6 cycles): AHS bitonic network [4] vs \
          diffracting trees vs one hot location");
  section b "Extra: LIFO job distribution (stack-like pool vs stealing)";
  ignore (queens b "extra queens" s Methods.distribution_extra_methods);
  thesis b s;
  model b s;
  output b

(* ------------------------------------------------------------------ *)
(* The table                                                           *)
(* ------------------------------------------------------------------ *)

(* In run order.  The @perf gate tracks the experiments cheap enough to
   re-run on every commit at quick scale. *)
let all =
  [
    { name = "fig7"; tracked = true; run = fig7 };
    { name = "fig8"; tracked = false; run = fig8 };
    { name = "table1"; tracked = false; run = table1 };
    { name = "fig9"; tracked = false; run = fig9 };
    { name = "fig10"; tracked = false; run = fig10 };
    { name = "chaos"; tracked = true; run = chaos };
    { name = "service"; tracked = true; run = service };
    { name = "adapt"; tracked = true; run = adapt };
    { name = "ablate"; tracked = false; run = ablate };
    { name = "extra"; tracked = false; run = extra };
  ]

let names = List.map (fun e -> e.name) all
let tracked =
  List.filter_map (fun e -> if e.tracked then Some e.name else None) all

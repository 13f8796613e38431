(* Bench-shape regression tests: the harness's headline claims,
   asserted over the machine-readable BENCH_*.json round trip so a
   regression in either the structures or the report plumbing fails
   [dune runtest].

   - fig7 shape: at high load (workload 0, many processors) the
     elimination tree out-throughputs the original diffracting tree
     (the paper's central claim, Figure 7).
   - adapt shape (EXPERIMENTS.md A1): the reactive tree stays within
     5% of the best hand-tuned static schedule at saturation AND beats
     every static schedule's latency at the lowest load point.

   The points are generated in-process at a reduced scale (the same
   sweep code the bench harness calls), serialized with the point
   types' own encoders through Report.write_json, re-read with the
   hand-rolled Etrace.Json parser, and the claims are evaluated on the
   re-parsed values — the same path CI consumers of BENCH_adapt.json
   take.

   The table group runs every entry of Workloads.Experiment that the
   @perf gate does not track, at a tiny scale, so their table and JSON
   code cannot rot unnoticed. Group names stay at most six characters
   and test names short: Alcotest truncates a test name that does not
   fit beside the widest group name in an 80-column line. *)

module W = Workloads
module R = W.Report
module J = Etrace.Json

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let procs = 256
let horizon = 20_000

let write_and_parse_report ?meta ~experiment points =
  let file = Filename.temp_file ("bench_" ^ experiment) ".json" in
  R.write_json ~file
    (R.Obj
       ([ ("experiment", R.Str experiment) ]
       @ (match meta with Some m -> [ ("meta", m) ] | None -> [])
       @ [ ("points", R.Arr points) ]));
  let v =
    match J.parse_file file with
    | Ok v -> v
    | Error e -> Alcotest.failf "re-parsing %s: %s" file e
  in
  Sys.remove file;
  check_bool "experiment tag round-trips" true
    (Option.bind (J.member "experiment" v) J.to_str = Some experiment);
  v

let write_and_parse ~experiment points =
  let v = write_and_parse_report ~experiment points in
  Option.get (Option.bind (J.member "points" v) J.to_list)

let field_int p name = Option.get (Option.bind (J.member name p) J.to_int)
let field_num p name = Option.get (Option.bind (J.member name p) J.to_num)
let field_str p name = Option.get (Option.bind (J.member name p) J.to_str)

(* ------------------------------------------------------------------ *)
(* Figure 7: elimination >= diffraction at high load                   *)
(* ------------------------------------------------------------------ *)

let test_fig7_shape () =
  let point make =
    W.Produce_consume.to_json ~method_name:(make ~procs).W.Pool_obj.name
      ~workload:0
      (W.Produce_consume.run ~seed:3 ~horizon ~workload:0 ~procs make)
  in
  let points =
    write_and_parse ~experiment:"fig7"
      [
        point (fun ~procs -> W.Methods.etree_pool ~procs ());
        point (fun ~procs -> W.Methods.dtree_pool ~procs ());
      ]
  in
  check_int "two points" 2 (List.length points);
  let tput prefix =
    match
      List.find_opt
        (fun p ->
          String.length (field_str p "method") >= String.length prefix
          && String.sub (field_str p "method") 0 (String.length prefix)
             = prefix)
        points
    with
    | Some p -> field_int p "throughput_per_m"
    | None -> Alcotest.failf "no %s point in the re-parsed report" prefix
  in
  let etree = tput "Etree" and dtree = tput "Dtree" in
  check_bool
    (Printf.sprintf
       "elimination (%d) >= diffraction (%d) at workload 0, %d procs" etree
       dtree procs)
    true (etree >= dtree)

(* ------------------------------------------------------------------ *)
(* A1: the adaptive crossover                                          *)
(* ------------------------------------------------------------------ *)

let adapt_point ~method_name ~reactive ~workload ~throughput_per_m ~latency =
  {
    W.Adapt_sweep.method_name;
    reactive;
    workload;
    procs;
    throughput_per_m;
    latency;
    lat = Etrace.Histogram.(summary (create ()));
    elim_rate = None;
    final_adapt = None;
  }

let test_adapt_shape () =
  let specs = W.Adapt_sweep.methods () in
  let series =
    W.Adapt_sweep.sweep ~seed:3 ~horizon ~workloads:[ 0; 16_000 ] ~procs specs
  in
  let flat = List.concat series in
  (* Serialize with the bench harness's encoder... *)
  let points =
    write_and_parse ~experiment:"adapt" (List.map W.Adapt_sweep.to_json flat)
  in
  check_int "every sweep point round-trips" (List.length flat)
    (List.length points);
  (* ...and evaluate the shape claims on the RE-PARSED values only. *)
  let reparsed =
    List.map
      (fun p ->
        adapt_point ~method_name:(field_str p "method")
          ~reactive:(Option.get (Option.bind (J.member "reactive" p) J.to_bool))
          ~workload:(field_int p "workload")
          ~throughput_per_m:(field_int p "throughput_per_m")
          ~latency:(field_num p "latency"))
      points
  in
  check_bool
    "reactive within 5% of the best static schedule at saturation (W=0)" true
    (W.Adapt_sweep.saturation_ok reparsed);
  check_bool
    "reactive latency strictly below every static schedule at lowest load"
    true
    (W.Adapt_sweep.low_load_ok reparsed)

(* ------------------------------------------------------------------ *)
(* S1: the sharded service frontend                                    *)
(* ------------------------------------------------------------------ *)

let test_service_shape () =
  (* The same operating point the bench harness sweeps, at test scale:
     near saturation, one shard collapses while eight keep up. *)
  let point shards =
    W.Service.to_json
      (W.Service.run ~seed:3 ~shards ~sessions:4_000
         ~regime:(W.Arrivals.Poisson { mean_gap = 800 })
         ())
  in
  let points = write_and_parse ~experiment:"service" [ point 1; point 8 ] in
  check_int "two points" 2 (List.length points);
  let at shards =
    match
      List.find_opt (fun p -> field_int p "shards" = shards) points
    with
    | Some p -> p
    | None -> Alcotest.failf "no %d-shard point in the re-parsed report" shards
  in
  List.iter
    (fun p ->
      check_bool "conservation round-trips as ok" true
        (Option.bind (J.member "conservation_ok" p) J.to_bool = Some true);
      let sojourn = Option.get (J.member "sojourn" p) in
      let pct name = field_int sojourn name in
      check_bool
        (Printf.sprintf "percentiles ordered (%d/%d/%d)" (pct "p50")
           (pct "p90") (pct "p99"))
        true
        (pct "p50" <= pct "p90" && pct "p90" <= pct "p99"))
    points;
  check_int "single tree never steals" 0 (field_int (at 1) "steal_hits");
  let t1 = field_int (at 1) "throughput_per_m"
  and t8 = field_int (at 8) "throughput_per_m" in
  check_bool
    (Printf.sprintf "sharding scales the saturated frontend (%d -> %d)" t1 t8)
    true (t8 > t1)

(* ------------------------------------------------------------------ *)
(* Meta blocks: the BENCH_<exp>.json provenance/cost header            *)
(* ------------------------------------------------------------------ *)

(* The exact path bench/main.ml takes: a Report.Meta probe around the
   workload, its json block embedded in the report, the file re-read
   with Etrace.Json and held against the benchdb schema — the contract
   `etrees_run perf append` enforces before a row enters the DB. *)
let meta_shape ~experiment ~reparsed meta_value =
  check_bool
    (Printf.sprintf "BENCH_%s.json meta validates against the schema"
       experiment)
    true
    (match Benchdb.Db.validate_meta meta_value with
    | Ok () -> true
    | Error e -> Alcotest.failf "meta schema: %s" e);
  let int_f = field_int meta_value
  and num_f = field_num meta_value
  and str_f = field_str meta_value in
  check_bool "meta experiment tag matches" true
    (str_f "experiment" = experiment);
  check_bool "toolchain carries the compiler version" true
    (String.length (str_f "toolchain") >= 6
    && String.sub (str_f "toolchain") 0 6 = "ocaml-");
  check_bool "the probe saw the run's simulated events" true
    (int_f "events" > 0);
  check_bool "ops split into reads/writes/rmws" true
    (int_f "reads" > 0 && int_f "writes" > 0 && int_f "rmws" >= 0);
  (* Derived columns are consistent with their inputs after the float
     round trip (write_json prints %.6g). *)
  let close a b = Float.abs (a -. b) <= 0.01 *. Float.abs b +. 1e-6 in
  check_bool "minor_words_per_event = minor_words / events" true
    (close (num_f "minor_words_per_event")
       (num_f "minor_words" /. float_of_int (int_f "events")));
  check_bool "events_per_sec consistent with cpu_s" true
    (num_f "cpu_s" = 0.0
    || close (num_f "events_per_sec")
         (float_of_int (int_f "events") /. num_f "cpu_s"));
  (* The whole report, meta included, folds into one DB row. *)
  match Benchdb.Db.of_bench_json ~exp:experiment reparsed with
  | Ok row ->
      check_bool "DB row keeps the point count" true (row.Benchdb.Db.points > 0)
  | Error e -> Alcotest.failf "of_bench_json: %s" e

let test_chaos_meta_shape () =
  let probe = R.Meta.start () in
  let p =
    W.Chaos.run ~seed:3 ~horizon:5_000 ~plan:Faults.Fault_plan.none ~procs:16
      (fun ~procs -> W.Methods.etree_pool ~procs ())
  in
  let meta = R.Meta.json (R.Meta.stop probe ~experiment:"chaos" ~seed:3) in
  let reparsed =
    write_and_parse_report ~meta ~experiment:"chaos"
      [ W.Chaos.to_json ~level:0 ~label:"none" p ]
  in
  check_bool "fault-free chaos point conserves tokens" true
    p.W.Chaos.conservation.Analysis.Conservation.ok;
  meta_shape ~experiment:"chaos" ~reparsed
    (Option.get (J.member "meta" reparsed))

let test_adapt_meta_shape () =
  let probe = R.Meta.start () in
  let specs = W.Adapt_sweep.methods () in
  let series =
    W.Adapt_sweep.sweep ~seed:3 ~horizon:5_000 ~workloads:[ 0 ] ~procs:16
      specs
  in
  let meta = R.Meta.json (R.Meta.stop probe ~experiment:"adapt" ~seed:3) in
  let reparsed =
    write_and_parse_report ~meta ~experiment:"adapt"
      (List.map W.Adapt_sweep.to_json (List.concat series))
  in
  meta_shape ~experiment:"adapt" ~reparsed
    (Option.get (J.member "meta" reparsed))

(* Gc.quick_stat counts minor words only up to the last minor
   collection, so two probes around runs that allocate the same read
   different counts; the probe must not. *)
let test_meta_minor_words_exact () =
  let run () =
    ignore
      (W.Produce_consume.run ~seed:1 ~horizon:5_000 ~workload:0 ~procs:16
         (fun ~procs -> W.Methods.etree_pool ~procs ()))
  in
  run ();
  let probe () =
    let p = R.Meta.start () in
    run ();
    (R.Meta.stop p ~experiment:"fig7" ~seed:1).R.Meta.minor_words
  in
  let a = probe () in
  let b = probe () in
  Alcotest.(check (float 0.0)) "same run, same minor words" a b

(* ------------------------------------------------------------------ *)
(* The experiment table                                                *)
(* ------------------------------------------------------------------ *)

let tiny =
  { W.Experiment.quick with horizon = 5_000; counts = [ 4; 16 ]; rt_total = 64 }

(* @perf runs the tracked entries at quick scale; every other entry
   runs here. *)
let untracked (e : W.Experiment.t) = not e.W.Experiment.tracked

let test_experiment (e : W.Experiment.t) () =
  let o = e.W.Experiment.run tiny in
  check_bool "prints its tables" true (String.length o.W.Experiment.text > 0);
  (match o.W.Experiment.points with
  | Some points ->
      check_bool "writes JSON points" true (points <> []);
      check_int "every point round-trips" (List.length points)
        (List.length (write_and_parse ~experiment:e.W.Experiment.name points))
  | None -> ());
  Alcotest.(check (list string))
    "no verdict failures" [] o.W.Experiment.failures

let test_adapt_verdict () =
  let at ~workload ~static ~reactive =
    [
      adapt_point ~method_name:"s" ~reactive:false ~workload
        ~throughput_per_m:(fst static) ~latency:(snd static);
      adapt_point ~method_name:"r" ~reactive:true ~workload
        ~throughput_per_m:(fst reactive) ~latency:(snd reactive);
    ]
  in
  let low = at ~workload:16_000 ~static:(100, 500.0) ~reactive:(100, 400.0) in
  Alcotest.(check (list string)) "reactive on par: no failure" []
    (W.Adapt_sweep.shape_failures
       (at ~workload:0 ~static:(1000, 200.0) ~reactive:(960, 200.0) @ low));
  Alcotest.(check int) "reactive trails the best static at saturation" 1
    (List.length
       (W.Adapt_sweep.shape_failures
          (at ~workload:0 ~static:(1000, 200.0) ~reactive:(900, 200.0) @ low)))

let () =
  Alcotest.run "bench_shapes"
    [
      ( "shapes",
        [
          Alcotest.test_case "fig7: elimination >= diffraction" `Quick
            test_fig7_shape;
          Alcotest.test_case "A1: adaptive crossover" `Quick test_adapt_shape;
          Alcotest.test_case "S1: service frontend scales with shards" `Quick
            test_service_shape;
        ] );
      ( "meta",
        [
          Alcotest.test_case "chaos: meta block shape" `Quick
            test_chaos_meta_shape;
          Alcotest.test_case "adapt: meta block shape" `Quick
            test_adapt_meta_shape;
          Alcotest.test_case "minor words are exact" `Quick
            test_meta_minor_words_exact;
        ] );
      ( "table",
        Alcotest.test_case "adapt: reactive trailing fails" `Quick
          test_adapt_verdict
        :: List.map
             (fun (e : W.Experiment.t) ->
               Alcotest.test_case e.W.Experiment.name `Quick
                 (test_experiment e))
             (List.filter untracked W.Experiment.all) );
    ]

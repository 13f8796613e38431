(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation on the simulator, plus Bechamel micro-benchmarks
   of the native structures.

     dune exec bench/main.exe                 -- everything, default scale
     dune exec bench/main.exe -- fig7 fig9    -- selected experiments
     dune exec bench/main.exe -- --quick all  -- reduced scale
     dune exec bench/main.exe -- --full all   -- the paper's 10^6 cycles

   Experiments are the entries of Workloads.Experiment.all (fig7 fig8
   table1 fig9 fig10 chaos service adapt ablate extra), plus native;
   [all] runs every one, [tracked] the set the @perf gate holds against
   bench/db (see DESIGN.md §3 for the experiment index, EXPERIMENTS.md
   for paper-vs-measured).  With [--json], experiments that support it
   also write machine-readable BENCH_<experiment>.json point files.

   Tracing (docs/TRACING.md): [--trace] adds a traced fig7 run of the
   elimination tree at the largest processor count, printing its
   cycle-attribution table and embedding it in BENCH_fig7.json;
   [--trace-out FILE] additionally writes the run's Chrome trace-event
   JSON (rendered at [--trace-level], default events) for
   ui.perfetto.dev.

   Exit status: 0 success, 1 a verdict failed (conservation, fig7's
   attribution books or trace validation, adapt's shape), 2 bad
   input. *)

module W = Workloads
module R = W.Report
module X = W.Experiment

(* Workload runs use the library default seed; recorded in each meta
   block so DB rows are comparable. *)
let run_seed = 1

(* Every report carries a "meta" block from the probe started when its
   experiment began — provenance, Gc cost and the simulator's event/op
   odometer (docs/BENCHDB.md); the "# host" line is rendered from the
   same record, so stderr and JSON cannot disagree. *)
let emit_json ~json ~experiment ~probe ~extra points =
  let meta = R.Meta.stop probe ~experiment ~seed:run_seed in
  X.progress "%s" (R.Meta.host_line meta);
  if json then begin
    let file = Printf.sprintf "BENCH_%s.json" experiment in
    R.write_json ~file
      (R.Obj
         ([
            ("experiment", R.Str experiment);
            ("meta", R.Meta.json meta);
            ("points", R.Arr points);
          ]
         @ extra));
    X.progress "wrote %s" file
  end

(* ------------------------------------------------------------------ *)
(* Native micro-benchmarks (Bechamel)                                  *)
(* ------------------------------------------------------------------ *)

let native_benches () =
  print_string "== Native micro-benchmarks (single-domain op cost) ==\n\n";
  let open Bechamel in
  let open Toolkit in
  Engine.Native.set_capacity 64;
  let elim_stack = Native.Elim_stack.create ~capacity:64 ~width:4 () in
  let elim_pool = Native.Elim_pool.create ~capacity:64 ~width:4 () in
  let local =
    Native.Local_pool.create ~discipline:`Lifo ~lock_capacity:64 ()
  in
  let central =
    Native.Central_pool.create ~size:4096
      ~head:
        (Native.Mcs_counter.as_counter
           (Native.Mcs_counter.create ~capacity:64 ()))
      ~tail:
        (Native.Mcs_counter.as_counter
           (Native.Mcs_counter.create ~capacity:64 ()))
      ()
  in
  let idc = Native.Inc_dec_counter.create ~capacity:64 ~width:4 () in
  let tests =
    [
      Test.make ~name:"elim_stack push+pop"
        (Staged.stage (fun () ->
             Native.Elim_stack.push elim_stack 1;
             ignore (Native.Elim_stack.pop elim_stack)));
      Test.make ~name:"elim_pool enq+deq"
        (Staged.stage (fun () ->
             Native.Elim_pool.enqueue elim_pool 1;
             ignore (Native.Elim_pool.dequeue elim_pool)));
      Test.make ~name:"locked local pool enq+deq"
        (Staged.stage (fun () ->
             Native.Local_pool.enqueue local 1;
             ignore (Native.Local_pool.try_dequeue local)));
      Test.make ~name:"central pool (MCS) enq+deq"
        (Staged.stage (fun () ->
             Native.Central_pool.enqueue central 1;
             ignore (Native.Central_pool.dequeue central)));
      Test.make ~name:"inc_dec_counter inc"
        (Staged.stage (fun () ->
             ignore (Native.Inc_dec_counter.increment idc)));
    ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw =
    Benchmark.all cfg
      Instance.[ monotonic_clock ]
      (Test.make_grouped ~name:"native" tests)
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some (t :: _) -> Printf.sprintf "%.0f" t
        | _ -> "n/a"
      in
      rows := (name, [ est ]) :: !rows)
    results;
  print_string
    (R.table ~title:"Single-domain operation cost" ~row_label:"operation"
       ~columns:[ "ns/op" ]
       (List.sort compare !rows));
  print_newline ()

(* ------------------------------------------------------------------ *)

let usage fmt =
  Printf.ksprintf
    (fun s ->
      Printf.eprintf
        "bench: %s\n\
         usage: main.exe [--quick|--full] [--json] [--trace] [--trace-out \
         FILE] [--trace-level LEVEL] [EXPERIMENT...]\n\
         experiments: %s native all tracked\n"
        s (String.concat " " X.names);
      exit 2)
    fmt

let () =
  let total_probe = R.Meta.start () in
  let scale = ref X.default and picked = ref [] and json = ref false in
  let traced = ref false and out = ref None in
  let level = ref Etrace.Level.Events in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        scale := X.quick;
        parse rest
    | "--full" :: rest ->
        scale := X.full;
        parse rest
    | "--json" :: rest ->
        json := true;
        parse rest
    | "--trace" :: rest ->
        traced := true;
        parse rest
    | "--trace-out" :: file :: rest ->
        traced := true;
        out := Some file;
        parse rest
    | "--trace-level" :: l :: rest ->
        (match Etrace.Level.of_string l with
        | Some lv -> level := lv
        | None -> usage "unknown trace level %s (off|ops|events|full)" l);
        parse rest
    | [ ("--trace-out" | "--trace-level") as flag ] ->
        usage "%s needs an argument" flag
    | x :: rest
      when List.mem x ("native" :: "all" :: "tracked" :: X.names) ->
        picked := x :: !picked;
        parse rest
    | x :: _ -> usage "unknown experiment or option %s" x
  in
  parse (List.tl (Array.to_list Sys.argv));
  let trace = if !traced then Some { X.level = !level; out = !out } else None in
  let picked = if !picked = [] then [ "all" ] else !picked in
  let want name =
    List.mem name picked || List.mem "all" picked
    || (List.mem "tracked" picked && List.mem name X.tracked)
  in
  let scale = !scale in
  X.progress "scale: horizon=%d cycles, procs=%s" scale.X.horizon
    (String.concat "," (List.map string_of_int scale.X.counts));
  let failures =
    List.concat_map
      (fun (e : X.t) ->
        if not (want e.X.name) then []
        else begin
          let probe = R.Meta.start () in
          let o = e.X.run ?trace scale in
          print_string o.X.text;
          List.iter (Printf.eprintf "bench: FAIL %s\n%!") o.X.failures;
          Option.iter
            (emit_json ~json:!json ~experiment:e.X.name ~probe
               ~extra:o.X.extra)
            o.X.points;
          o.X.failures
        end)
      X.all
  in
  if want "native" then native_benches ();
  (* Whole-process cost line, from the same Report.Meta probe the JSON
     meta blocks use, so stderr and JSON cannot disagree. *)
  X.progress "%s"
    (R.Meta.host_line
       (R.Meta.stop total_probe ~experiment:"all" ~seed:run_seed));
  if failures <> [] then begin
    Printf.eprintf "bench: %d verdict failure(s):\n" (List.length failures);
    List.iter (Printf.eprintf "  %s\n") failures;
    exit 1
  end

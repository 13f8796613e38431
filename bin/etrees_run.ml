(* A command-line driver for running individual experiments with custom
   parameters (processor counts, workload, horizon, seed, method).

     dune exec bin/etrees_run.exe -- pc --workload 1000 --procs 64
     dune exec bin/etrees_run.exe -- count --procs 256 --method dtree32
     dune exec bin/etrees_run.exe -- queens --procs 32 --method rsu
     dune exec bin/etrees_run.exe -- response --procs 16 --total 640
     dune exec bin/etrees_run.exe -- table1 --procs 256
     dune exec bin/etrees_run.exe -- chaos --procs 64 --stall 8x2000 \
       --fault-seed 7 *)

open Cmdliner
module W = Workloads

(* The method name -> constructor maps live in W.Methods so the bench
   harness and this driver agree on them. *)
let pool_methods = W.Methods.pool_registry
let counter_methods = W.Methods.counter_registry

(* A bad size exits 2 with one line on stderr, before anything is
   built. *)
let reject cmd fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline (cmd ^ ": " ^ msg);
      exit 2)
    fmt

(* An output file ([--trace-out], [--counterexample-out], [--out]),
   checked before any work: [output cmd file] rejects a file whose
   directory is missing or not writable, or that is a directory or not
   writable itself, and creates nothing.  It returns the guard to run
   the write under: a [Sys_error] the write still raises (also from a
   [Fun.protect]'s [close_out]) exits 2 too, with one line naming the
   subcommand, the file and the reason.  With no file the guard only
   runs the write. *)
let output cmd file =
  match file with
  | None -> fun write -> write ()
  | Some file ->
      let cannot fmt = reject cmd ("cannot write %s: " ^^ fmt) file in
      let dir = Filename.dirname file in
      let writable f =
        match Unix.access f [ Unix.W_OK ] with
        | () -> true
        | exception Unix.Unix_error _ -> false
      in
      if not (Sys.file_exists dir && Sys.is_directory dir) then
        cannot "no directory %s" dir;
      if not (writable dir) then cannot "directory %s is not writable" dir;
      if Sys.file_exists file then begin
        if Sys.is_directory file then cannot "it is a directory";
        if not (writable file) then cannot "it is not writable"
      end;
      fun write ->
        try write ()
        with Sys_error why | Fun.Finally_raised (Sys_error why) ->
          cannot "%s" why

let need_procs cmd procs =
  if procs < 1 then reject cmd "--procs must be positive, got %d" procs

let need_horizon cmd horizon =
  if horizon < 1 then reject cmd "--horizon must be positive, got %d" horizon

let need_workload cmd workload =
  if workload < 0 then
    reject cmd "--workload must not be negative, got %d" workload

(* Common options *)
let procs_t =
  Arg.(value & opt int 64 & info [ "p"; "procs" ] ~doc:"Simulated processors.")

let seed_t = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Simulation seed.")

let horizon_t =
  Arg.(
    value
    & opt int W.Experiment.default.horizon
    & info [ "horizon" ] ~doc:"Simulated cycles to run (paper: 1000000).")

let method_conv names =
  let parse s =
    match List.assoc_opt s names with
    | Some m -> Ok m
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown method %S (expected one of: %s)" s
               (String.concat ", " (List.map fst names))))
  in
  Arg.conv (parse, fun fmt _ -> Format.pp_print_string fmt "<method>")

let pool_method_t =
  Arg.(
    value
    & opt (method_conv pool_methods) (List.assoc "etree" pool_methods)
    & info [ "m"; "method" ]
        ~doc:
          (Printf.sprintf "Pool method: %s."
             (String.concat ", " (List.map fst pool_methods))))

let counter_method_t =
  Arg.(
    value
    & opt (method_conv counter_methods) (List.assoc "dtree32multi" counter_methods)
    & info [ "m"; "method" ]
        ~doc:
          (Printf.sprintf "Counter method: %s."
             (String.concat ", " (List.map fst counter_methods))))

(* pc: produce-consume *)
let pc_cmd =
  let workload_t =
    Arg.(
      value & opt int 0
      & info [ "w"; "workload" ] ~doc:"Max think time between operations.")
  in
  let adapt_t =
    Arg.(
      value & flag
      & info [ "adapt" ]
          ~doc:
            "Run the elimination tree under the reactive controller \
             (docs/ADAPTIVE.md) instead of the static tuning; the \
             $(b,--adapt-*) options refine its configuration.  Overrides \
             $(b,--method) with the reactive etree pool.")
  in
  let adapt_period_t =
    Arg.(
      value & opt int Adapt.default.Adapt.period
      & info [ "adapt-period" ]
          ~doc:"Reactive: balancer entries per adaptation epoch.")
  in
  let adapt_hi_t =
    Arg.(
      value & opt int Adapt.default.Adapt.hi_pct
      & info [ "adapt-hi" ]
          ~doc:"Reactive: grow when the window hit rate is >= this percent.")
  in
  let adapt_lo_t =
    Arg.(
      value & opt int Adapt.default.Adapt.lo_pct
      & info [ "adapt-lo" ]
          ~doc:"Reactive: shrink when the window hit rate is <= this percent.")
  in
  let adapt_min_pct_t =
    Arg.(
      value & opt int Adapt.default.Adapt.min_pct
      & info [ "adapt-min-pct" ]
          ~doc:"Reactive: clamp floor, percent of the static value.")
  in
  let adapt_max_pct_t =
    Arg.(
      value & opt int Adapt.default.Adapt.max_pct
      & info [ "adapt-max-pct" ]
          ~doc:"Reactive: clamp ceiling, percent of the static value.")
  in
  let adapt_seed_t =
    Arg.(
      value & opt int Adapt.default.Adapt.seed
      & info [ "adapt-seed" ]
          ~doc:"Reactive: seed for the controllers' private streams.")
  in
  let run procs seed horizon workload make adapt period hi_pct lo_pct min_pct
      max_pct adapt_seed =
    need_procs "pc" procs;
    need_horizon "pc" horizon;
    need_workload "pc" workload;
    let make =
      if not adapt then make
      else
        let config =
          Adapt.validate_config
            {
              Adapt.default with
              Adapt.period;
              hi_pct;
              lo_pct;
              min_pct;
              max_pct;
              seed = adapt_seed;
            }
        in
        fun ~procs -> W.Methods.etree_pool_reactive ~config ~procs ()
    in
    (* Capture the pool the workload builds so the reactive state can be
       read back after the run. *)
    let captured = ref None in
    let make ~procs =
      let pool = make ~procs in
      captured := Some pool;
      pool
    in
    let p = W.Produce_consume.run ~seed ~horizon ~workload ~procs make in
    let pool = Option.get !captured in
    Printf.printf
      "%s procs=%d workload=%d: %d ops, %d ops/Mcycle, %.1f cycles/op, mem %s\n"
      pool.W.Pool_obj.name procs workload p.W.Produce_consume.ops
      p.W.Produce_consume.throughput_per_m p.W.Produce_consume.latency
      (W.Report.ops p.W.Produce_consume.mem);
    Option.iter
      (fun f ->
        Printf.printf "adapted spin:[widths] by depth: %s\n"
          (W.Adapt_sweep.format_adapt (f ())))
      pool.W.Pool_obj.adapt_by_level
  in
  Cmd.v
    (Cmd.info "pc" ~doc:"Produce-consume benchmark (Figures 7/8).")
    Term.(
      const run $ procs_t $ seed_t $ horizon_t $ workload_t $ pool_method_t
      $ adapt_t $ adapt_period_t $ adapt_hi_t $ adapt_lo_t $ adapt_min_pct_t
      $ adapt_max_pct_t $ adapt_seed_t)

(* count: counting benchmark *)
let count_cmd =
  let run procs seed horizon make =
    need_procs "count" procs;
    need_horizon "count" horizon;
    let p = W.Counting.run ~seed ~horizon ~procs make in
    Printf.printf "%s procs=%d: %d ops, %d ops/Mcycle, mem %s\n"
      (make ~procs).W.Pool_obj.cname procs p.W.Counting.ops
      p.W.Counting.throughput_per_m
      (W.Report.ops p.W.Counting.mem)
  in
  Cmd.v
    (Cmd.info "count" ~doc:"Counting benchmark (Figure 9).")
    Term.(const run $ procs_t $ seed_t $ horizon_t $ counter_method_t)

(* queens *)
let queens_cmd =
  let run procs seed make =
    need_procs "queens" procs;
    let p = W.Queens.run ~seed ~procs make in
    Printf.printf "%s procs=%d: %d tasks in %d cycles\n"
      (make ~procs).W.Pool_obj.name procs p.W.Queens.consumed
      p.W.Queens.elapsed
  in
  Cmd.v
    (Cmd.info "queens" ~doc:"10-queens job distribution (Figure 10 left).")
    Term.(const run $ procs_t $ seed_t $ pool_method_t)

(* response *)
let response_cmd =
  let total_t =
    Arg.(
      value & opt int W.Experiment.default.rt_total
      & info [ "total" ] ~doc:"Elements to hand off (paper: 2560).")
  in
  let run procs seed total make =
    if procs < 2 || procs mod 2 <> 0 then
      reject "response" "--procs must be even and at least 2, got %d" procs;
    if total < 1 then
      reject "response" "--total must be positive, got %d" total;
    let p = W.Response_time.run ~seed ~total ~procs make in
    Printf.printf "%s procs=%d: %d elements in %d cycles (%.1f normalized)\n"
      (make ~procs).W.Pool_obj.name procs p.W.Response_time.consumed
      p.W.Response_time.elapsed p.W.Response_time.normalized
  in
  Cmd.v
    (Cmd.info "response" ~doc:"Response-time benchmark (Figure 10 right).")
    Term.(const run $ procs_t $ seed_t $ total_t $ pool_method_t)

(* table1 *)
let table1_cmd =
  let run procs seed horizon =
    need_procs "table1" procs;
    need_horizon "table1" horizon;
    let r = W.Table1.run ~seed ~horizon ~procs () in
    Printf.printf "Etree-32, %d procs:\n" procs;
    List.iter
      (fun (row : W.Table1.level_row) ->
        Printf.printf "  level %d: %.1f%% eliminated\n" row.W.Table1.level
          (100.0 *. row.W.Table1.fraction))
      r.W.Table1.rows;
    Printf.printf "  expected nodes traversed: %.2f\n" r.W.Table1.expected_nodes;
    Printf.printf "  requests reaching leaves: %.1f%%\n"
      (100.0 *. r.W.Table1.leaf_fraction)
  in
  Cmd.v
    (Cmd.info "table1" ~doc:"Per-level elimination fractions (Table 1).")
    Term.(const run $ procs_t $ seed_t $ horizon_t)

(* chaos: robustness under deterministic fault plans (etrees.faults) *)
let chaos_cmd =
  let pair_conv what =
    let parse s =
      match Faults.Fault_plan.parse_pair s with
      | Ok p -> Ok p
      | Error e -> Error (`Msg (Printf.sprintf "%s: %s" what e))
    in
    Arg.conv
      ( parse,
        fun fmt (a, b) -> Format.fprintf fmt "%dx%d" a b )
  in
  let fault_seed_t =
    Arg.(
      value & opt int 7
      & info [ "fault-seed" ]
          ~doc:"Seed deriving fault placement (independent of --seed).")
  in
  let stall_t =
    Arg.(
      value
      & opt (some (pair_conv "--stall")) None
      & info [ "stall" ] ~docv:"NxCYCLES"
          ~doc:"Inject $(docv): N processor stalls of CYCLES cycles each.")
  in
  let crash_t =
    Arg.(
      value & opt int 0
      & info [ "crash" ] ~docv:"N" ~doc:"Crash-stop $(docv) processors.")
  in
  let hotspot_t =
    Arg.(
      value
      & opt (some (pair_conv "--hotspot")) None
      & info [ "hotspot" ] ~docv:"FACTORxDEN"
          ~doc:
            "Slow 1/DEN of all memory locations by FACTOR for the middle \
             half of the run.")
  in
  let jitter_t =
    Arg.(
      value & opt int 0
      & info [ "jitter" ] ~docv:"AMP"
          ~doc:"Lengthen local delays by a hash-derived amount in [0,AMP].")
  in
  let method_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "m"; "method" ]
          ~doc:
            (Printf.sprintf "Single pool method to test (default: %s)."
               (String.concat ", " W.Chaos.default_methods)))
  in
  let run procs seed horizon fault_seed stall crash hotspot jitter meth =
    need_procs "chaos" procs;
    need_horizon "chaos" horizon;
    (* A fault flag that would build no fault would run the ladder
       instead of the comparison it asks for. *)
    if crash < 0 then reject "chaos" "--crash must not be negative, got %d" crash;
    if jitter < 0 then
      reject "chaos" "--jitter must not be negative, got %d" jitter;
    if crash > 0 && procs < 2 then
      reject "chaos" "--crash needs two processors or more, got --procs %d"
        procs;
    let methods =
      match meth with
      | None -> W.Chaos.default_methods
      | Some m when List.mem_assoc m pool_methods -> [ m ]
      | Some m ->
          Printf.eprintf "unknown method %S (expected one of: %s)\n" m
            (String.concat ", " (List.map fst pool_methods));
          exit 2
    in
    let plan =
      Faults.Fault_plan.of_flags ~fault_seed ~procs ~horizon ~stall ~crash
        ~hotspot ~jitter
    in
    if Faults.Fault_plan.is_none plan then begin
      (* No fault flags: run the full degradation ladder. *)
      Printf.printf
        "chaos ladder: procs=%d seed=%d horizon=%d fault-seed=%d\n\n" procs
        seed horizon fault_seed;
      print_string
        (W.Chaos.format_ladder
           (W.Chaos.sweep ~seed ~fault_seed ~horizon ~methods ~procs ()))
    end
    else begin
      Printf.printf "chaos: procs=%d seed=%d horizon=%d\nplan: %s\n\n" procs
        seed horizon
        (Faults.Fault_plan.describe plan);
      List.iter
        (fun name ->
          let make = List.assoc name pool_methods in
          let base =
            W.Chaos.run ~seed ~horizon ~plan:Faults.Fault_plan.none ~procs
              make
          in
          let faulted = W.Chaos.run ~seed ~horizon ~plan ~procs make in
          let delta =
            if base.W.Chaos.throughput_per_m = 0 then 0.0
            else
              100.0
              *. float_of_int
                   (faulted.W.Chaos.throughput_per_m
                   - base.W.Chaos.throughput_per_m)
              /. float_of_int base.W.Chaos.throughput_per_m
          in
          Printf.printf "baseline %s\nfaulted  %s\ndegradation %+.1f%%\n\n"
            (W.Chaos.format_point base)
            (W.Chaos.format_point faulted)
            delta)
        methods
    end
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Robustness under deterministic fault plans (stalls, crashes, hot \
          spots, jitter); reports per-method degradation plus conservation \
          and termination-bound verdicts.  Without fault flags, runs the \
          fault-intensity ladder.")
    Term.(
      const run $ procs_t $ seed_t $ horizon_t $ fault_seed_t $ stall_t
      $ crash_t $ hotspot_t $ jitter_t $ method_t)

(* service: the sharded service frontend under closed-loop sessions
   (etrees.shard, docs/SHARDING.md) *)
let service_cmd =
  let shards_t =
    Arg.(
      value & opt int 8
      & info [ "shards" ] ~doc:"Independent elimination trees behind the hash.")
  in
  let sessions_t =
    Arg.(
      value & opt int 10_000
      & info [ "sessions" ]
          ~doc:"Client sessions (rounded to a multiple of --procs).")
  in
  let arrival_t =
    let regime_conv =
      let parse s =
        if List.mem s W.Arrivals.known_names then Ok s
        else
          Error
            (`Msg
              (Printf.sprintf "unknown arrival regime %S (expected one of: %s)"
                 s
                 (String.concat ", " W.Arrivals.known_names)))
      in
      Arg.conv (parse, fun fmt s -> Format.pp_print_string fmt s)
    in
    Arg.(
      value & opt regime_conv "poisson"
      & info [ "arrival" ]
          ~doc:
            (Printf.sprintf "Arrival regime: %s."
               (String.concat ", " W.Arrivals.known_names)))
  in
  let mean_gap_t =
    Arg.(
      value & opt int 800
      & info [ "mean-gap" ]
          ~doc:"Mean cycles between a worker's request arrivals.")
  in
  let width_t =
    Arg.(
      value & opt int 4
      & info [ "width" ] ~doc:"Per-shard elimination-tree width.")
  in
  let steal_t =
    Arg.(
      value & opt (some int) None
      & info [ "steal" ] ~docv:"N"
          ~doc:
            "Foreign shards probed when the home shard runs dry (default \
             shards - 1; 0 disables stealing).")
  in
  let adapt_t =
    Arg.(
      value & flag
      & info [ "adapt" ]
          ~doc:
            "Run each shard under the reactive controller \
             (docs/ADAPTIVE.md), reseeded per shard, instead of the static \
             tuning.")
  in
  let run procs seed shards sessions arrival mean_gap width steal adapt =
    need_procs "service" procs;
    if shards < 1 then
      reject "service" "--shards must be positive, got %d" shards;
    if not (Netverify.Ir.is_power_of_two width) then
      reject "service" "--width must be a power of two, got %d" width;
    if sessions < 1 then
      reject "service" "--sessions must be positive, got %d" sessions;
    if mean_gap < 1 then
      reject "service" "--mean-gap must be positive, got %d" mean_gap;
    Option.iter
      (fun n ->
        if n < 0 then reject "service" "--steal must not be negative, got %d" n)
      steal;
    let regime =
      match W.Arrivals.of_name arrival ~mean_gap with
      | Some r -> r
      | None -> assert false (* conv validated the name *)
    in
    let policy = if adapt then `Reactive Adapt.default else `Static in
    let p =
      W.Service.run ~seed ~procs ~width ~shards ?steal_probes:steal ~policy
        ~sessions ~regime ()
    in
    print_endline (W.Service.format_point p);
    Printf.printf
      "  completed %d/%d requests, end clock %d, empty homes %d\n"
      p.W.Service.completed p.W.Service.requests p.W.Service.end_clock
      p.W.Service.steal_empty_homes;
    Printf.printf "  residue by shard: [%s]\n"
      (String.concat "; "
         (List.map string_of_int p.W.Service.residue_by_shard))
  in
  Cmd.v
    (Cmd.info "service"
       ~doc:
         "Sharded service frontend (docs/SHARDING.md): closed-loop sessions \
          against N elimination trees behind a session hash, with overflow \
          stealing; reports SLO sojourn percentiles and the whole-frontend \
          conservation audit.")
    Term.(
      const run $ procs_t $ seed_t $ shards_t $ sessions_t $ arrival_t
      $ mean_gap_t $ width_t $ steal_t $ adapt_t)

(* trace: deterministic tracing, cycle attribution, Perfetto export
   (etrees.trace) *)
let trace_cmd =
  let level_conv =
    let parse s =
      match Etrace.Level.of_string s with
      | Some l -> Ok l
      | None ->
          Error
            (`Msg
              (Printf.sprintf "unknown trace level %S (expected one of: %s)" s
                 (String.concat ", "
                    (List.map Etrace.Level.to_string Etrace.Level.all))))
    in
    Arg.conv
      (parse, fun fmt l -> Format.pp_print_string fmt (Etrace.Level.to_string l))
  in
  let out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace-event JSON timeline to $(docv); load it in \
             ui.perfetto.dev or chrome://tracing.")
  in
  let level_t =
    Arg.(
      value
      & opt level_conv Etrace.Level.Events
      & info [ "trace-level" ] ~docv:"LEVEL"
          ~doc:
            "Detail rendered into the timeline: off, ops (processor/op \
             lifecycle), events (plus balancer traversal), full (plus raw \
             scheduler intervals).  Cycle attribution always sees the full \
             stream.")
  in
  let check_t =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Validate the written trace file (phases, timestamp presence, \
             per-track monotonicity); exit nonzero on failure.")
  in
  let workload_t =
    Arg.(
      value & opt int 0
      & info [ "w"; "workload" ] ~doc:"Max think time between operations.")
  in
  let run procs seed horizon workload make out level check =
    need_procs "trace" procs;
    need_horizon "trace" horizon;
    need_workload "trace" workload;
    let guard = output "trace" out in
    let chrome_level = match out with Some _ -> Some level | None -> None in
    let tr =
      W.Traced.run ?chrome_level ~procs (fun () ->
          W.Produce_consume.run ~seed ~horizon ~workload ~procs make)
    in
    let p = tr.W.Traced.value in
    let name = (make ~procs).W.Pool_obj.name in
    Printf.printf "%s procs=%d workload=%d: %d ops, %d ops/Mcycle\n\n" name
      procs workload p.W.Produce_consume.ops
      p.W.Produce_consume.throughput_per_m;
    let r =
      guard (fun () -> W.Traced.report ~name ~workload ?out ~validate:check tr)
    in
    print_string r.W.Traced.text;
    if r.W.Traced.failures <> [] then begin
      List.iter (Printf.eprintf "trace: %s\n") r.W.Traced.failures;
      exit 1
    end;
    match out with
    | Some file ->
        Printf.printf "wrote %s (level %s)\n" file
          (Etrace.Level.to_string level);
        Option.iter
          (fun (st : Etrace.Chrome.stats) ->
            Printf.printf "validated: %d events on %d tracks\n"
              st.Etrace.Chrome.events st.Etrace.Chrome.tracks)
          r.W.Traced.validated
    | None ->
        if check then begin
          Printf.eprintf "trace: --check requires --trace-out FILE\n";
          exit 2
        end
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run the produce-consume workload under the tracing sinks: print \
          the per-layer cycle-attribution table and optionally export a \
          Chrome/Perfetto timeline.")
    Term.(
      const run $ procs_t $ seed_t $ horizon_t $ workload_t $ pool_method_t
      $ out_t $ level_t $ check_t)

(* check: exhaustive-interleaving model checking (etrees.check). *)
let check_cmd =
  let module Ex = Check.Explore in
  let scenario_conv =
    let parse s =
      match Check.Scenario.find s with
      | Some sc -> Ok sc
      | None ->
          Error
            (`Msg
              (Printf.sprintf "unknown scenario %S (expected one of: %s)" s
                 (String.concat ", " Check.Scenario.names)))
    in
    Arg.conv (parse, fun fmt s -> Format.pp_print_string fmt s.Check.Scenario.name)
  in
  let scenario_t =
    Arg.(
      value
      & opt scenario_conv Check.Scenario.elim_pool
      & info [ "m"; "method" ]
          ~doc:
            (Printf.sprintf "Scenario: %s."
               (String.concat ", " Check.Scenario.names)))
  in
  let procs_t =
    Arg.(
      value & opt int 2
      & info [ "p"; "procs" ] ~doc:"Simulated processors (keep small: 2-3).")
  in
  let width_t =
    Arg.(
      value & opt int 2
      & info [ "width" ] ~doc:"Tree output wires (power of two).")
  in
  let ops_t =
    Arg.(
      value & opt int 1
      & info [ "ops" ] ~doc:"Operations per processor role.")
  in
  let max_interleavings_t =
    Arg.(
      value & opt int 200_000
      & info [ "max-interleavings" ]
          ~doc:"Exploration budget: executions before giving up.")
  in
  let max_steps_t =
    Arg.(
      value & opt int 20_000
      & info [ "max-steps" ] ~doc:"Shared-memory accesses per execution.")
  in
  let dpor_t =
    Arg.(
      value
      & opt (enum [ ("both", `Both); ("only", `Only); ("naive", `Naive) ]) `Both
      & info [ "dpor" ]
          ~doc:
            "$(b,both) explores with sleep-set DPOR, then re-explores \
             naively and prints both execution counts; $(b,only) / \
             $(b,naive) run a single mode.")
  in
  let expect_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "expect-violation" ]
          ~doc:
            (Printf.sprintf
               "Invert the exit status: succeed only if a violation of this \
                property is found: one of %s."
               (String.concat ", "
                  (List.map (Printf.sprintf "$(b,%s)")
                     Check.Monitor.properties))))
  in
  let schedule_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "schedule" ]
          ~doc:
            "Replay one schedule instead of exploring (run-length pid \
             string as printed in counterexamples, e.g. $(b,0x5,1x3)).")
  in
  let trace_out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ]
          ~doc:
            "Write a Chrome/Perfetto timeline of the minimized \
             counterexample replay (or of the replayed schedule).")
  in
  let run scenario procs width ops max_interleavings max_steps dpor expect
      schedule trace_out seed =
    (* Sizes are checked before anything is built: deadlock details
       print process-global location ids. *)
    if procs < 1 || procs > 62 then
      reject "check" "--procs must be between 1 and 62, got %d" procs;
    if not (Netverify.Ir.is_power_of_two width) then
      reject "check" "--width must be a power of two, got %d" width;
    if ops < 1 then reject "check" "--ops must be positive, got %d" ops;
    if max_steps < 1 then
      reject "check" "--max-steps must be positive, got %d" max_steps;
    if max_interleavings < 1 then
      reject "check" "--max-interleavings must be positive, got %d"
        max_interleavings;
    Option.iter
      (fun p ->
        if not (List.mem p Check.Monitor.properties) then
          reject "check" "--expect-violation %S names no property (one of: %s)"
            p
            (String.concat ", " Check.Monitor.properties))
      expect;
    let guard = output "check" trace_out in
    let program = scenario.Check.Scenario.make ~procs ~width ~ops in
    let traced_replay sched =
      match trace_out with
      | None -> Ex.replay ~seed ~max_steps program sched
      | Some file ->
          let c = Etrace.Chrome.create ~level:Etrace.Level.Events () in
          let r =
            Etrace.with_tracing
              (Etrace.Chrome.on_event c)
              (fun () -> Ex.replay ~seed ~max_steps program sched)
          in
          guard (fun () -> Etrace.Chrome.write ~file c);
          Printf.printf "wrote counterexample trace to %s\n" file;
          r
    in
    let finish_with_violation (v : Check.Monitor.violation) sched =
      Printf.printf "counterexample (%s): %s\n" v.property v.detail;
      Printf.printf "  schedule (%d steps, %d switches): %s\n"
        (Array.length sched) (Ex.switches sched) (Ex.format_schedule sched);
      let min_sched = Ex.minimize ~seed ~max_steps program v sched in
      Printf.printf "  minimized (%d steps, %d switches): %s\n"
        (Array.length min_sched) (Ex.switches min_sched)
        (Ex.format_schedule min_sched);
      Printf.printf
        "  replay: etrees_run check --method %s --procs %d --width %d --ops \
         %d --seed %d --schedule %s\n"
        scenario.Check.Scenario.name procs width ops seed
        (Ex.format_schedule min_sched);
      let (_ : Ex.run) = traced_replay min_sched in
      match expect with
      | Some p when p = v.property ->
          Printf.printf "expected violation of %s: found\n" p;
          exit 0
      | Some p ->
          Printf.eprintf
            "check: found a %s violation while expecting one of %s\n"
            v.property p;
          exit 1
      | None -> exit 1
    in
    match schedule with
    | Some s ->
        let sched =
          try Ex.parse_schedule s
          with _ ->
            Printf.eprintf "check: malformed schedule %S\n" s;
            exit 2
        in
        (* [Ex.replay] stands in the lowest enabled pid for a step it
           cannot replay (the minimizer relies on that); asked for one
           schedule, the CLI fails on the first such step instead. *)
        let no_replay step fmt =
          Printf.ksprintf
            (fun why ->
              Printf.eprintf "check: --schedule does not replay from step %d: %s\n"
                step why;
              exit 2)
            fmt
        in
        if String.trim s <> "" then
          ignore
            (List.fold_left
               (fun step seg ->
                 let a = Ex.parse_schedule seg in
                 if Array.length a = 0 then
                   no_replay step "segment %S is empty" (String.trim seg);
                 Array.iteri
                   (fun i p ->
                     if p < 0 || p >= procs then
                       no_replay (step + i) "p%d is not below --procs %d" p
                         procs)
                   a;
                 step + Array.length a)
               1
               (String.split_on_char ',' s));
        let r = traced_replay sched in
        Array.iteri
          (fun i p ->
            if i >= Array.length r.schedule then
              no_replay (i + 1) "it names p%d, the run ended after %d steps" p
                (Array.length r.schedule)
            else if r.schedule.(i) <> p then
              no_replay (i + 1) "it names p%d, the run fired p%d" p
                r.schedule.(i))
          sched;
        Printf.printf "replayed %d steps: %s\n"
          (Array.length r.schedule)
          (Ex.format_schedule r.schedule);
        (match r.violations with
        | [] ->
            Printf.printf "no violation\n";
            if expect = None then exit 0
            else begin
              Printf.eprintf "check: expected violation not reproduced\n";
              exit 1
            end
        | v :: _ ->
            Printf.printf "violation (%s): %s\n" v.Check.Monitor.property
              v.Check.Monitor.detail;
            (match expect with
            | Some p when p = v.Check.Monitor.property -> exit 0
            | Some p ->
                Printf.eprintf "check: found %s, expected %s\n"
                  v.Check.Monitor.property p;
                exit 1
            | None -> exit 1))
    | None ->
        let summary label (o : Ex.outcome) =
          Printf.printf
            "%s: %s%d executions (%d complete, %d deadlocked, %d \
             sleep-set-pruned, %d over step budget), max depth %d\n"
            label
            (if o.Ex.capped then ">= " else "")
            o.Ex.runs o.Ex.complete o.Ex.deadlocks o.Ex.sleep_blocked
            o.Ex.budget_hits o.Ex.max_depth;
          o
        in
        Printf.printf "check %s: procs=%d width=%d ops=%d\n"
          scenario.Check.Scenario.name procs width ops;
        let explore ~dpor =
          Ex.explore ~dpor ~max_interleavings ~max_steps ~seed program
        in
        let first =
          summary
            (if dpor = `Naive then "naive" else "dpor")
            (explore ~dpor:(dpor <> `Naive))
        in
        (match first.Ex.counterexample with
        | Some (v, r) -> finish_with_violation v r.Ex.schedule
        | None ->
            (* The naive pass is informational — a schedule count to set
               the DPOR reduction against; the verification verdict is
               the first (DPOR) pass's, unless naive stumbles on a
               violation the DPOR budget hid. *)
            (if dpor = `Both then
               let o = summary "naive" (explore ~dpor:false) in
               match o.Ex.counterexample with
               | Some (v, r) -> finish_with_violation v r.Ex.schedule
               | None ->
                   (* Counts of cut-off executions, or a DPOR count that
                      stops at the cap, say nothing about the reduction.
                      A capped naive count is still a lower bound. *)
                   if first.Ex.budget_hits > 0 || o.Ex.budget_hits > 0 then
                     Printf.printf
                       "reduction: no ratio, %d DPOR and %d naive executions \
                        hit the step budget (--max-steps %d)\n"
                       first.Ex.budget_hits o.Ex.budget_hits max_steps
                   else if first.Ex.capped then
                     Printf.printf
                       "reduction: no ratio, the DPOR pass stopped at the \
                        interleaving budget (--max-interleavings %d)\n"
                       max_interleavings
                   else begin
                     Printf.printf
                       "reduction: DPOR explored %d executions vs %s%d naive \
                        (%s%.1fx)\n"
                       first.Ex.runs
                       (if o.Ex.capped then ">= " else "")
                       o.Ex.runs
                       (if o.Ex.capped then ">= " else "")
                       (float_of_int o.Ex.runs
                       /. float_of_int (max 1 first.Ex.runs));
                     if first.Ex.runs >= o.Ex.runs && not o.Ex.capped then
                       Printf.printf
                         "warning: DPOR did not reduce the execution count\n"
                   end);
            (* A search that did not cover its space is inconclusive,
               whether or not a violation was expected. *)
            if first.Ex.capped then
              Printf.printf
                "inconclusive: interleaving budget exhausted before the \
                 space was covered\n";
            if first.Ex.budget_hits > 0 then
              Printf.printf
                "inconclusive: %d of %d executions hit the step budget \
                 (--max-steps %d)\n"
                first.Ex.budget_hits first.Ex.runs max_steps;
            if first.Ex.capped || first.Ex.budget_hits > 0 then exit 3;
            match expect with
            | Some p ->
                Printf.eprintf "check: expected violation of %s not found\n" p;
                exit 1
            | None ->
                Printf.printf
                  "verified: no violation in the full interleaving space\n";
                exit 0)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Exhaustively model-check a scenario over every interleaving of \
          its shared-memory accesses (sleep-set DPOR), verifying \
          conservation, the balancer step property, quiescent consistency \
          and deadlock-freedom; print a minimized replayable schedule on \
          violation.")
    Term.(
      const run $ scenario_t $ procs_t $ width_t $ ops_t
      $ max_interleavings_t $ max_steps_t $ dpor_t $ expect_t $ schedule_t
      $ trace_out_t $ seed_t)

(* netverify: static certification of every shipped network shape
   (docs/NETVERIFY.md). *)
let netverify_cmd =
  let module NB = Check.Netverify_bridge in
  let module Certify = Netverify.Certify in
  let list_t =
    Arg.(
      value & flag
      & info [ "list" ] ~doc:"List the shipped shapes and exit.")
  in
  let shape_t =
    Arg.(
      value & opt_all string []
      & info [ "shape" ]
          ~doc:"Certify only this shape (repeatable; see $(b,--list)).")
  in
  let seeded_t =
    Arg.(
      value & flag
      & info [ "seeded-defect" ]
          ~doc:
            "Teeth check: certify the deliberately broken tree (the \
             skip-toggle-on-miss defect of the tree_buggy model-checking \
             scenario), succeed only if the certifier rejects it with a \
             counterexample that the model checker's replay reproduces.")
  in
  let verbose_t =
    Arg.(
      value & flag
      & info [ "v"; "verbose" ]
          ~doc:"Print the full pass-by-pass report for every shape.")
  in
  let cex_out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "counterexample-out" ]
          ~doc:
            "Write the reports of rejected shapes (with replay commands \
             where available) to this file.")
  in
  let run list shapes seeded verbose cex_out =
    if list then begin
      List.iter print_endline NB.names;
      exit 0
    end;
    let guard = output "netverify" cex_out in
    let out = Buffer.create 256 in
    let finish code =
      (match cex_out with
      | Some file when Buffer.length out > 0 ->
          guard (fun () ->
              Out_channel.with_open_text file (fun oc ->
                  Out_channel.output_string oc (Buffer.contents out);
                  Out_channel.flush oc));
          Printf.printf "wrote counterexample report to %s\n" file
      | _ -> ());
      exit code
    in
    if seeded then begin
      let net = NB.seeded_defect () in
      let report = Certify.verify net in
      print_string (Certify.format_report report);
      let cex =
        List.find_map
          (fun (f : Certify.failure) ->
            if f.pass = "step-certify" then f.cex else None)
          report.failures
      in
      match cex with
      | None ->
          Printf.eprintf
            "netverify: seeded defect NOT detected — the gate has no teeth\n";
          finish 1
      | Some cex -> begin
          let cmd = NB.replay_command ~width:NB.seeded_defect_width cex in
          Printf.printf "  replay: %s\n" cmd;
          Buffer.add_string out (Certify.format_report report);
          Buffer.add_string out (Printf.sprintf "  replay: %s\n" cmd);
          match NB.confirm_replay ~width:NB.seeded_defect_width cex with
          | Some v ->
              Printf.printf
                "  replay confirmed dynamically (%s): %s\n" v.Check.Monitor.property
                v.Check.Monitor.detail;
              Printf.printf
                "seeded defect detected statically and confirmed by replay\n";
              finish 0
          | None ->
              Printf.eprintf
                "netverify: static counterexample not reproduced by replay\n";
              finish 1
        end
    end
    else begin
      let selected =
        match shapes with
        | [] -> NB.shapes
        | names ->
            List.map
              (fun n ->
                match NB.find n with
                | Some s -> s
                | None ->
                    Printf.eprintf
                      "netverify: unknown shape %S (try --list)\n" n;
                    exit 2)
              names
      in
      let failed =
        List.filter
          (fun (s : NB.shape) ->
            let report = Certify.verify (s.build ()) in
            if Certify.ok report then begin
              if verbose then print_string (Certify.format_report report)
              else
                Printf.printf "ok %s: %d passes\n" s.shape_name
                  (List.length report.passed);
              false
            end
            else begin
              print_string (Certify.format_report report);
              Buffer.add_string out (Certify.format_report report);
              true
            end)
          selected
      in
      if failed = [] then begin
        Printf.printf "netverify: %d shape(s) certified\n" (List.length selected);
        finish 0
      end
      else begin
        Printf.eprintf "netverify: %d of %d shape(s) rejected\n"
          (List.length failed) (List.length selected);
        finish 1
      end
    end
  in
  Cmd.v
    (Cmd.info "netverify"
       ~doc:
         "Statically certify every shipped network shape over the wiring \
          IR: well-formedness, conservation accounting, depth bounds, \
          output numbering, and the quiescent step property by exhaustive \
          toggle-state enumeration; counterexamples replay through \
          $(b,etrees_run check).")
    Term.(const run $ list_t $ shape_t $ seeded_t $ verbose_t $ cex_out_t)

(* perf: the benchmark trajectory database (lib/benchdb,
   docs/BENCHDB.md).  `append` folds fresh BENCH_<exp>.json reports
   into bench/db/<exp>.jsonl; `check` is the CI regression gate;
   `page` and `baseline` render the committed history. *)
let perf_cmd =
  let module Db = Benchdb.Db in
  let module Gate = Benchdb.Gate in
  let db_t =
    Arg.(
      value & opt string "bench/db"
      & info [ "db" ] ~docv:"DIR"
          ~doc:"Database directory: one JSONL file per experiment.")
  in
  let bench_dir_t =
    Arg.(
      value & opt string "."
      & info [ "bench-dir" ] ~docv:"DIR"
          ~doc:"Directory holding fresh $(b,BENCH_<exp>.json) reports.")
  in
  let exp_t =
    Arg.(
      value & opt_all string []
      & info [ "e"; "exp" ] ~docv:"EXP"
          ~doc:
            (Printf.sprintf "Experiment (repeatable; default: %s)."
               (String.concat ", " W.Experiment.tracked)))
  in
  let pick_exps = function [] -> W.Experiment.tracked | exps -> exps in
  let load_report ~bench_dir exp =
    let file = Filename.concat bench_dir (Printf.sprintf "BENCH_%s.json" exp) in
    match Etrace.Json.parse_file file with
    | Error e -> Error (Printf.sprintf "%s: %s" file e)
    | Ok v ->
        Result.map_error
          (fun e -> Printf.sprintf "%s: %s" file e)
          (Db.of_bench_json ~exp v)
  in
  let load_db ~db exp =
    match Db.load ~db_dir:db exp with
    | Ok runs -> runs
    | Error e ->
        Printf.eprintf "perf: %s\n" e;
        exit 2
  in
  let append_cmd =
    let reference_t =
      Arg.(
        value & flag
        & info [ "reference" ]
            ~doc:
              "Mark the appended rows as the gate's reference entries \
               (refreshing the committed baseline).")
    in
    let run db bench_dir exps reference =
      List.iter
        (fun exp ->
          match load_report ~bench_dir exp with
          | Error e ->
              Printf.eprintf "perf append: %s\n" e;
              exit 2
          | Ok r ->
              let r = { r with Db.reference } in
              Db.append ~db_dir:db r;
              Printf.printf "appended %s (%s, %d points)%s -> %s\n" exp
                (Db.label r) r.Db.points
                (if reference then " [reference]" else "")
                (Db.path ~db_dir:db exp))
        (pick_exps exps)
    in
    Cmd.v
      (Cmd.info "append"
         ~doc:
           "Fold fresh $(b,BENCH_<exp>.json) reports into the append-only \
            database (one JSONL row per run, newest last).")
      Term.(const run $ db_t $ bench_dir_t $ exp_t $ reference_t)
  in
  let check_cmd =
    let tight_t =
      Arg.(
        value & opt float Gate.default_tight_pct
        & info [ "threshold-pct" ] ~docv:"PCT"
            ~doc:
              "Tight tolerance for the deterministic metrics (events, \
               reads/writes/rmws, points, minor words/event).")
    in
    let loose_t =
      Arg.(
        value & opt float Gate.default_loose_pct
        & info [ "loose-pct" ] ~docv:"PCT"
            ~doc:"Loose tolerance for host-dependent events/sec.")
    in
    let run db bench_dir exps tight_pct loose_pct =
      let verdicts =
        List.map
          (fun exp ->
            match load_report ~bench_dir exp with
            | Error e ->
                Printf.eprintf "perf check: %s\n" e;
                exit 2
            | Ok current ->
                let reference = Db.reference (load_db ~db exp) in
                let v =
                  Gate.check ~tight_pct ~loose_pct ~reference ~current ()
                in
                print_string (Gate.format ~exp ~tight_pct ~loose_pct v);
                v)
          (pick_exps exps)
      in
      exit (Gate.combined_exit_code verdicts)
    in
    Cmd.v
      (Cmd.info "check"
         ~doc:
           "Regression gate: compare fresh $(b,BENCH_<exp>.json) reports \
            against the database's reference entries.  Exits 0 on pass, 1 \
            on regression, 3 when an experiment has no baseline yet.")
      Term.(const run $ db_t $ bench_dir_t $ exp_t $ tight_t $ loose_t)
  in
  (* Provenance stamp for the rendered page, from the same probe the
     meta blocks use. *)
  let stamp () =
    let m = W.Report.Meta.stop (W.Report.Meta.start ()) ~experiment:"" ~seed:0 in
    Printf.sprintf "%s @ %s%s" m.W.Report.Meta.date m.W.Report.Meta.commit
      (if m.W.Report.Meta.dirty then "+" else "")
  in
  let page_cmd =
    let out_t =
      Arg.(
        value & opt string "trends.html"
        & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output HTML file.")
    in
    let run db exps out =
      let guard = output "perf page" (Some out) in
      let sections =
        List.map (fun exp -> (exp, load_db ~db exp)) (pick_exps exps)
      in
      guard (fun () ->
          Benchdb.Page.write ~file:out ~generated:(stamp ()) sections);
      Printf.printf "wrote %s (%d experiments)\n" out (List.length sections)
    in
    Cmd.v
      (Cmd.info "page"
         ~doc:
           "Render the database as a self-contained HTML trend page: SVG \
            sparklines per metric per experiment plus a latest-vs-baseline \
            delta table.  No scripts, no external assets.")
      Term.(const run $ db_t $ exp_t $ out_t)
  in
  let baseline_cmd =
    let out_t =
      Arg.(
        value & opt string "BENCH_BASELINE.md"
        & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output markdown file.")
    in
    let run db exps out =
      let guard = output "perf baseline" (Some out) in
      let sections =
        List.map (fun exp -> (exp, load_db ~db exp)) (pick_exps exps)
      in
      guard (fun () -> Benchdb.Baseline.write ~file:out ~db_dir:db sections);
      Printf.printf "wrote %s (%d experiments)\n" out (List.length sections)
    in
    Cmd.v
      (Cmd.info "baseline"
         ~doc:
           "Regenerate $(b,BENCH_BASELINE.md) from the database's reference \
            entries, so the committed baseline is the gate's baseline.")
      Term.(const run $ db_t $ exp_t $ out_t)
  in
  Cmd.group
    (Cmd.info "perf"
       ~doc:
         "The benchmark trajectory database (docs/BENCHDB.md): append runs, \
          gate regressions, render trends and the committed baseline.")
    [ append_cmd; check_cmd; page_cmd; baseline_cmd ]

let () =
  let doc = "Elimination-tree experiments on the multiprocessor simulator." in
  let info = Cmd.info "etrees_run" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            pc_cmd;
            count_cmd;
            queens_cmd;
            response_cmd;
            table1_cmd;
            chaos_cmd;
            service_cmd;
            trace_cmd;
            check_cmd;
            netverify_cmd;
            perf_cmd;
          ]))

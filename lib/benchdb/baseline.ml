(* BENCH_BASELINE.md, generated (fullofcaffeine/hxhx's HXHX_BASELINE.md
   shape: absolute date, commit SHA, toolchain, the numbers): rendered
   from the database's reference entries so the committed baseline can
   never drift from what the gate actually compares against. *)

let fmt_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.4g" v

let metric_cell r name =
  match Db.metric r name with None -> "n/a" | Some v -> fmt_float v

let row (exp, runs) =
  match Db.reference runs with
  | None -> Printf.sprintf "| %s | _no reference entry_ | | | | | | | |" exp
  | Some r ->
      Printf.sprintf "| %s | %s | %s | %d | %s | %s/%s/%s | %s | %s | %s |"
        exp (Db.label r)
        (Option.value ~default:"n/a" (Db.str_field r "toolchain"))
        r.Db.points (metric_cell r "events") (metric_cell r "reads")
        (metric_cell r "writes") (metric_cell r "rmws")
        (metric_cell r "minor_words_per_event")
        (metric_cell r "cpu_s")
        (metric_cell r "events_per_sec")

let render ?(db_dir = "bench/db") experiments =
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "# BENCH_BASELINE — committed performance baseline (generated)\n\n";
  add
    "Generated by `dune exec bin/etrees_run.exe -- perf baseline` from the\n\
     reference entries of `%s/*.jsonl` — do not edit by hand; regenerate\n\
     after refreshing a reference (docs/BENCHDB.md).  One row per tracked\n\
     experiment, at the `--quick` scale the CI gate (`dune build @perf`)\n\
     runs: the deterministic columns (points, events, reads/writes/rmws,\n\
     minor words per event) are what `etrees_run perf check` holds the\n\
     tight threshold against; host CPU seconds and events/sec are\n\
     one-machine advisory references gated only loosely.\n\n"
    db_dir;
  add
    "| experiment | reference run | toolchain | points | events | \
     r/w/rmw | minor words/event | host cpu (s) | events/sec |\n";
  add "|---|---|---|---:|---:|---:|---:|---:|---:|\n";
  List.iter (fun e -> add "%s\n" (row e)) experiments;
  add
    "\nRefresh procedure (after an intentional perf-affecting change):\n\n\
     ```\n\
     dune exec bench/main.exe -- --quick --json tracked\n\
     dune exec bin/etrees_run.exe -- perf append --reference\n\
     dune exec bin/etrees_run.exe -- perf baseline --out BENCH_BASELINE.md\n\
     ```\n\n\
     then commit the updated `%s/*.jsonl` and this file together with\n\
     the change that moved the numbers.\n"
    db_dir;
  Buffer.contents buf

let write ~file ?db_dir experiments =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (render ?db_dir experiments))

(* Plain-text table formatting for the benchmark harness: one column of
   processor counts, one column per method. *)

let hrule widths =
  String.concat "-+-" (List.map (fun w -> String.make w '-') widths)

let fit w s =
  let n = String.length s in
  if n >= w then s else String.make (w - n) ' ' ^ s

(* [table ~title ~row_label labels rows] where each row is
   (label, cell list); cells are preformatted strings. *)
let table ~title ~row_label ~columns rows =
  let col_width =
    List.fold_left (fun acc c -> max acc (String.length c)) 10 columns
  in
  let label_width =
    List.fold_left
      (fun acc (l, _) -> max acc (String.length l))
      (String.length row_label)
      rows
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "%s\n" title);
  let widths = label_width :: List.map (fun _ -> col_width) columns in
  Buffer.add_string buf
    (String.concat " | "
       (fit label_width row_label :: List.map (fit col_width) columns));
  Buffer.add_char buf '\n';
  Buffer.add_string buf (hrule widths);
  Buffer.add_char buf '\n';
  List.iter
    (fun (label, cells) ->
      Buffer.add_string buf
        (String.concat " | "
           (fit label_width label :: List.map (fit col_width) cells));
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

(* One-line summary of the engine-level operation counters carried in a
   run's [Sim.stats]: reads / writes / read-modify-writes issued. *)
let ops (s : Sim.stats) =
  Printf.sprintf "%dr/%dw/%drmw" s.Sim.reads s.Sim.writes s.Sim.rmws

(* A latency-distribution cell: median with the tail behind it. *)
let latency_cell (h : Etrace.Histogram.summary) =
  Printf.sprintf "%d/%d/%d" h.Etrace.Histogram.p50 h.Etrace.Histogram.p90
    h.Etrace.Histogram.p99

let float1 x = Printf.sprintf "%.1f" x
let float2 x = Printf.sprintf "%.2f" x
let percent x = Printf.sprintf "%.1f%%" (100.0 *. x)
let int_ x = string_of_int x

(* ------------------------------------------------------------------ *)
(* Minimal JSON emitter (no JSON library in the image)                 *)
(* ------------------------------------------------------------------ *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec add_json buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      (* Infinities and NaN are not JSON numbers. *)
      if Float.is_finite f then
        Buffer.add_string buf (Printf.sprintf "%.6g" f)
      else Buffer.add_string buf "null"
  | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape_string s);
      Buffer.add_char buf '"'
  | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ", ";
          add_json buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ", ";
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape_string k);
          Buffer.add_string buf "\": ";
          add_json buf v)
        fields;
      Buffer.add_char buf '}'

let json_to_string j =
  let buf = Buffer.create 1024 in
  add_json buf j;
  Buffer.contents buf

let opt f = function None -> Null | Some v -> f v

(* ------------------------------------------------------------------ *)
(* Trace-derived reporting                                             *)
(* ------------------------------------------------------------------ *)

let histogram_json (h : Etrace.Histogram.summary) =
  Obj
    [
      ("count", Int h.Etrace.Histogram.count);
      ("mean", Float h.Etrace.Histogram.mean);
      ("p50", Int h.Etrace.Histogram.p50);
      ("p90", Int h.Etrace.Histogram.p90);
      ("p99", Int h.Etrace.Histogram.p99);
      ("min", Int h.Etrace.Histogram.min);
      ("max", Int h.Etrace.Histogram.max);
    ]

(* The flamegraph-style cycle-attribution table: one row per tree
   layer (plus the outside-the-tree pseudo-layer and a total row), one
   column per category, each cell showing the share of total simulated
   cycles spent there. *)
let attribution_table ~title (s : Etrace.Attribution.summary) =
  let module A = Etrace.Attribution in
  let share c = 100.0 *. float_of_int c /. float_of_int (max 1 s.A.total_cycles) in
  let cell c = Printf.sprintf "%.1f%%" (share c) in
  let row (r : A.row) =
    let label =
      if r.A.depth < 0 then "outside"
      else Printf.sprintf "layer %d" r.A.depth
    in
    let cells = Array.to_list (Array.map cell r.A.cycles) in
    (label, cells @ [ cell (A.row_total r) ])
  in
  let total_row =
    let by_cat = List.map (fun (_, c) -> cell c) s.A.by_category in
    ("all", by_cat @ [ cell s.A.attributed_cycles ])
  in
  let columns = List.map A.category_name A.categories @ [ "total" ] in
  let header =
    Printf.sprintf "%s
total %d simulated cycles over %d procs (%d attributed)"
      title s.A.total_cycles s.A.procs s.A.attributed_cycles
  in
  table ~title:header ~row_label:"where" ~columns
    (List.map row s.A.by_layer @ [ total_row ])

let attribution_json (s : Etrace.Attribution.summary) =
  let module A = Etrace.Attribution in
  let cats (cycles : int array) =
    List.map
      (fun cat -> (A.category_name cat, Int cycles.(A.cat_index cat)))
      A.categories
  in
  Obj
    [
      ("procs", Int s.A.procs);
      ("total_cycles", Int s.A.total_cycles);
      ("attributed_cycles", Int s.A.attributed_cycles);
      ( "by_category",
        Obj (List.map (fun (cat, c) -> (A.category_name cat, Int c)) s.A.by_category) );
      ( "by_layer",
        Arr
          (List.map
             (fun (r : A.row) ->
               Obj (("depth", Int r.A.depth) :: cats r.A.cycles))
             s.A.by_layer) );
      ( "balancers",
        Arr
          (List.map
             (fun (r : A.row) ->
               Obj
                 (("depth", Int r.A.depth)
                 :: ("balancer", Int r.A.balancer)
                 :: cats r.A.cycles))
             s.A.rows) );
    ]

let write_json ~file j =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (json_to_string j);
      output_char oc '\n')

let mem_fields (s : Sim.stats) =
  [
    ("reads", Int s.Sim.reads);
    ("writes", Int s.Sim.writes);
    ("rmws", Int s.Sim.rmws);
    ("events", Int s.Sim.events_fired);
    ("end_clock", Int s.Sim.end_clock);
    ("crashed_procs", Int s.Sim.crashed_procs);
    ("fault_defers", Int s.Sim.fault_defers);
    ("queue_wait_cycles", Int s.Sim.queue_wait_cycles);
  ]

(* ------------------------------------------------------------------ *)
(* Meta: the per-run provenance + cost probe (docs/BENCHDB.md)         *)
(* ------------------------------------------------------------------ *)

module Meta = struct
  (* One snapshot pair around a benchmark run, turned into the "meta"
     block of BENCH_<exp>.json and the "# host:" stdout line — the same
     record feeds both, so they can never disagree.  The deterministic
     columns (events, reads/writes/rmws, minor words per event) are
     what the perf-regression gate (lib/benchdb) compares; wall-clock
     derived columns (cpu_s, events_per_sec) are recorded but noisy. *)

  (* First line of a command's stdout, via the stdlib only (the image
     carries no process library below bin/).  Failure is data here:
     provenance degrades to "unknown", never to an exception. *)
  let command_line cmd =
    let tmp = Filename.temp_file "etrees_meta" ".txt" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
      (fun () ->
        let status =
          try Sys.command (Printf.sprintf "%s > %s 2> /dev/null" cmd tmp)
          with Sys_error _ -> 127
        in
        if status <> 0 then None
        else
          match In_channel.with_open_text tmp In_channel.input_line with
          | Some "" | None -> None
          | some -> some
          | exception Sys_error _ -> None)

  let commit_info =
    lazy
      (match command_line "git rev-parse --short HEAD" with
      | None -> ("unknown", false)
      | Some sha ->
          (sha, command_line "git status --porcelain --untracked-files=no"
                <> None))

  let date =
    lazy
      (match command_line "date -u +%Y-%m-%d" with
      | Some d -> d
      | None -> "unknown")

  let toolchain =
    Printf.sprintf "ocaml-%s/%d-bit" Sys.ocaml_version Sys.word_size

  type t = {
    experiment : string;
    seed : int;
    date : string;
    commit : string;
    dirty : bool;
    toolchain : string;
    events : int;
    reads : int;
    writes : int;
    rmws : int;
    cpu_s : float;
    minor_words : float;
    major_words : float;
    major_collections : int;
    events_per_sec : float;
    minor_words_per_event : float;
  }

  (* [Gc.minor_words] counts up to the call, where [Gc.quick_stat]'s
     count stops at the last minor collection, so runs that allocate
     the same read the same.  Both ends read it before the probe's own
     allocations. *)
  type probe = {
    p_minor : float;
    p_cpu : float;
    p_gc : Gc.stat;
    p_totals : Sim.totals;
  }

  let start () =
    let p_minor = Gc.minor_words () in
    let p_cpu = Sys.time () in
    { p_minor; p_cpu; p_gc = Gc.quick_stat (); p_totals = Sim.totals () }

  let stop probe ~experiment ~seed =
    let minor_words = Gc.minor_words () -. probe.p_minor in
    let gc = Gc.quick_stat () and totals = Sim.totals () in
    let events = totals.Sim.t_events - probe.p_totals.Sim.t_events in
    let cpu_s = Sys.time () -. probe.p_cpu in
    let commit, dirty = Lazy.force commit_info in
    {
      experiment;
      seed;
      date = Lazy.force date;
      commit;
      dirty;
      toolchain;
      events;
      reads = totals.Sim.t_reads - probe.p_totals.Sim.t_reads;
      writes = totals.Sim.t_writes - probe.p_totals.Sim.t_writes;
      rmws = totals.Sim.t_rmws - probe.p_totals.Sim.t_rmws;
      cpu_s;
      minor_words;
      major_words = gc.Gc.major_words -. probe.p_gc.Gc.major_words;
      major_collections =
        gc.Gc.major_collections - probe.p_gc.Gc.major_collections;
      events_per_sec =
        (if cpu_s > 0.0 then float_of_int events /. cpu_s else 0.0);
      minor_words_per_event =
        (if events > 0 then minor_words /. float_of_int events else 0.0);
    }

  let json m =
    Obj
      [
        ("experiment", Str m.experiment);
        ("seed", Int m.seed);
        ("date", Str m.date);
        ("commit", Str m.commit);
        ("dirty", Bool m.dirty);
        ("toolchain", Str m.toolchain);
        ("events", Int m.events);
        ("reads", Int m.reads);
        ("writes", Int m.writes);
        ("rmws", Int m.rmws);
        ("cpu_s", Float m.cpu_s);
        ("minor_words", Float m.minor_words);
        ("major_words", Float m.major_words);
        ("major_collections", Int m.major_collections);
        ("events_per_sec", Float m.events_per_sec);
        ("minor_words_per_event", Float m.minor_words_per_event);
      ]

  let host_line m =
    Printf.sprintf
      "host %s: %.1fs cpu, %d events (%.2fM events/s), %d ops \
       (%dr/%dw/%drmw), %.1f minor words/event, %.2e major words, %d major \
       gcs"
      m.experiment m.cpu_s m.events
      (m.events_per_sec /. 1e6)
      (m.reads + m.writes + m.rmws)
      m.reads m.writes m.rmws m.minor_words_per_event m.major_words
      m.major_collections
end

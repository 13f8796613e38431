(* Tests for etrees.analysis: the static effect-discipline lint (golden
   fixture, allowlist semantics) and the dynamic race detector (seeded
   raw writes, strict-read promotion, clean-structure audits over the
   paper's data structures). *)

module E = Sim.Engine
module M = Sim.Memory
module Rd = Analysis.Race_detector
module Lint = Analysis.Lint_rules
module Ac = Analysis.Allocheck
module Pool = Core.Elim_pool.Make (E)
module Stack = Core.Elim_stack.Make (E)
module Idc = Core.Inc_dec_counter.Make (E)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let run ?seed ~procs body =
  let stats = Sim.run ?seed ~procs ~abort_after:100_000_000 body in
  check_int "no simulated processor was cut off" 0 stats.Sim.aborted_procs;
  stats

let kinds (report : Rd.report) = List.map (fun r -> r.Rd.kind) report.Rd.races

let no_races name (report : Rd.report) =
  if report.Rd.races <> [] then
    Alcotest.failf "%s: unexpected races:\n%s" name (Rd.format_report report)

(* ------------------------------------------------------------------ *)
(* Race detector: seeded violations                                    *)
(* ------------------------------------------------------------------ *)

let test_raw_write_seen_by_readers () =
  (* A deliberately racy module: processor 0 bumps the shared cell with
     a raw [c.v <- ...] while the others read it through the engine.
     The readers' shadow checks must flag the bypass. *)
  let (), report =
    Rd.run (fun () ->
        let c = M.cell 0 in
        ignore
          (run ~procs:4 (fun p ->
               for _ = 1 to 10 do
                 if p = 0 then c.M.v <- c.M.v + 1 (* raw: no E.set *)
                 else ignore (E.get c);
                 E.delay 3
               done)))
  in
  check_bool "raw write detected" true (List.mem Rd.Raw_write (kinds report));
  check_bool "reads were audited" true (report.Rd.reads_checked > 0)

let test_raw_write_seen_at_commit () =
  (* The commit-side check: a raw mutation followed by an engine write
     on the same cell is caught when the engine write commits, even
     with no concurrent reader. *)
  let (), report =
    Rd.run (fun () ->
        ignore
          (run ~procs:1 (fun _ ->
               let c = M.cell 0 in
               ignore (E.get c);
               c.M.v <- 41;
               E.set c 42)))
  in
  check_bool "raw write detected at commit" true
    (List.mem Rd.Raw_write (kinds report))

let test_raw_write_to_lazy_slot () =
  (* A slot of a [cells] block is built on its first touch; a raw write
     to it afterwards is caught like one to an eager cell. *)
  let (), report =
    Rd.run (fun () ->
        let ring = E.cells 4096 0 in
        ignore
          (run ~procs:2 (fun p ->
               let c = E.cells_get ring 1000 in
               for _ = 1 to 10 do
                 if p = 0 then c.M.v <- c.M.v + 1 (* raw: no E.set *)
                 else ignore (E.get c);
                 E.delay 3
               done)))
  in
  check_bool "raw write to a lazy slot detected" true
    (List.mem Rd.Raw_write (kinds report))

let test_raw_write_dedup_per_location () =
  (* Many raw writes to one location produce one deduplicated race. *)
  let (), report =
    Rd.run (fun () ->
        let c = M.cell 0 in
        ignore
          (run ~procs:2 (fun p ->
               for _ = 1 to 20 do
                 if p = 0 then c.M.v <- c.M.v + 1 else ignore (E.get c);
                 E.delay 2
               done)))
  in
  check_int "one race per dirty location"
    1
    (List.length (List.filter (fun k -> k = Rd.Raw_write) (kinds report)))

let test_strict_reads_promotion () =
  (* Unserialized reads landing inside another processor's in-flight
     write window are benign under the cached-read model: counted as
     diagnostics by default, promoted to races only under
     [~strict_reads:true]. *)
  let racy () =
    let c = M.cell 0 in
    ignore
      (run ~procs:2 (fun p ->
           for i = 1 to 5 do
             if p = 0 then E.set c i else ignore (E.get c)
           done))
  in
  let (), relaxed = Rd.run racy in
  no_races "relaxed mode" relaxed;
  check_bool "overlaps counted" true (relaxed.Rd.overlapping_reads > 0);
  let (), strict = Rd.run ~strict_reads:true racy in
  check_bool "strict mode promotes overlaps" true
    (List.mem Rd.Read_write_overlap (kinds strict))

let test_nested_runs_restore_tracer () =
  let (), inner = Rd.run (fun () -> ignore (run ~procs:1 (fun _ -> ()))) in
  no_races "inner" inner;
  check_bool "tracer uninstalled after run" true (!M.tracer = None)

(* The count-only [on_reads] call against the [on_read] calls it
   stands for: processors 0 to 3 each read a cell once per 7-cycle
   period, firing at 100, 101, ..., and the call stands for 50 more
   periods.  The detector must report the same, races in order
   included, whether it gets them in one call or read by read. *)
let period = 7
let repeats = 50

let period_reads cells =
  List.mapi
    (fun pid c ->
      let fired = 100 + pid in
      {
        M.r_loc = c.M.loc;
        r_pid = pid;
        r_issued = fired - 6;
        r_fired = fired;
        r_serialized = false;
        r_clean = M.shadow_clean c;
      })
    cells

let count_only ?strict_reads reads =
  let tracer () = Option.get !M.tracer in
  let (), counted =
    Rd.run ?strict_reads (fun () ->
        (tracer ()).M.on_reads reads ~period ~repeats)
  in
  let (), stepped =
    Rd.run ?strict_reads (fun () ->
        let tr = tracer () in
        for j = 1 to repeats do
          List.iter
            (fun (r : M.read) ->
              tr.M.on_read r.M.r_loc ~pid:r.r_pid
                ~issued:(r.r_issued + (j * period))
                ~fired:(r.r_fired + (j * period))
                ~serialized:r.r_serialized ~clean:r.r_clean)
            reads
        done)
  in
  Alcotest.(check string)
    "the report of the reads it stands for" (Rd.format_report stepped)
    (Rd.format_report counted);
  check_bool "the whole report, races in order" true (counted = stepped);
  check_int "every read checked" (repeats * List.length reads)
    counted.Rd.reads_checked;
  counted

let test_count_only_clean () =
  let a = M.cell 0 and b = M.cell 0 in
  let report = count_only (period_reads [ a; b; a ]) in
  no_races "clean cells" report;
  check_int "no overlapping read" 0 report.Rd.overlapping_reads

let test_count_only_raw_write () =
  let a = M.cell 0 and b = M.cell 0 in
  b.M.v <- 1 (* raw: no E.set *);
  let report = count_only (period_reads [ a; b; b ]) in
  check_bool "one raw-write race" true (kinds report = [ Rd.Raw_write ]);
  Alcotest.(check (list (pair int int)))
    "at processor 1's first repeat" [ (1, 101 + period) ]
    (List.map (fun r -> (r.Rd.pid, r.Rd.time)) report.Rd.races)

(* Processor 0's serialized window on [a], [107, 129), is open across
   the first three repeats: processor 1's reads of [a] fire in it at
   108, 115 and 122, processor 3's at 110, 117 and 124, and processor
   0's own reads do not count.  Processor 2's cell [b] was
   raw-written, so under strict reads its race falls between the
   others' in the first repeat. *)
let test_count_only_open_window () =
  let a = M.cell 0 and b = M.cell 0 in
  b.M.v <- 1 (* raw: no E.set *);
  M.issue_stamp a.M.loc ~pid:0 ~begins:107 ~finish:129;
  let reads = period_reads [ a; a; b; a ] in
  let relaxed = count_only reads in
  check_bool "relaxed: only the raw write" true
    (kinds relaxed = [ Rd.Raw_write ]);
  check_int "relaxed: overlapping reads" 6 relaxed.Rd.overlapping_reads;
  let strict = count_only ~strict_reads:true reads in
  Alcotest.(check (list (pair int int)))
    "strict: overlap races and the raw write, in order"
    [ (1, 108); (2, 109); (3, 110); (1, 115); (3, 117); (1, 122); (3, 124) ]
    (List.map (fun r -> (r.Rd.pid, r.Rd.time)) strict.Rd.races);
  check_int "strict: overlapping reads" 6 strict.Rd.overlapping_reads

(* ------------------------------------------------------------------ *)
(* Race detector: clean structures stay clean                          *)
(* ------------------------------------------------------------------ *)

let audit name f =
  let (), report = Rd.run f in
  no_races name report;
  check_bool (name ^ ": engine traffic audited") true
    (report.Rd.commits_checked > 0)

let proc_counts = [ 2; 8; 32 ]

let test_clean_elim_pool () =
  List.iter
    (fun procs ->
      audit
        (Printf.sprintf "Elim_pool procs=%d" procs)
        (fun () ->
          let pool = Pool.create ~capacity:procs ~width:4 () in
          ignore
            (run ~procs (fun p ->
                 for i = 1 to 20 do
                   Pool.enqueue pool ((p * 100) + i);
                   match Pool.dequeue ~stop:(fun () -> false) pool with
                   | Some _ -> ()
                   | None -> Alcotest.fail "dequeue failed under P2"
                 done))))
    proc_counts

let test_clean_elim_stack () =
  List.iter
    (fun procs ->
      audit
        (Printf.sprintf "Elim_stack procs=%d" procs)
        (fun () ->
          let stack = Stack.create ~capacity:procs ~width:4 () in
          ignore
            (run ~procs (fun p ->
                 for i = 1 to 20 do
                   Stack.push stack ((p * 100) + i);
                   match Stack.pop ~stop:(fun () -> false) stack with
                   | Some _ -> ()
                   | None -> Alcotest.fail "pop failed under P2"
                 done))))
    proc_counts

let test_clean_inc_dec_counter () =
  List.iter
    (fun procs ->
      audit
        (Printf.sprintf "IncDecCounter procs=%d" procs)
        (fun () ->
          let idc = Idc.create ~capacity:procs ~width:4 () in
          ignore
            (run ~procs (fun _ ->
                 for _ = 1 to 20 do
                   ignore (Idc.increment idc);
                   ignore (Idc.decrement idc)
                 done))))
    proc_counts

let test_clean_contended_faa () =
  (* Scheduler self-check: heavy RMW contention on one location must
     produce back-to-back, never overlapping, service windows. *)
  audit "contended fetch&add" (fun () ->
      let c = M.cell 0 in
      ignore
        (run ~procs:16 (fun _ ->
             for _ = 1 to 50 do
               ignore (E.fetch_and_add c 1)
             done));
      check_int "counter total" (16 * 50) c.M.v)

(* ------------------------------------------------------------------ *)
(* Lint: golden fixture                                                *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_lint_golden () =
  let got = Lint.report (Lint.scan_file "fixtures/bad_discipline.ml") in
  let expected = read_file "fixtures/bad_discipline.expected" in
  Alcotest.(check string) "golden lint report" expected got

let test_lint_clean_file_parses_clean () =
  (* The fixture aside, a pure module must produce no violations; use
     this very test's pure sibling data as the subject. *)
  let path = Filename.temp_file "clean" ".ml" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc
        "let rec fib n = if n < 2 then n else fib (n - 1) + fib (n - 2)\n\
         let xs = List.map fib [ 1; 2; 3 ]\n";
      close_out oc;
      check_int "no violations" 0 (List.length (Lint.scan_file path)))

(* ------------------------------------------------------------------ *)
(* Lint: allowlist semantics                                           *)
(* ------------------------------------------------------------------ *)

let violation file rule =
  { Lint.file; line = 1; col = 0; rule; message = "m" }

let test_allowlist_apply () =
  let allows =
    [
      { Lint.path = "lib/core/foo.ml"; allowed = Lint.Ref_cell };
      { Lint.path = "lib/core/bar.ml"; allowed = Lint.Setfield };
    ]
  in
  let vs =
    [
      violation "lib/core/foo.ml" Lint.Ref_cell;    (* suppressed *)
      violation "lib/core/foo.ml" Lint.Setfield;    (* kept: rule differs *)
      violation "lib/core/baz.ml" Lint.Ref_cell;    (* kept: path differs *)
    ]
  in
  let kept, suppressed, unused = Lint.apply_allowlist allows vs in
  check_int "kept" 2 (List.length kept);
  check_int "suppressed" 1 (List.length suppressed);
  check_int "unused entries" 1 (List.length unused)

let test_allowlist_suffix_matching () =
  let allows = [ { Lint.path = "core/foo.ml"; allowed = Lint.Ref_cell } ] in
  let hit, _, _ =
    Lint.apply_allowlist allows [ violation "lib/core/foo.ml" Lint.Ref_cell ]
  in
  check_int "suffix with / boundary matches" 0 (List.length hit);
  let miss, _, _ =
    Lint.apply_allowlist allows [ violation "lib/score/foo.ml" Lint.Ref_cell ]
  in
  check_int "non-boundary suffix does not match" 1 (List.length miss)

let test_allowlist_load () =
  let path = Filename.temp_file "allow" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc
        "# a comment\n\nlib/core/foo.ml ref\nlib/sync/bar.ml mutable-field\n";
      close_out oc;
      let allows = Lint.load_allowlist path in
      check_int "entries parsed" 2 (List.length allows))

let test_allowlist_load_rejects_junk () =
  let path = Filename.temp_file "allow" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "lib/core/foo.ml not-a-rule\n";
      close_out oc;
      match Lint.load_allowlist path with
      | _ -> Alcotest.fail "malformed allowlist accepted"
      | exception Lint.Parse_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Allocheck: seeded hot-loop regression + budget semantics            *)
(* ------------------------------------------------------------------ *)

(* Compile the seeded fixture at test time with [ocamlc -bin-annot]
   from inside a scratch directory, so the .cmt records the bare
   relative path and the golden diagnostics are host-independent. *)
let compiled_fixture =
  lazy
    (let dir = Filename.concat (Filename.get_temp_dir_name ()) "acfixture" in
     let sh c =
       if Sys.command c <> 0 then Alcotest.failf "command failed: %s" c
     in
     sh (Printf.sprintf "rm -rf %s && mkdir -p %s" dir dir);
     sh (Printf.sprintf "cp fixtures/alloc_hot_loop.ml %s/" dir);
     sh (Printf.sprintf "cd %s && ocamlc -bin-annot -c alloc_hot_loop.ml" dir);
     Ac.census_of_paths [ dir ])

let fixture_roots = [ "Alloc_hot_loop.run" ]

let test_allocheck_seeded_regression () =
  (* The teeth check: a closure (and a per-event record) seeded into a
     scheduler-shaped step loop must be rejected against an empty
     budget, with diagnostics naming the root -> site call chain. *)
  let census = Lazy.force compiled_fixture in
  let verdict = Ac.check census ~roots:fixture_roots ~budget:[] in
  let got =
    String.concat ""
      (List.map (fun v -> Ac.format_violation v ^ "\n") verdict.Ac.violations)
  in
  let expected = read_file "fixtures/allocheck_bug.expected" in
  Alcotest.(check string) "golden allocheck report" expected got;
  check_int "no stale entries against an empty budget" 0
    (List.length verdict.Ac.stale)

let test_allocheck_chain_interprocedural () =
  (* The closure lives in make_thunk, reached from run: its chain must
     span both functions, root first. *)
  let census = Lazy.force compiled_fixture in
  let verdict = Ac.check census ~roots:fixture_roots ~budget:[] in
  let thunk_violation =
    List.find
      (fun (v : Ac.violation) -> v.v_site.Ac.s_fn = "Alloc_hot_loop.make_thunk")
      verdict.Ac.violations
  in
  Alcotest.(check (list string))
    "root-first chain"
    [ "Alloc_hot_loop.run"; "Alloc_hot_loop.make_thunk" ]
    thunk_violation.Ac.v_chain

let fixture_budget =
  [
    { Ac.b_fn = "Alloc_hot_loop.make_thunk"; b_kind = Ac.K_closure; b_count = 1 };
    { Ac.b_fn = "Alloc_hot_loop.run"; b_kind = Ac.K_record; b_count = 2 };
    { Ac.b_fn = "Alloc_hot_loop.run"; b_kind = Ac.K_closure; b_count = 1 };
  ]

let test_allocheck_budget_satisfied () =
  let census = Lazy.force compiled_fixture in
  let verdict = Ac.check census ~roots:fixture_roots ~budget:fixture_budget in
  check_int "no violations under the exact budget" 0
    (List.length verdict.Ac.violations);
  check_int "no stale entries" 0 (List.length verdict.Ac.stale)

let test_allocheck_budget_stale () =
  (* The ratchet's other jaw: a budget looser than reality (or naming a
     cold function) is stale and must fail, so removing an allocation
     forces the committed budget to record the win. *)
  let census = Lazy.force compiled_fixture in
  let loose =
    { Ac.b_fn = "Alloc_hot_loop.run"; b_kind = Ac.K_closure; b_count = 5 }
  in
  let cold =
    { Ac.b_fn = "Alloc_hot_loop.process"; b_kind = Ac.K_tuple; b_count = 1 }
  in
  let verdict =
    Ac.check census ~roots:fixture_roots ~budget:(loose :: cold :: fixture_budget)
  in
  check_int "both bad entries reported stale" 2 (List.length verdict.Ac.stale)

let test_allocheck_unknown_root_rejected () =
  let census = Lazy.force compiled_fixture in
  match Ac.check census ~roots:[ "Alloc_hot_loop.no_such_fn" ] ~budget:[] with
  | _ -> Alcotest.fail "unknown root accepted"
  | exception Ac.Error _ -> ()

let test_budget_load () =
  let path = Filename.temp_file "budget" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc
        "# a comment\n\n\
         Scheduler.run closure 14  # setup only\n\
         Event_heap.push record 1\n";
      close_out oc;
      match Ac.load_budget path with
      | [ a; b ] ->
          Alcotest.(check string) "fn" "Scheduler.run" a.Ac.b_fn;
          check_bool "kind" true (a.Ac.b_kind = Ac.K_closure);
          check_int "count" 14 a.Ac.b_count;
          Alcotest.(check string) "fn 2" "Event_heap.push" b.Ac.b_fn;
          check_int "count 2" 1 b.Ac.b_count
      | entries -> Alcotest.failf "expected 2 entries, got %d" (List.length entries))

let test_budget_load_rejects_junk () =
  let bad contents =
    let path = Filename.temp_file "budget" ".txt" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let oc = open_out path in
        output_string oc contents;
        close_out oc;
        match Ac.load_budget path with
        | _ -> Alcotest.failf "malformed budget accepted: %S" contents
        | exception Ac.Error _ -> ())
  in
  bad "Scheduler.run not-a-kind 3\n";
  bad "Scheduler.run closure\n";
  bad "Scheduler.run closure many\n"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "analysis"
    [
      ( "race-detector",
        [
          Alcotest.test_case "raw write seen by readers" `Quick
            test_raw_write_seen_by_readers;
          Alcotest.test_case "raw write seen at commit" `Quick
            test_raw_write_seen_at_commit;
          Alcotest.test_case "raw write to a lazy slot" `Quick
            test_raw_write_to_lazy_slot;
          Alcotest.test_case "raw writes dedup per location" `Quick
            test_raw_write_dedup_per_location;
          Alcotest.test_case "strict-read promotion" `Quick
            test_strict_reads_promotion;
          Alcotest.test_case "tracer restored after run" `Quick
            test_nested_runs_restore_tracer;
          Alcotest.test_case "count-only reads: a clean cell" `Quick
            test_count_only_clean;
          Alcotest.test_case "count-only reads: a raw-written cell" `Quick
            test_count_only_raw_write;
          Alcotest.test_case "count-only reads: an open window" `Quick
            test_count_only_open_window;
        ] );
      ( "clean-structures",
        [
          Alcotest.test_case "elimination pool" `Quick test_clean_elim_pool;
          Alcotest.test_case "elimination stack" `Quick test_clean_elim_stack;
          Alcotest.test_case "inc-dec counter" `Quick
            test_clean_inc_dec_counter;
          Alcotest.test_case "contended fetch&add" `Quick
            test_clean_contended_faa;
        ] );
      ( "lint",
        [
          Alcotest.test_case "golden fixture" `Quick test_lint_golden;
          Alcotest.test_case "clean file" `Quick
            test_lint_clean_file_parses_clean;
          Alcotest.test_case "allowlist apply" `Quick test_allowlist_apply;
          Alcotest.test_case "allowlist suffix matching" `Quick
            test_allowlist_suffix_matching;
          Alcotest.test_case "allowlist load" `Quick test_allowlist_load;
          Alcotest.test_case "allowlist rejects junk" `Quick
            test_allowlist_load_rejects_junk;
        ] );
      ( "allocheck",
        [
          Alcotest.test_case "seeded hot-loop regression caught" `Quick
            test_allocheck_seeded_regression;
          Alcotest.test_case "interprocedural chain" `Quick
            test_allocheck_chain_interprocedural;
          Alcotest.test_case "exact budget passes" `Quick
            test_allocheck_budget_satisfied;
          Alcotest.test_case "loose or cold budget is stale" `Quick
            test_allocheck_budget_stale;
          Alcotest.test_case "unknown root rejected" `Quick
            test_allocheck_unknown_root_rejected;
          Alcotest.test_case "budget load" `Quick test_budget_load;
          Alcotest.test_case "budget rejects junk" `Quick
            test_budget_load_rejects_junk;
        ] );
    ]

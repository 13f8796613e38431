(* CLI driver for the hot-path allocation certifier.

     dune build @allocheck
     dune exec bin/etrees_allocheck.exe -- [--roots R1,R2,...]
       [--budget FILE] [--json FILE] [--list-hot] [--print-budget] PATH...

   Each PATH is a .cmt file or a directory scanned recursively for .cmt
   files (dune keeps them under <lib>/.<name>.objs/byte/).  The census
   classifies every allocation site in the scanned modules, computes
   the set of functions reachable from the hot roots, and holds the
   reachable sites against the committed per-(function, kind) budget.

   Output is one machine-readable line per budget violation
   (file:line:col: [alloc-<kind>] ... chain: root -> ... -> fn), plus
   stale-budget errors on stderr; --json writes the whole census as
   one JSON object ([-] for stdout) for the CI artifact.  --list-hot
   prints the hot set with call chains; --print-budget prints the hot
   census in budget-file syntax (the ratchet helper).  Exit status 1
   if any violation or stale entry survives, 2 on usage/read errors. *)

let usage =
  "etrees_allocheck [--roots R1,R2,..] [--budget FILE] [--json FILE] \
   [--list-hot] [--print-budget] PATH..."

(* The simulator core's hot roots: the scheduler step loop, the engine
   dispatch ops (and [cells_get], which structures call on every access
   to a ring slot), the controlled step decided in place, the event wheel's per-event functions, the event
   heap behind it (including the root accessors its refill calls), and
   the memory stamps the scheduler calls per serialized operation.
   Override with --roots. *)
let default_roots =
  [
    "Scheduler.run";
    "Scheduler.ctl_perform";
    "Engine_impl.get";
    "Engine_impl.set";
    "Engine_impl.exchange";
    "Engine_impl.compare_and_set";
    "Engine_impl.fetch_and_add";
    "Engine_impl.delay";
    "Engine_impl.cpu_relax";
    "Engine_impl.spin_until";
    "Engine_impl.random_int";
    "Engine_impl.random_bernoulli";
    "Engine_impl.now";
    "Engine_impl.cells_get";
    "Event_wheel.is_empty";
    "Event_wheel.push";
    "Event_wheel.pop_due";
    "Event_heap.push";
    "Event_heap.pop";
    "Event_heap.min_time";
    "Event_heap.pop_min";
    "Memory.issue_stamp";
    "Memory.commit_stamp";
    "Memory.shadow_clean";
  ]

let () =
  let module A = Analysis.Allocheck in
  let roots = ref default_roots in
  let budget_file = ref None in
  let json_file = ref None in
  let list_hot = ref false in
  let print_budget = ref false in
  let paths = ref [] in
  Arg.parse
    [
      ( "--roots",
        Arg.String
          (fun s ->
            roots :=
              String.split_on_char ',' s |> List.map String.trim
              |> List.filter (fun s -> s <> "")),
        "R1,R2 Hot roots as Module.fn names (default: the simulator core)" );
      ( "--budget",
        Arg.String (fun f -> budget_file := Some f),
        "FILE Committed per-(function, kind) allocation budget" );
      ( "--json",
        Arg.String (fun f -> json_file := Some f),
        "FILE Write the census as one JSON object (- for stdout)" );
      ( "--list-hot",
        Arg.Set list_hot,
        " List hot functions with their root call chains" );
      ( "--print-budget",
        Arg.Set print_budget,
        " Print the hot census in budget-file syntax (ratchet helper)" );
    ]
    (fun p -> paths := p :: !paths)
    usage;
  if !paths = [] then begin
    prerr_endline usage;
    exit 2
  end;
  try
    let census = A.census_of_paths (List.rev !paths) in
    let budget =
      match !budget_file with Some f -> A.load_budget f | None -> []
    in
    let verdict = A.check census ~roots:!roots ~budget in
    if !list_hot then
      List.iter
        (fun (fn, chain) ->
          Printf.printf "%s  (chain: %s)\n" fn (String.concat " -> " chain))
        verdict.A.hot_fns;
    if !print_budget then print_string (A.print_budget verdict);
    List.iter
      (fun v -> print_endline (A.format_violation v))
      verdict.A.violations;
    List.iter
      (fun s -> Printf.eprintf "error: %s\n" (A.format_stale s))
      verdict.A.stale;
    (match !json_file with
    | None -> ()
    | Some f ->
        let json = A.census_json census ~verdict ~roots:!roots in
        if f = "-" then print_string json
        else begin
          let oc = open_out f in
          output_string oc json;
          close_out oc
        end);
    Printf.eprintf
      "etrees_allocheck: %d module(s), %d hot function(s), %d hot site(s), \
       %d violation(s), %d stale budget entr%s\n"
      (List.length census.A.c_modules)
      (List.length verdict.A.hot_fns)
      (List.length verdict.A.hot_sites)
      (List.length verdict.A.violations)
      (List.length verdict.A.stale)
      (if List.length verdict.A.stale = 1 then "y" else "ies");
    exit
      (if verdict.A.violations = [] && verdict.A.stale = [] then 0 else 1)
  with
  | A.Error msg ->
      Printf.eprintf "etrees_allocheck: %s\n" msg;
      exit 2
  | Sys_error msg ->
      Printf.eprintf "etrees_allocheck: %s\n" msg;
      exit 2

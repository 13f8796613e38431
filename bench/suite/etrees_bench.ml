(* etrees_bench — the end-to-end benchmark (bench/suite/README.md).

     etrees_bench [--seed N] [--trace] [W...]
     etrees_bench --workload W --seed N --seconds S --trace 0|1
     etrees_bench compare A.json... -- B.json...

   The second form is how BENCHMARK.json's command is called; it means
   the same as the first.  Each repetition of a workload runs in a
   freshly started child process (this executable, re-invoked as
   [child]), one at a time, so no heap or GC state carries over and at
   most two processes exist at once.  The child sends its repetition
   back over a pipe.  A workload runs a fixed number of repetitions
   ({!Workload.repetitions}); host metrics are medians over them.
   Results go to stdout, one "<metric> <workload> <value> <unit>" line
   each, and to bench/suite/out/results.json; the last stdout line is a
   one-line JSON summary. *)

open Etrees_suite

let out_dir = "bench/suite/out"
let expected_file = "bench/suite/expected/seed1.json"

let usage () =
  prerr_endline
    "usage: etrees_bench [--seed N] [--trace] [W...]\n\
    \       etrees_bench --workload W --seed N --seconds S --trace 0|1\n\
    \       etrees_bench compare A.json... -- B.json...\n\
     workloads: pc_saturated service_bursty chaos_faults check_dpor";
  exit 2

(* ---------------------------------------------------------------- *)
(* Child side                                                         *)

(* [mode] is "untraced" or "traced", which send back a [Workload.rep],
   or "setup", which sends back the set-up time as a float and exits at
   the first simulated event. *)
let child name seed t0 mode =
  let w =
    match Workload.of_name name with Some w -> w | None -> usage ()
  in
  (* The pipe to the parent is stdout; keep it for the result and send
     anything else that writes to stdout to stderr. *)
  let result = Unix.dup Unix.stdout in
  Unix.dup2 Unix.stderr Unix.stdout;
  let send v =
    let oc = Unix.out_channel_of_descr result in
    Marshal.to_channel oc v [];
    close_out oc;
    exit 0
  in
  let at_setup = if mode = "setup" then fun s -> send (s : float) else ignore in
  send
    (Workload.run_rep ~t0:(Int64.of_string t0) ~at_setup ~size:Workload.Full
       ~seed:(int_of_string seed) ~traced:(mode = "traced") w
      : Workload.rep)

(* Runs a child in [mode] and reads back what it sends; the caller
   names the type, as [child] sends it for that mode. *)
let spawn mode ~seed w =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t0 = Span.now () in
  let args =
    [| Sys.executable_name; "child"; Workload.name w; string_of_int seed;
       Int64.to_string t0; mode |]
  in
  let pid = Unix.create_process Sys.executable_name args Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let v = try Some (Marshal.from_channel ic) with End_of_file | Failure _ -> None in
  close_in ic;
  match (Unix.waitpid [] pid, v) with
  | (_, Unix.WEXITED 0), Some v -> Some v
  | _ ->
      Printf.eprintf "etrees_bench: %s %s child died\n%!" (Workload.name w) mode;
      None

(* ---------------------------------------------------------------- *)
(* Parent side                                                        *)

let expected_digest w =
  match Etrace.Json.parse_file expected_file with
  | Ok json ->
      Option.bind (Etrace.Json.member (Workload.name w) json) Etrace.Json.to_str
  | Error _ -> None

let print_metric w (name, value) =
  Printf.printf "%s %s %s %s\n" name (Workload.name w) (Results.number value)
    (Metrics.unit_of name)

let run_workload ~seed ~trace w =
  let wname = Workload.name w in
  Span.with_span ("workload " ^ wname) @@ fun () ->
  let rec loop i reps setups =
    if i > Workload.repetitions then (List.rev reps, setups, 0)
    else
      let s =
        List.init Workload.setup_runs (fun _ -> (spawn "setup" ~seed w : float option))
      in
      match
        Span.with_span (Printf.sprintf "repetition %d" i) (fun () ->
            (spawn "untraced" ~seed w : Workload.rep option))
      with
      | Some r when List.for_all Option.is_some s ->
          loop (i + 1) (r :: reps) (setups @ List.filter_map Fun.id s)
      | _ -> (List.rev reps, setups, 1)
  in
  let reps, setups, lost = loop 1 [] [] in
  let verdict = Results.judge ~lost reps in
  let each fmt xs = String.concat "" (List.map (Printf.sprintf fmt) xs) in
  Printf.printf
    "# %s: %d repetitions (raw wall_s%s; calibration ns/step over slices%s), %d/%d \
     units failed\n"
    wname (List.length reps)
    (each " %.3f" (List.map (fun (r : Workload.rep) -> r.wall_s) reps))
    (String.concat ""
       (List.map
          (fun (r : Workload.rep) ->
            Printf.sprintf " %.1f/%d" r.calib_ns_per_step r.calib_samples)
          reps))
    verdict.Results.failed verdict.Results.attempted;
  Printf.printf "# %s: set-up-only runs (setup_s%s)\n" wname (each " %.4f" setups);
  let metrics = if reps = [] then [] else Results.end_to_end ~setups reps in
  List.iter (print_metric w) metrics;
  (match (seed, expected_digest w) with
  | 1, Some d when d = verdict.Results.digest ->
      Printf.printf "digest: same %s %s\n" wname d
  | 1, Some d ->
      Printf.printf "digest: changed %s %s (committed %s)\n" wname
        verdict.Results.digest d
  | _ ->
      Printf.printf "digest: unchecked %s %s (committed digests are for seed 1)\n"
        wname verdict.Results.digest);
  let per_layer =
    match (trace, reps) with
    | false, _ | _, [] -> []
    | true, _ -> (
        match
          Span.with_span "repetition traced" (fun () ->
              Option.map
                (fun (r : Workload.rep) ->
                  Span.adopt r.spans;
                  r)
                (spawn "traced" ~seed w : Workload.rep option))
        with
        | None -> []
        | Some traced ->
            Span.with_span "layers" @@ fun () ->
            let costs_at = Layers.costs_table ~size:Workload.Full w in
            let splitmix = Layers.splitmix_ns () and guard = Layers.guard_ns () in
            let pl =
              Layers.per_layer ~size:Workload.Full ~costs_at ~splitmix ~guard
                ~reps ~traced w
            in
            List.iter (print_metric w) pl;
            if List.assoc "ledger.residual_share" pl < 0.0 then
              Printf.printf "UNBALANCED %s\n" wname;
            pl)
  in
  let r0 = match reps with r :: _ -> r.Workload.exact | [] -> [] in
  {
    Results.workload = wname;
    reps = List.length reps;
    verdict;
    metrics;
    exact = r0;
    per_layer;
  }

let run ~seed ~trace workloads =
  Span.enabled := trace;
  let results =
    List.map
      (fun w ->
        let r = run_workload ~seed ~trace w in
        if trace then begin
          let spans = Span.take () in
          Printf.printf "# %s host spans (calls, total ms, self ms):\n" r.Results.workload;
          List.iter
            (fun (name, calls, total, self) ->
              Printf.printf "span %-45s %7d %12.3f %12.3f\n" name calls
                (Int64.to_float total /. 1e6) (Int64.to_float self /. 1e6))
            (Span.self_table spans);
          Results.write_file
            (Printf.sprintf "%s/trace-%s.json" out_dir r.Results.workload)
            (Results.to_string (Span.chrome_json spans))
        end;
        r)
      workloads
  in
  Results.write_file (out_dir ^ "/results.json")
    (Results.to_string (Results.to_json ~seed ~trace results) ^ "\n");
  print_endline (Results.summary_line ~trace results);
  if List.exists (fun r -> r.Results.verdict.Results.failed > 0) results then
    exit 1

(* ---------------------------------------------------------------- *)
(* compare                                                            *)

let compare_cmd files =
  let rec split acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | f :: rest -> split (f :: acc) rest
    | [] -> usage ()
  in
  let a, b = split [] files in
  if a = [] || b = [] then usage ();
  let fail msg =
    prerr_endline ("etrees_bench compare: " ^ msg);
    exit 2
  in
  let load file =
    match Result.bind (Etrace.Json.parse_file file) Results.samples_of_run with
    | Ok s -> s
    | Error e -> fail (file ^ ": " ^ e)
  in
  let bounds =
    match Result.bind (Etrace.Json.parse_file "BENCHMARK.json") Results.bounds_of_benchmark with
    | Ok b -> b
    | Error e -> fail e
  in
  let lines = Results.compare_sets ~bounds (List.map load a) (List.map load b) in
  List.iter (fun l -> print_endline (Results.format_line l)) lines;
  if List.exists (fun l -> l.Results.status <> Results.Agree) lines then exit 1

(* ---------------------------------------------------------------- *)

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "child"; name; seed; t0; traced ] -> child name seed t0 traced
  | "compare" :: files -> compare_cmd files
  | args ->
      let int_arg s = match int_of_string_opt s with Some n -> n | None -> usage () in
      let rec parse (seed, trace, ws) = function
        | [] -> (seed, trace, List.rev ws)
        | "--seed" :: n :: rest -> parse (int_arg n, trace, ws) rest
        (* The time budget BENCHMARK.json's caller grants a run.  The
           repetition count is fixed per workload and sized to fit it
           (run_seconds), so the budget only has to be well formed. *)
        | "--seconds" :: s :: rest ->
            if int_arg s < 1 then usage ();
            parse (seed, trace, ws) rest
        | "--trace" :: ("0" | "1" as v) :: rest -> parse (seed, v = "1", ws) rest
        | "--trace" :: rest -> parse (seed, true, ws) rest
        | "--workload" :: w :: rest | w :: rest -> (
            match Workload.of_name w with
            | Some w -> parse (seed, trace, w :: ws) rest
            | None -> usage ())
      in
      let seed, trace, ws = parse (1, false, []) args in
      run ~seed ~trace (if ws = [] then Workload.all else ws)

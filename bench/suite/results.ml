(* From repetitions to reported numbers: end-to-end aggregation, the
   correctness verdict, the JSON files, and [compare] over two sets of
   saved runs. *)

module J = Etrace.Json

(* ---------------------------------------------------------------- *)
(* JSON output                                                        *)

(* The shortest rendering that reads back as the same float. *)
let number x =
  let exact p = let s = Printf.sprintf "%.*g" p x in
    if float_of_string s = x then Some s else None in
  match exact 15 with
  | Some s -> s
  | None -> Option.value (exact 16) ~default:(Printf.sprintf "%.17g" x)

let rec to_string = function
  | J.Null -> "null"
  | J.Bool b -> string_of_bool b
  | J.Num x when Float.is_integer x && Float.abs x < 1e15 ->
      Printf.sprintf "%.0f" x
  | J.Num x when Float.is_finite x -> number x
  | J.Num _ -> "null"
  | J.Str s -> Printf.sprintf "%S" s
  | J.Arr vs -> "[" ^ String.concat ", " (List.map to_string vs) ^ "]"
  | J.Obj kvs ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (to_string v)) kvs)
      ^ "}"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_file file contents =
  mkdir_p (Filename.dirname file);
  Out_channel.with_open_bin file (fun oc -> output_string oc contents)

(* ---------------------------------------------------------------- *)
(* Aggregation over repetitions                                       *)

(* Host times are in reference seconds ({!Calib}): a repetition's timed
   phase at the speed measured over it.  [setups] are the set-up times
   of the set-up-only runs; setup_s is their median together with the
   repetitions' own, at the repetitions' median speed, measured within
   seconds of them. *)
let end_to_end ~setups (reps : Workload.rep list) =
  let f = float_of_int in
  let med g = Stats.median (List.map g reps) in
  let wall (r : Workload.rep) =
    Calib.to_ref ~ns_per_step:r.calib_ns_per_step r.wall_s
  in
  [
    ("wall_s", med wall);
    ("events_per_s", med (fun r -> f r.Workload.events /. wall r));
    ("ops_per_s", med (fun r -> f r.Workload.ops /. wall r));
    ( "setup_s",
      Calib.to_ref
        ~ns_per_step:(med (fun r -> r.Workload.calib_ns_per_step))
        (Stats.median (setups @ List.map (fun r -> r.Workload.setup_s) reps)) );
    ( "peak_heap_mb",
      List.fold_left
        (fun m r -> Float.max m (f r.Workload.top_heap_words *. 8.0 /. 1e6))
        0.0 reps );
    ( "minor_words_per_event",
      med (fun r -> r.Workload.minor_words /. f r.Workload.events) );
  ]

type verdict = {
  attempted : int;  (** units: simulated points or checked scenarios *)
  failed : int;
  digest : string;  (** of the first repetition's deterministic outputs *)
}

(* A unit fails when it failed in any repetition, when its
   deterministic rendering differs between repetitions, or when a
   repetition died before reporting ([lost] of them). *)
let judge ~lost (reps : Workload.rep list) =
  match reps with
  | [] -> { attempted = 1; failed = 1; digest = "-" }
  | first :: _ ->
      let units = first.Workload.units in
      let failed_unit (u : Workload.unit_result) =
        lost > 0
        || List.exists
             (fun (r : Workload.rep) ->
               match
                 List.find_opt
                   (fun (v : Workload.unit_result) -> v.label = u.label)
                   r.units
               with
               | Some v -> (not v.ok) || v.line <> u.line
               | None -> true)
             reps
      in
      {
        attempted = List.length units;
        failed = List.length (List.filter failed_unit units);
        digest = Workload.digest first;
      }

(* ---------------------------------------------------------------- *)
(* Saved runs                                                         *)

type workload_result = {
  workload : string;
  reps : int;
  verdict : verdict;
  metrics : (string * float) list;  (** end-to-end *)
  exact : (string * float) list;
  per_layer : (string * float) list;  (** traced runs only *)
}

let metric_obj kvs =
  J.Obj
    (List.map
       (fun (n, v) ->
         (n, J.Obj [ ("value", J.Num v); ("unit", J.Str (Metrics.unit_of n)) ]))
       kvs)

let to_json ~seed ~trace results =
  J.Obj
    [
      ("seed", J.Num (float_of_int seed));
      ("trace", J.Bool trace);
      ( "workloads",
        J.Obj
          (List.map
             (fun r ->
               ( r.workload,
                 J.Obj
                   ([
                      ("reps", J.Num (float_of_int r.reps));
                      ("attempted", J.Num (float_of_int r.verdict.attempted));
                      ("failed", J.Num (float_of_int r.verdict.failed));
                      ("digest", J.Str r.verdict.digest);
                      ("metrics", metric_obj r.metrics);
                      ( "exact",
                        J.Obj (List.map (fun (n, v) -> (n, J.Num v)) r.exact) );
                    ]
                   @
                   if r.per_layer = [] then []
                   else [ ("per_layer", metric_obj r.per_layer) ]) ))
             results) );
    ]

(* The last line a run prints, for whatever runs BENCHMARK.json's
   command.  Metrics are the end-to-end ones, or with [trace] the
   per-layer ones; several workloads in one run are told apart by a
   "<workload>." prefix. *)
let summary_line ~trace results =
  let many = List.length results > 1 in
  let attempted = List.fold_left (fun a r -> a + r.verdict.attempted) 0 results in
  let failed = List.fold_left (fun a r -> a + r.verdict.failed) 0 results in
  let metrics =
    List.concat_map
      (fun r ->
        List.map
          (fun (n, v) -> ((if many then r.workload ^ "." ^ n else n), n, v))
          (if trace then r.per_layer else r.metrics))
      results
  in
  to_string
    (J.Obj
       [
         ("correct", J.Bool (failed = 0));
         ("attempted", J.Num (float_of_int attempted));
         ("failed", J.Num (float_of_int failed));
         ( "metrics",
           J.Obj
             (List.map
                (fun (key, n, v) ->
                  ( key,
                    J.Obj [ ("value", J.Num v); ("unit", J.Str (Metrics.unit_of n)) ]
                  ))
                metrics) );
       ])

(* ---------------------------------------------------------------- *)
(* compare                                                            *)

type status = Agree | Differ | Unresolved

let status_name = function
  | Agree -> "agree"
  | Differ -> "DIFFER"
  | Unresolved -> "unresolved"

(* Two sets of samples against a relative bound: unresolved when
   either set's interquartile spread is wider than the bound, DIFFER
   when the medians are further apart than it, else agree. *)
let judge_sets ~bound a b =
  if Stats.spread a > bound || Stats.spread b > bound then Unresolved
  else
    let ma = Stats.median a and mb = Stats.median b in
    if Float.abs (mb -. ma) > bound *. Float.abs ma then Differ else Agree

(* The end-to-end bounds of a BENCHMARK.json. *)
let bounds_of_benchmark json =
  let ( >>= ) = Option.bind in
  match J.member "end_to_end" json >>= J.to_list with
  | None -> Error "BENCHMARK.json: no end_to_end list"
  | Some entries ->
      List.fold_right
        (fun e acc ->
          match (acc, J.member "name" e >>= J.to_str, J.member "bound" e >>= J.to_num) with
          | Error _, _, _ -> acc
          | Ok l, Some n, Some b -> Ok ((n, b) :: l)
          | Ok _, _, _ -> Error "BENCHMARK.json: end_to_end entry without name/bound")
        entries (Ok [])

(* One workload of one saved run. *)
type sample = {
  workload : string;
  seed : int;
  metrics : (string * float) list;
  exact : (string * float) list;
  digest : string;
}

let samples_of_run json =
  let ( >>= ) = Option.bind in
  let num_field v =
    match J.member "value" v with Some x -> J.to_num x | None -> J.to_num v
  in
  let pairs = function
    | Some (J.Obj kvs) ->
        List.filter_map (fun (k, v) -> Option.map (fun x -> (k, x)) (num_field v)) kvs
    | _ -> []
  in
  match (J.member "seed" json >>= J.to_int, J.member "workloads" json) with
  | Some seed, Some (J.Obj ws) ->
      Ok
        (List.map
           (fun (workload, o) ->
             {
               workload;
               seed;
               metrics = pairs (J.member "metrics" o);
               exact = pairs (J.member "exact" o);
               digest = Option.value ~default:"-" (J.member "digest" o >>= J.to_str);
             })
           ws)
  | _ -> Error "no seed or no workloads object"

type line = {
  metric : string;
  workload : string;
  a : float list;
  b : float list;
  status : status;
}

(* Deterministic outputs must be identical between runs of the same
   seed, one set against the other; runs of different seeds may
   differ.  Unresolved when the sets share no seed. *)
let same_per_seed ~get (a : sample list) b =
  let seeds = List.sort_uniq compare (List.map (fun s -> s.seed) a) in
  let shared = List.filter (fun x -> List.exists (fun s -> s.seed = x) b) seeds in
  if shared = [] then Unresolved
  else if
    List.for_all
      (fun x ->
        match List.filter_map get (List.filter (fun s -> s.seed = x) (a @ b)) with
        | [] -> true
        | v :: rest -> List.for_all (( = ) v) rest)
      shared
  then Agree
  else Differ

(* Compare two sets of saved runs (each run a list of samples), metric
   by metric and workload by workload. *)
let compare_sets ~bounds set_a set_b =
  let of_workload set w =
    List.filter (fun (s : sample) -> s.workload = w) (List.concat set)
  in
  let workloads =
    List.sort_uniq compare
      (List.map (fun (s : sample) -> s.workload) (List.concat (set_a @ set_b)))
  in
  List.concat_map
    (fun w ->
      let a = of_workload set_a w and b = of_workload set_b w in
      let values metric sel set =
        List.filter_map (fun (s : sample) -> List.assoc_opt metric (sel s)) set
      in
      let bounded =
        List.map
          (fun (metric, bound) ->
            let va = values metric (fun s -> s.metrics) a
            and vb = values metric (fun s -> s.metrics) b in
            let status =
              if va = [] || vb = [] then Unresolved else judge_sets ~bound va vb
            in
            { metric; workload = w; a = va; b = vb; status })
          bounds
      in
      let exact =
        List.filter_map
          (fun (metric, _) ->
            let va = values metric (fun s -> s.exact) a
            and vb = values metric (fun s -> s.exact) b in
            if va = [] && vb = [] then None
            else
              let get s = Option.map Float.to_string (List.assoc_opt metric s.exact) in
              Some { metric; workload = w; a = va; b = vb;
                     status = same_per_seed ~get a b })
          Metrics.exact
      in
      let digest =
        { metric = "digest"; workload = w; a = []; b = [];
          status = same_per_seed ~get:(fun s -> Some s.digest) a b }
      in
      bounded @ exact @ [ digest ])
    workloads

let format_line l =
  let side xs =
    match xs with
    | [] -> "-"
    | _ ->
        let q1, _, q3 = Stats.quartiles xs in
        Printf.sprintf "med %.6g [q1 %.6g, q3 %.6g] n=%d" (Stats.median xs) q1 q3
          (List.length xs)
  in
  Printf.sprintf "%-24s %-15s A %s | B %s -> %s" l.metric l.workload (side l.a)
    (side l.b) (status_name l.status)

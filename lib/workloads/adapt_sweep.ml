(* A1 — the adaptive crossover (docs/ADAPTIVE.md, EXPERIMENTS.md §A1).

   The paper's static tuning is one point on a hand-tuning axis: longer
   spin windows buy elimination at saturation and cost pure latency
   when the tree is lightly loaded.  This sweep makes the trade
   explicit — produce-consume at a fixed processor count across
   think-time workloads (load falls as think time grows), comparing
   hand-tuned static schedules (spin bases along the axis) against the
   one reactive configuration.  The headline shape, asserted by
   test/test_bench_shapes.ml over the emitted BENCH_adapt.json:

   - at saturation (workload 0) the reactive tree stays within a few
     percent of the best static schedule;
   - at the lowest load (largest think time) it beats every static
     schedule on latency, because the controller has shrunk the spin
     windows nobody was colliding in. *)

type point = {
  method_name : string;
  reactive : bool;
  workload : int; (* think time bound, cycles (load falls as it grows) *)
  procs : int;
  throughput_per_m : int;
  latency : float;
  lat : Etrace.Histogram.summary;
  elim_rate : float option;
  final_adapt : (int * int list) list list option;
      (* reactive only: per-depth (spin, widths) at the end of the run *)
}

type method_spec = {
  label : string;
  reactive : bool;
  make : procs:int -> int Pool_obj.pool;
}

(* The hand-tuning axis: the paper's base (64) bracketed by a short and
   a long window. *)
let default_spin_bases = [ 16; 64; 256 ]

let methods ?(width = 32) ?(spin_bases = default_spin_bases)
    ?(config = Adapt.default) () =
  List.map
    (fun spin_base ->
      {
        label = Printf.sprintf "Etree-%d/s%d" width spin_base;
        reactive = false;
        make = (fun ~procs -> Methods.etree_pool_spin ~width ~spin_base ~procs ());
      })
    spin_bases
  @ [
      {
        label = Printf.sprintf "Etree-%d/adapt" width;
        reactive = true;
        make = (fun ~procs -> Methods.etree_pool_reactive ~width ~config ~procs ());
      };
    ]

let run_point ?seed ?horizon ~procs ~workload (spec : method_spec) =
  (* Capture the pool [Produce_consume.run] builds so the reactive
     state can be read back after the run (host-level reads). *)
  let captured = ref None in
  let make ~procs =
    let p = spec.make ~procs in
    captured := Some p;
    p
  in
  let pt = Produce_consume.run ?seed ?horizon ~workload ~procs make in
  let pool = Option.get !captured in
  {
    method_name = spec.label;
    reactive = spec.reactive;
    workload;
    procs;
    throughput_per_m = pt.Produce_consume.throughput_per_m;
    latency = pt.Produce_consume.latency;
    lat = pt.Produce_consume.lat;
    elim_rate = pt.Produce_consume.elim_rate;
    final_adapt = Option.map (fun f -> f ()) pool.Pool_obj.adapt_by_level;
  }

(* The think-time axis: saturation down to near-idle. *)
let default_workloads = [ 0; 500; 2_000; 8_000; 16_000 ]

let sweep ?seed ?horizon ?(workloads = default_workloads) ~procs specs =
  List.map
    (fun spec ->
      List.map
        (fun workload -> run_point ?seed ?horizon ~procs ~workload spec)
        workloads)
    specs

(* ------------------------------------------------------------------ *)
(* Shape predicates (shared by the bench text report and the           *)
(* regression test over BENCH_adapt.json)                              *)
(* ------------------------------------------------------------------ *)

let at_workload w = List.filter (fun p -> p.workload = w)

let workload_axis points =
  List.sort_uniq compare (List.map (fun p -> p.workload) points)

let split (points : point list) =
  ( List.filter (fun (p : point) -> p.reactive) points,
    List.filter (fun (p : point) -> not p.reactive) points )

(* Saturation (the smallest workload): reactive throughput within
   [tolerance_pct] percent of the best static schedule. *)
let saturation_ok ?(tolerance_pct = 5) points =
  match workload_axis points with
  | [] -> false
  | w :: _ -> (
      let reactive, statics = split (at_workload w points) in
      match (reactive, statics) with
      | [ r ], _ :: _ ->
          let best =
            List.fold_left (fun acc p -> max acc p.throughput_per_m) 0 statics
          in
          r.throughput_per_m * 100 >= best * (100 - tolerance_pct)
      | _ -> false)

(* Lowest load (the largest workload): reactive latency strictly below
   every static schedule's. *)
let low_load_ok points =
  match List.rev (workload_axis points) with
  | [] -> false
  | w :: _ -> (
      let reactive, statics = split (at_workload w points) in
      match (reactive, statics) with
      | [ r ], _ :: _ ->
          List.for_all (fun s -> r.latency < s.latency) statics
      | _ -> false)

(* The verdict bench/main.exe turns into its exit status. *)
let shape_failures points =
  let fail ok claim = if ok then [] else [ "adapt: " ^ claim ] in
  fail (saturation_ok points)
    "reactive throughput not within 5% of the best static at saturation"
  @ fail (low_load_ok points)
      "reactive latency not strictly best at the lowest load"

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let format_adapt levels =
  String.concat " | "
    (List.map
       (fun level ->
         String.concat ","
           (List.map
              (fun (spin, widths) ->
                Printf.sprintf "%d:[%s]" spin
                  (String.concat ";" (List.map string_of_int widths)))
              level))
       levels)

let to_json p =
  Report.(
    Obj
      [
        ("method", Str p.method_name);
        ("reactive", Bool p.reactive);
        ("workload", Int p.workload);
        ("procs", Int p.procs);
        ("throughput_per_m", Int p.throughput_per_m);
        ("latency", Float p.latency);
        ("latency_hist", histogram_json p.lat);
        ("elim_rate", opt (fun r -> Float r) p.elim_rate);
        ( "final_adapt",
          opt
            (fun levels ->
              Arr
                (List.map
                   (fun level ->
                     Arr
                       (List.map
                          (fun (spin, widths) ->
                            Obj
                              [
                                ("spin", Int spin);
                                ( "widths",
                                  Arr (List.map (fun w -> Int w) widths) );
                              ])
                          level))
                   levels))
            p.final_adapt );
      ])

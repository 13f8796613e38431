(** The counting benchmark of §2.5.2 (Figure 9): fetch&increment in a
    loop until the horizon; elimination never fires, isolating the
    diffraction machinery. *)

type point = {
  procs : int;
  throughput_per_m : int;
  ops : int;
  mem : Sim.stats;  (** engine-level operation counters of the run *)
}

val run :
  ?seed:int ->
  ?horizon:int ->
  procs:int ->
  (procs:int -> Pool_obj.counter) ->
  point

val to_json : method_name:string -> point -> Report.json
(** One BENCH_fig9.json point. *)

(** The 10-queens job-distribution benchmark of §2.5.3 (Fig. 10 left):
    10 seed tasks of depth 1; consuming a task of depth < 3 costs 8000
    cycles of work and spawns 10 tasks of depth+1; the run ends when
    all 1110 tasks are consumed. *)

type point = { procs : int; elapsed : int; consumed : int }

val total_tasks : int

val run : ?seed:int -> procs:int -> (procs:int -> int Pool_obj.pool) -> point

val to_json : method_name:string -> point -> Report.json
(** One BENCH_fig10.json point, tagged ["kind": "queens"]. *)

(* The 10-queens job-distribution benchmark of §2.5.3 (Fig. 10, left).

   One processor seeds the pool with 10 tasks of depth 1.  Every
   processor repeatedly dequeues a task; if its depth is below 3 the
   processor "works" for 8000 cycles and enqueues 10 tasks of depth+1.
   The run ends when all 10 + 100 + 1000 = 1110 tasks have been
   consumed; the metric is the elapsed simulated time.  This is the
   workload family where the randomized local-pool methods shine:
   a typical processor dequeues its own latest enqueue. *)

module E = Sim.Engine

type point = { procs : int; elapsed : int; consumed : int }

let total_tasks = 1110 (* 10 + 100 + 1000 *)
let spawn_work = 8_000
let max_depth = 3
let fanout = 10

let run ?(seed = 1) ~procs (make : procs:int -> int Pool_obj.pool) =
  let pool = make ~procs in
  let consumed = ref 0 in
  let finish_time = ref 0 in
  let stop () = !consumed >= total_tasks in
  let stats =
    Sim.run ~seed ~procs ~abort_after:400_000_000 (fun p ->
        if p = 0 then
          for _ = 1 to fanout do
            pool.Pool_obj.enqueue 1
          done;
        let rec work () =
          if not (stop ()) then
            match pool.Pool_obj.dequeue ~stop with
            | None -> () (* drained: someone consumed the last task *)
            | Some depth ->
                incr consumed;
                if stop () then finish_time := E.now ()
                else if depth < max_depth then begin
                  E.delay spawn_work;
                  for _ = 1 to fanout do
                    pool.Pool_obj.enqueue (depth + 1)
                  done
                end;
                work ()
        in
        work ())
  in
  ignore stats;
  if !consumed < total_tasks then
    failwith
      (Printf.sprintf "queens: only %d/%d tasks consumed (method %s)"
         !consumed total_tasks pool.Pool_obj.name);
  { procs; elapsed = !finish_time; consumed = !consumed }

let to_json ~method_name (p : point) =
  Report.(
    Obj
      [
        ("kind", Str "queens");
        ("method", Str method_name);
        ("procs", Int p.procs);
        ("elapsed", Int p.elapsed);
        ("consumed", Int p.consumed);
      ])

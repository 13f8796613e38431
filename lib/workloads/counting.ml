(* The counting benchmark of §2.5.2 (Figure 9): every processor loops
   fetch&increment until the horizon.  No anti-tokens, so elimination
   never fires — this isolates the diffraction machinery, comparing the
   original single-prism diffracting balancer against this paper's
   multi-layered prisms, plus the MCS and combining-tree counters. *)

module E = Sim.Engine

type point = {
  procs : int;
  throughput_per_m : int;
  ops : int;
  mem : Sim.stats; (* engine-level operation counters, see Report.ops *)
}

let run ?(seed = 1) ?(horizon = 200_000) ~procs
    (make : procs:int -> Pool_obj.counter) =
  let counter = make ~procs in
  let ops = ref 0 in
  let stats =
    Sim.run ~seed ~procs ~abort_after:((horizon * 4) + 2_000_000) (fun _ ->
        while E.now () < horizon do
          let _ = counter.Pool_obj.fetch_and_inc () in
          if E.now () <= horizon then incr ops
        done)
  in
  if stats.aborted_procs > 0 then
    failwith
      (Printf.sprintf "counting: %d processors stuck (method %s)"
         stats.aborted_procs counter.Pool_obj.cname);
  {
    procs;
    throughput_per_m =
      int_of_float (float_of_int !ops *. 1e6 /. float_of_int horizon);
    ops = !ops;
    mem = stats;
  }

let to_json ~method_name (p : point) =
  Report.(
    Obj
      ([
         ("method", Str method_name);
         ("procs", Int p.procs);
         ("throughput_per_m", Int p.throughput_per_m);
       ]
      @ mem_fields p.mem))

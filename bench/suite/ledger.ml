(* The layer ledger: how a repetition's untraced wall time splits
   across the simulator's layers, estimated as
   count (from the run) x unit cost (from a microbenchmark at the
   point's heap occupancy) / wall time, summed over the run's points.
   Occupancy, not the processor count, sets a heap operation's cost:
   under crash faults a few stuck processors spin alone for most of a
   run's events.  What the
   estimates do not cover — the algorithms, the workload drivers, the
   garbage collector — is the residual.  A negative residual means the
   unit costs overstate the run and the books do not balance; it is
   reported as such, never clipped. *)

type costs = {
  heap_ns : float;  (** push + min_time + pop_min at P live entries *)
  read_ns : float;  (** read round trip, minus the heap *)
  write_ns : float;  (** write round trip, minus the heap and the stamps *)
  rmw_ns : float;  (** read-modify-write round trip, likewise *)
  delay_ns : float;  (** delay round trip, minus the heap *)
  stamp_ns : float;  (** issue_stamp + commit_stamp + shadow_clean *)
  injector_ns : float;  (** fault-plan hooks per event; 0 without a plan *)
  race_ns : float;  (** race-detector cost per access; 0 without it *)
  calib_ns_per_step : float;
      (** the host's speed while these were measured ({!Calib}) *)
}

(* The costs on a host running at [ns_per_step]: the microbenchmarks
   and the repetitions they are set against run minutes apart, and the
   host's speed drifts between them. *)
let at_speed ~ns_per_step k =
  let f = ns_per_step /. k.calib_ns_per_step in
  {
    heap_ns = k.heap_ns *. f;
    read_ns = k.read_ns *. f;
    write_ns = k.write_ns *. f;
    rmw_ns = k.rmw_ns *. f;
    delay_ns = k.delay_ns *. f;
    stamp_ns = k.stamp_ns *. f;
    injector_ns = k.injector_ns *. f;
    race_ns = k.race_ns *. f;
    calib_ns_per_step = ns_per_step;
  }

type counts = {
  occupancy : int;
      (** mean live processors, i.e. heap entries: the processor count
          unless a traced repetition measured it *)
  events : int;
  reads : int;
  writes : int;
  rmws : int;
  heap : bool;  (** false for model-checker runs, which bypass the heap *)
}

type shares = {
  event_heap : float;
  engine_impl : float;
  memory : float;
  faults : float;
  race_detector : float;
  residual : float;
}

let estimate ~costs_at ~wall_s points =
  let f = float_of_int in
  let ns = Array.make 5 0.0 in
  let add i x = ns.(i) <- ns.(i) +. x in
  List.iter
    (fun c ->
      let k = costs_at c.occupancy in
      let accesses = c.reads + c.writes + c.rmws in
      let serialized = c.writes + c.rmws in
      if c.heap then add 0 (f c.events *. k.heap_ns);
      add 1
        ((f c.reads *. k.read_ns) +. (f c.writes *. k.write_ns)
        +. (f c.rmws *. k.rmw_ns)
        +. (f (c.events - accesses) *. k.delay_ns));
      add 2 (f serialized *. k.stamp_ns);
      add 3 (f c.events *. k.injector_ns);
      add 4 (f accesses *. k.race_ns))
    points;
  let share i = ns.(i) /. (wall_s *. 1e9) in
  let event_heap = share 0 and engine_impl = share 1 and memory = share 2
  and faults = share 3 and race_detector = share 4 in
  {
    event_heap;
    engine_impl;
    memory;
    faults;
    race_detector;
    residual =
      1.0 -. (event_heap +. engine_impl +. memory +. faults +. race_detector);
  }

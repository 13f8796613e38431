(* Host-speed calibration.

   The host's speed drifts by tens of percent over minutes, with the
   process's CPU time tracking its wall time, so a slower phase is a
   slower machine, not time taken from the process.  No number of
   repetitions outlasts that.  So while a repetition's timed phase
   runs, a fixed slice of a frozen calibration loop runs every
   [period_s]; the loop's mean cost per step is the host's speed over
   the same seconds the workload ran in.  Dividing the workload's time
   by it, times the reference cost [ref_ns_per_step], gives reference
   seconds: the time the run would take on a host where the loop runs
   at exactly that cost.  Every host time among the end-to-end metrics
   is in reference seconds.

   The loop is the benchmark's own code and uses nothing from lib/, so
   a change to the program cannot move it.  It is what the simulator
   does per event, reduced to integers: pop the least key of a binary
   heap of 256 entries, read and write a pseudo-random slot of a table,
   and sift the key back down.  Half the steps use a 256 KB table, which
   fits a core's L2 cache, and half a 4 MB one, which does not, so the
   loop feels the memory system as the workloads do.  Against the
   workloads' own times over a noisy stretch (log-log slope, ideal 1):
   a loop on the heap alone slowed about 1.3 times less than they did,
   this one 0.81-1.13 times as much (bench/suite/README.md).  The
   tables are Bigarrays, outside the OCaml heap, and the loop does not
   allocate, so neither the heap nor the allocation metrics see it.
   Its own time is subtracted from the workload's.

   A timer signal starts the slices.  OCaml runs the handler at the
   program's next poll point, which the model checker reaches seldom,
   so code the benchmark hands to a library also calls [poll]. *)

let period_s = 0.1
let period_ns = Int64.of_float (period_s *. 1e9)

(* Per table, per slice. *)
let steps = 50_000

(* The cost of one step on the reference host: a round number near the
   low end of the 82-150 ns this repository's 2-core development host
   measured. *)
let ref_ns_per_step = 100.0

let heap_size = 256
let keys = Array.make (heap_size + 1) 0
let rng = ref 1

type table = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let tables : table array Lazy.t =
  lazy
    (Array.map
       (fun ints -> Bigarray.Array1.create Bigarray.int Bigarray.c_layout ints)
       [| 1 lsl 15; 1 lsl 19 |])

let step (table : table) mask =
  rng := (!rng * 0x5851f42d4c957f2d) + 0x14057b7ef767814f;
  let r = !rng lsr 20 in
  let slot = (keys.(1) + r) land mask in
  let v = Bigarray.Array1.unsafe_get table slot + 1 in
  Bigarray.Array1.unsafe_set table slot v;
  let nk = keys.(1) + 1 + (r land 1023) + (v land 7) in
  let i = ref 1 and sifting = ref true in
  while !sifting do
    let c = 2 * !i in
    if c > heap_size then sifting := false
    else begin
      let c = if c < heap_size && keys.(c + 1) < keys.(c) then c + 1 else c in
      if keys.(c) < nk then begin
        keys.(!i) <- keys.(c);
        i := c
      end
      else sifting := false
    end
  done;
  keys.(!i) <- nk

let running = ref false
let slice_ns = ref 0L
let slices = ref 0
let last_ns = ref 0L

(* One slice; its duration in ns. *)
let time_slice () =
  let t0 = Span.now () in
  Array.iter
    (fun table ->
      let mask = Bigarray.Array1.dim table - 1 in
      for _ = 1 to steps do
        step table mask
      done)
    (Lazy.force tables);
  Int64.sub (Span.now ()) t0

let run_slice () =
  last_ns := Span.now ();
  slice_ns := Int64.add !slice_ns (time_slice ());
  incr slices

(* The host's speed now, from one slice run outside any sampling. *)
let ns_per_step_now () = Int64.to_float (time_slice ()) /. float_of_int (2 * steps)

(* A slice, unless one started less than most of a period ago (the
   timer's own ticks jitter). *)
let poll () =
  if !running && Int64.sub (Span.now ()) !last_ns >= Int64.div (Int64.mul period_ns 9L) 10L
  then run_slice ()

let set_timer period =
  ignore
    (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = period; it_value = period })

(* Start sampling. *)
let start () =
  for i = 1 to heap_size do
    keys.(i) <- i
  done;
  Array.iter (fun t -> Bigarray.Array1.fill t 0) (Lazy.force tables);
  rng := 1;
  slice_ns := 0L;
  slices := 0;
  last_ns := Span.now ();
  running := true;
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> poll ()));
  set_timer period_s

type reading = {
  ns_per_step : float;  (** the calibration loop's mean cost while sampling *)
  loop_s : float;  (** time the slices took, to subtract from the run's *)
  samples : int;  (** slices run *)
}

(* Stop sampling.  A phase too short for a slice still gets one, so
   every reading has a speed. *)
let stop () =
  set_timer 0.0;
  Sys.set_signal Sys.sigalrm Sys.Signal_default;
  running := false;
  if !slices = 0 then run_slice ();
  let ns = Int64.to_float !slice_ns in
  {
    ns_per_step = ns /. float_of_int (!slices * 2 * steps);
    loop_s = ns /. 1e9;
    samples = !slices;
  }

(* [s] host seconds, in reference seconds on a host whose loop costs
   [ns_per_step]. *)
let to_ref ~ns_per_step s = s *. ref_ns_per_step /. ns_per_step

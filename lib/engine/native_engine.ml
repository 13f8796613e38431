(* The native engine: OCaml 5 domains and atomics.

   Cells are ['a Atomic.t]; processor identifiers are dense integers
   handed out on each domain's first use through domain-local storage.
   [capacity] bounds how many distinct domains may participate — it sizes
   the per-processor arrays inside the data structures, so it must be set
   (or left at its default of 128) before any structure is built. *)

type 'a cell = 'a Atomic.t

let cell = Atomic.make

type 'a cells = 'a Atomic.t array

let cells n v = Array.init n (fun _ -> Atomic.make v)
let cells_get = Array.get
let cells_length = Array.length

let get = Atomic.get
let set = Atomic.set
let exchange = Atomic.exchange
let compare_and_set = Atomic.compare_and_set
let fetch_and_add = Atomic.fetch_and_add

let capacity = Atomic.make 128

let set_capacity n =
  if n <= 0 then invalid_arg "Native_engine.set_capacity";
  Atomic.set capacity n

let nprocs () = Atomic.get capacity

let next_pid = Atomic.make 0

(* Retired processor ids, reusable by later domains.  Domains are often
   short-lived; without recycling a long-running program would exhaust
   [capacity].  A Treiber-style list of free ids. *)
let free_pids : int list Atomic.t = Atomic.make []

let rec take_free_pid () =
  match Atomic.get free_pids with
  | [] -> None
  | p :: rest as old ->
      if Atomic.compare_and_set free_pids old rest then Some p
      else take_free_pid ()

let pid_key =
  Domain.DLS.new_key (fun () ->
      match take_free_pid () with
      | Some p -> p
      | None -> Atomic.fetch_and_add next_pid 1)

let pid () =
  let p = Domain.DLS.get pid_key in
  if p >= Atomic.get capacity then
    failwith "Native_engine: more domains than the configured capacity";
  p

(* Return the calling domain's processor id to the free pool.  Call this
   as the last engine operation before the domain exits; using any
   structure afterwards from the same domain would alias a live id. *)
let rec release_pid () =
  let p = Domain.DLS.get pid_key in
  let old = Atomic.get free_pids in
  if not (Atomic.compare_and_set free_pids old (p :: old)) then release_pid ()

(* Seed of the per-domain random streams. *)
let seed = 0x9E3779B9

let rng_key =
  Domain.DLS.new_key (fun () ->
      let base = Splitmix.of_int seed in
      Splitmix.split base ~index:(Domain.DLS.get pid_key))

let random_int n = Splitmix.int (Domain.DLS.get rng_key) n

let random_bernoulli ~num ~den =
  Splitmix.bernoulli (Domain.DLS.get rng_key) ~num ~den

let cpu_relax = Domain.cpu_relax

let rec spin_until c until =
  let v = Atomic.get c in
  if until v then v
  else begin
    Domain.cpu_relax ();
    spin_until c until
  end

let delay n =
  for _ = 1 to n do
    Domain.cpu_relax ()
  done

(* Monotonic-ish clock in nanoseconds.  [Sys.time] has coarse resolution
   but the native engine only uses [now] for workload cut-offs, never for
   measurement — benchmarks are timed by Bechamel. *)
let now () = int_of_float (Sys.time () *. 1e9)

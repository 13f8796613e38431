(* The execution-engine abstraction.

   Every concurrent algorithm in this repository (elimination trees,
   diffracting trees, combining trees, MCS locks, pools, RSU) is written
   once as a functor over [S] and instantiated twice:

   - against {!Native_engine}, where a cell is an ['a Atomic.t] and
     processors are OCaml 5 domains — the reusable library; and
   - against [Sim.Engine], where every operation is a discrete-event
     simulation step with a cycle cost and per-location contention — the
     vehicle for reproducing the paper's 256-processor experiments.

   The three read-modify-write primitives are exactly the ones the paper
   assumes of the hardware: [exchange] (the paper's
   [register_to_memory_swap]), [compare_and_set] ([compare_and_swap]) and
   [fetch_and_add] ([fetch_and_increment]).  [compare_and_set] compares
   with physical equality, matching [Atomic.compare_and_set]; all
   algorithms here only ever CAS against a value they previously read or
   wrote, so physical equality is sufficient.

   The effect discipline.  Engine-parametric code must route EVERY
   access to shared state through a cell and the operations below —
   never a raw [ref], [mutable] field, array store or direct [Atomic].
   The discipline is not style: under [Sim.Engine] a raw mutation is a
   zero-cost, unserialized store that the per-location queueing never
   sees, silently corrupting the very contention behaviour the
   experiments measure (and natively it is simply a data race).  Truly
   processor-private or construction-only state may opt out, but each
   such site must carry a justification in
   lib/analysis/lint_allowlist.txt.  Two tools enforce this
   (docs/ANALYSIS.md): the parsetree lint behind `dune build @lint`
   flags raw mutation statically, and [Analysis.Race_detector] audits
   simulated runs dynamically by stamping each location with its last
   engine writer and checking the stamp on every operation. *)

module type S = sig
  type 'a cell
  (** A shared memory location holding a value of type ['a]. *)

  val cell : 'a -> 'a cell
  (** [cell v] allocates a fresh shared location initialized to [v].
      Allocation is free of synchronization cost in both engines, so it
      may be used during data-structure construction. *)

  type 'a cells
  (** A fixed-length array of shared locations. *)

  val cells : int -> 'a -> 'a cells
  (** [cells n v] allocates [n] fresh locations initialized to [v],
      behaving exactly like [Array.init n (fun _ -> cell v)].  Use it
      for large rings whose slots are touched sparsely: natively it is
      that eager array, but the simulator only reserves the block's
      location ids up front and builds each cell on its first
      {!cells_get}, so a run pays only for the slots it touches. *)

  val cells_get : 'a cells -> int -> 'a cell
  (** [cells_get c i] is the [i]-th location of [c] (the same one on
      every call).  Raises [Invalid_argument] if [i] is out of
      bounds. *)

  val cells_length : 'a cells -> int

  val get : 'a cell -> 'a
  (** Atomic read. *)

  val set : 'a cell -> 'a -> unit
  (** Atomic write. *)

  val exchange : 'a cell -> 'a -> 'a
  (** [exchange c v] atomically stores [v] and returns the previous
      value (the paper's register-to-memory swap). *)

  val compare_and_set : 'a cell -> 'a -> 'a -> bool
  (** [compare_and_set c expected desired] atomically replaces the
      contents with [desired] iff they are physically equal to
      [expected]; returns whether the replacement happened. *)

  val fetch_and_add : int cell -> int -> int
  (** [fetch_and_add c k] atomically adds [k] and returns the previous
      value. *)

  val pid : unit -> int
  (** Dense identifier of the calling processor, in [0, nprocs ())].
      Used to index per-processor announcement arrays such as the
      elimination balancer's [Location] array. *)

  val nprocs : unit -> int
  (** Upper bound on the number of processors that will participate. *)

  val delay : int -> unit
  (** [delay n] performs [n] units of local work: simulated cycles under
      the simulator, [Domain.cpu_relax] iterations natively.  This is the
      balancer's spin-wait and the workloads' think time. *)

  val cpu_relax : unit -> unit
  (** A minimal backoff hint, cheaper than [delay 1] natively. *)

  val spin_until : 'a cell -> ('a -> bool) -> 'a
  (** [spin_until c until] reads [c] until [until] holds of the value
      read, with a {!cpu_relax} between reads, and returns that value:
      a spin-wait on a flag another processor writes.  Natively it is
      exactly that loop over [Domain.cpu_relax].  The simulator charges
      the same read and [cpu_relax] per iteration but runs the loop in
      its scheduler, resuming the processor only once a read satisfies
      [until].  So [until] must be a pure host function of the value:
      it may not perform engine operations or touch shared state.  Nor
      may it count its calls: the simulator also calls it to find waits
      no processor can end, and then skips their reads ([Sim.run]). *)

  val random_int : int -> int
  (** [random_int n] draws uniformly from [0, n) using the calling
      processor's private stream (no cross-processor synchronization). *)

  val random_bernoulli : num:int -> den:int -> bool
  (** Bernoulli trial with probability [num/den] on the private stream. *)

  val now : unit -> int
  (** Elapsed time: simulated cycles under the simulator, an approximate
      nanosecond clock natively.  Workload loop bounds use this. *)
end

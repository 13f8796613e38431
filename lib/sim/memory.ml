(* Simulated shared memory with per-location contention.

   Every location carries a [busy_until] timestamp.  Writes and
   read-modify-writes issued at time [t] are serviced starting at
   [max t busy_until] and advance [busy_until] by their latency, so [k]
   simultaneous RMWs on one location cost Theta(k * latency) — the
   hot-spot queueing at a directory home node that the paper's toggle
   bits suffer from and its prisms avoid.

   Reads are charged a fixed latency but do not serialize: they model
   cached / read-shared lines, which is the standard assumption behind
   local-spinning locks such as MCS.  The algorithms in this repository
   only spin on locations they own or on such cached reads.

   Analysis instrumentation (etrees.analysis, dynamic prong): each
   location additionally carries

   - a last-writer {e epoch} [(time, pid, seq)], stamped by every
     engine-level mutation;
   - the service window and issuer of the most recently issued
     serialized operation;
   - a {e shadow} of the value the engine last installed (physical
     identity), so a raw [c.v <- x] that bypasses the effect discipline
     is caught by the next engine operation on the cell.

   All stamps are flat mutable ints (plus one [Obj.t] store), kept
   up to date unconditionally — a handful of host-level stores per
   simulated operation, costing zero simulated cycles — so a
   {!tracer} can be installed at any point of a run.  The checks
   themselves run only while a tracer is installed (see
   [Analysis.Race_detector]). *)

type loc = {
  id : int; (* dense allocation index, for race reports *)
  mutable busy_until : int;
  (* last committed engine-level write: the cell's epoch stamp *)
  mutable epoch_time : int;
  mutable epoch_pid : int; (* -1 until the first engine write *)
  mutable epoch_seq : int;
  (* most recently issued serialized op's service window [begins, finish) *)
  mutable pend_begins : int;
  mutable pend_finish : int;
  mutable pend_pid : int;
  (* physical identity of the engine-installed value (raw-write check) *)
  mutable shadow : Obj.t;
}

type 'a cell = { mutable v : 'a; loc : loc }

(* Locations are allocated during (single-threaded) structure setup or
   inside the (single-threaded) simulator, so a plain counter is safe —
   this is engine-internal state, exempt from the effect discipline. *)
let next_loc_id = ref 0

type config = {
  read_latency : int;  (** cycles for an atomic read *)
  write_latency : int; (** cycles for an atomic write (serializing) *)
  rmw_latency : int;   (** cycles for swap / CAS / fetch&add (serializing) *)
  reads_serialize : bool;
      (** if true, reads also queue on the location (no read sharing) *)
}

let default_config =
  { read_latency = 6; write_latency = 8; rmw_latency = 12;
    reads_serialize = false }

(* Model-sensitivity variant: reads queue like writes, as on a machine
   with no caching of shared lines.  Used by the `model` benchmark to
   show the reported shapes do not hinge on the read-sharing
   assumption. *)
let serialized_reads_config = { default_config with reads_serialize = true }

(* A near-zero-cost configuration: every operation takes one cycle
   (writes/RMWs still serialize per location).  Used by tests that care
   about ordering and algorithmic correctness rather than timing. *)
let uniform_config =
  { read_latency = 1; write_latency = 1; rmw_latency = 1;
    reads_serialize = false }

let fresh id v =
  {
    v;
    loc =
      {
        id;
        busy_until = 0;
        epoch_time = min_int;
        epoch_pid = -1;
        epoch_seq = -1;
        pend_begins = min_int;
        pend_finish = min_int;
        pend_pid = -1;
        shadow = Obj.repr v;
      };
  }

let cell v =
  let id = !next_loc_id in
  incr next_loc_id;
  fresh id v

(* The allocation watermark.  Ids are process-global, so anything that
   wants run-stable location identities (the fault injector's hot-spot
   hashing) must work relative to this. *)
let loc_count () = !next_loc_id

(* A block of locations whose ids [base, base + length) are reserved
   when it is created.  A cell's state is a function of its id and the
   initial value until its first access, so building it on first touch
   is indistinguishable from building it eagerly.  Slots are grouped in
   chunks of 64; a chunk's array is allocated on the first touch of
   any of its slots, and until then it is the shared empty array.  Its
   untouched slots hold the block's [hole], a cell no access ever
   sees. *)
type 'a cells = {
  base : int;
  length : int;
  hole : 'a cell;
  chunks : 'a cell array array;
}

let chunk_bits = 6
let chunk_mask = (1 lsl chunk_bits) - 1

(* The location of every block's hole; -1 is no location's id. *)
let hole_loc = (fresh (-1) ()).loc

let cells n v =
  if n < 0 then invalid_arg "Sim.Memory.cells: negative length";
  let base = !next_loc_id in
  next_loc_id := base + n;
  {
    base;
    length = n;
    hole = { v; loc = hole_loc };
    chunks = Array.make ((n + chunk_mask) lsr chunk_bits) [||];
  }

let materialise cs i =
  let c = fresh (cs.base + i) cs.hole.v in
  let k = i lsr chunk_bits in
  if Array.length cs.chunks.(k) = 0 then
    cs.chunks.(k) <- Array.make (chunk_mask + 1) cs.hole;
  cs.chunks.(k).(i land chunk_mask) <- c;
  c

let cells_get cs i =
  if i < 0 || i >= cs.length then invalid_arg "index out of bounds";
  let chunk = cs.chunks.(i lsr chunk_bits) in
  if Array.length chunk = 0 then materialise cs i
  else
    let c = chunk.(i land chunk_mask) in
    if c == cs.hole then materialise cs i else c

let cells_length cs = cs.length

(* ------------------------------------------------------------------ *)
(* Analysis hooks                                                      *)
(* ------------------------------------------------------------------ *)

(* Callbacks observing engine-level operations.  [on_issue] fires when
   a serialized op is issued, BEFORE the location's pending-window
   stamp is overwritten, so the observer can compare the new window
   against the previous one (the scheduler self-check).  [on_read] and
   [on_commit] fire at the operation's completion event, after the
   [clean] raw-write check but before (commit) stamps are refreshed.

   [on_reads] is count-only: it stands for [on_read] calls a dead
   run's fast-forward skips (see scheduler.ml, "Dead spins").  Its
   reads are the last stepped period's, in call order; the calls it
   stands for are those reads again, period after period, each time
   [period] cycles later, [repeats] times.  Nothing commits or issues
   meanwhile, so every location's value and stamps are what they are
   at the call, and a tracer can answer for all the repeats at once. *)
type read = {
  r_loc : loc;
  r_pid : int;
  r_issued : int;
  r_fired : int;
  r_serialized : bool;
  r_clean : bool;
}

type tracer = {
  on_read :
    loc -> pid:int -> issued:int -> fired:int -> serialized:bool ->
    clean:bool -> unit;
  on_reads : read list -> period:int -> repeats:int -> unit;
  on_issue : loc -> pid:int -> now:int -> begins:int -> finish:int -> unit;
  on_commit : loc -> pid:int -> time:int -> clean:bool -> unit;
}

let tracer : tracer option ref = ref None

(* True iff the cell's current value is (physically) the one the engine
   last installed: a mismatch means a raw [c.v <- x] bypassed the
   effect discipline.  Physical identity is the same criterion the
   engines' CAS uses; a raw write that reinstalls the identical value
   is invisible, which is the usual soundness/completeness trade of a
   dynamic detector (no false positives, idempotent raw writes are
   missed). *)
let shadow_clean c = Obj.repr c.v == c.loc.shadow

(* Stamp a committed engine-level mutation: refresh the shadow and the
   last-writer epoch. *)
let commit_stamp c ~pid ~time ~seq =
  c.loc.shadow <- Obj.repr c.v;
  c.loc.epoch_time <- time;
  c.loc.epoch_pid <- pid;
  c.loc.epoch_seq <- seq

(* Stamp a serialized operation's service window at issue time (called
   by the scheduler after [on_issue]). *)
let issue_stamp loc ~pid ~begins ~finish =
  loc.pend_begins <- begins;
  loc.pend_finish <- finish;
  loc.pend_pid <- pid

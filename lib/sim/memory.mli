(** Simulated shared memory with per-location contention.

    Writes and read-modify-writes issued at time [t] are serviced
    starting at [max t busy_until] of their location and advance it by
    their latency — so k simultaneous RMWs on one location cost
    Θ(k·latency), the hot-spot queueing the paper's constructions are
    designed around.  Reads are charged a fixed latency but do not
    serialize (they model cached / read-shared lines, the assumption
    behind local-spinning locks).

    Each location also carries analysis stamps — a last-writer epoch
    [(time, pid, seq)], the most recent serialized service window, and
    a shadow of the engine-installed value — kept up to date
    unconditionally so [Analysis.Race_detector] can hook a {!tracer} in
    at any time.  See docs/ANALYSIS.md. *)

type loc = {
  id : int;                   (** dense allocation index, for reports *)
  mutable busy_until : int;   (** serialization chain state *)
  mutable epoch_time : int;   (** last engine write: completion time *)
  mutable epoch_pid : int;    (** last engine write: pid (-1 = none) *)
  mutable epoch_seq : int;    (** last engine write: scheduler seq *)
  mutable pend_begins : int;  (** latest serialized window start *)
  mutable pend_finish : int;  (** latest serialized window end *)
  mutable pend_pid : int;     (** latest serialized issuer *)
  mutable shadow : Obj.t;     (** engine-installed value (physical) *)
}
(** Serialization and analysis state of one location. *)

type 'a cell = { mutable v : 'a; loc : loc }
(** A shared location.  Mutated only by the scheduler, at event-fire
    time; any other mutation breaks the effect discipline and is what
    the race detector exists to catch. *)

type config = {
  read_latency : int;  (** cycles for an atomic read *)
  write_latency : int; (** cycles for an atomic write (serializing) *)
  rmw_latency : int;   (** cycles for swap / CAS / fetch&add (serializing) *)
  reads_serialize : bool;
      (** if true, reads also queue on the location (no read sharing) *)
}

val default_config : config
(** 6 / 8 / 12 cycles — the Alewife-like defaults of DESIGN.md §6. *)

val uniform_config : config
(** Every operation one cycle, still serialized per location: for tests
    that care about ordering rather than timing. *)

val serialized_reads_config : config
(** The defaults but with reads queueing like writes — a machine with
    no read sharing of hot lines (model-sensitivity ablation). *)

val cell : 'a -> 'a cell
(** Allocate a fresh location (free of simulated cost). *)

val loc_count : unit -> int
(** The allocation watermark: locations ever allocated (or reserved by
    {!cells}) in this process.  Ids grow monotonically across runs, so
    consumers wanting run-stable identities (e.g. the fault injector's
    hot-spot hashing) subtract a watermark taken at setup time. *)

type 'a cells
(** A block of locations built lazily: [Engine.S.cells]. *)

val cells : int -> 'a -> 'a cells
(** [cells n v] reserves the next [n] location ids at once, advancing
    {!loc_count} by [n], but builds no cell yet. *)

val cells_get : 'a cells -> int -> 'a cell
(** The [i]-th cell of the block, id [base + i], built with fresh
    stamps on its first access: it is then indistinguishable from the
    [i]-th cell of [Array.init n (fun _ -> cell v)] allocated at the
    same watermark.  Raises [Invalid_argument] out of bounds. *)

val cells_length : 'a cells -> int

(** {1 Analysis hooks (etrees.analysis)} *)

type read = {
  r_loc : loc;
  r_pid : int;
  r_issued : int;
  r_fired : int;
  r_serialized : bool;
  r_clean : bool;
}
(** One [on_read] call's arguments. *)

type tracer = {
  on_read :
    loc -> pid:int -> issued:int -> fired:int -> serialized:bool ->
    clean:bool -> unit;
      (** a read completed; [clean] is the {!shadow_clean} verdict *)
  on_reads : read list -> period:int -> repeats:int -> unit;
      (** count-only: [on_reads reads ~period ~repeats] stands for the
          [on_read] calls of [reads], in order, made again for
          [j = 1 .. repeats] in turn with [issued] and [fired] moved
          [j * period] cycles later.  Expanding it so gives exactly the
          calls it replaces.  A dead run's fast-forward makes it once
          (see [Sim.run]): [reads] are the calls of the last period it
          stepped, just made, and the skipped periods repeat them
          exactly, since the queue repeats every period and a failed
          read runs no processor code (scheduler.ml, "Dead spins").
          Nothing commits and nothing issues while they are skipped,
          so every location's value and stamps stay what they are at
          the call, and a tracer can answer in O([reads]) instead of
          O([repeats * reads]). *)
  on_issue : loc -> pid:int -> now:int -> begins:int -> finish:int -> unit;
      (** a serialized op was issued — fires {e before} the pending
          window is overwritten, so [loc.pend_finish] still describes
          the previous operation *)
  on_commit : loc -> pid:int -> time:int -> clean:bool -> unit;
      (** a serialized op completed; [clean] as above, checked before
          the op's own mutation *)
}

val tracer : tracer option ref
(** The installed observer, if any.  Install/restore via
    [Analysis.Race_detector]; the simulator is single-threaded, so a
    plain ref is safe. *)

val shadow_clean : 'a cell -> bool
(** Whether the cell's value is (physically) the engine-installed one.
    [false] means a raw [c.v <- x] bypassed the effect discipline. *)

val commit_stamp : 'a cell -> pid:int -> time:int -> seq:int -> unit
(** Record a committed engine-level mutation (shadow + epoch). *)

val issue_stamp : loc -> pid:int -> begins:int -> finish:int -> unit
(** Record a serialized op's service window at issue time. *)

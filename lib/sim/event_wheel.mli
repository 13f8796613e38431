(** The step loop's event queue: a timing wheel of pids, with an
    {!Event_heap} as its overflow tier.

    It holds at most one entry per pid and returns entries in exact
    [(time, seq)] order, as {!Event_heap} would, provided its callers
    keep the scheduler's discipline: every insertion takes a fresh seq,
    larger than all earlier ones and non-negative, and none is due
    before the {!cursor} (except during {!drain}).  Inserting an entry
    costs O(1) whatever the number of pending pids; {!pop_due} finds and
    takes the next one with one walk of the cursor, one step per empty
    cycle skipped. *)

type t

val none : t
(** The one shared queue of controlled runs, which keep their pending
    events in the scheduler's slots instead.  It must never be pushed
    to. *)

val create : procs:int -> t
(** An empty queue for pids [0 .. procs - 1].  The bucket arrays are
    the process's spare pair when one is free (see {!release}), and
    fresh ones otherwise, as for a run nested in another. *)

val release : t -> unit
(** Hand [t]'s bucket arrays back as the spare pair, cleared first if
    entries are left (the run raised).  [t] must not be used again.  A
    no-op on {!none}. *)

val is_empty : t -> bool

val push : t -> time:int -> seq:int -> int -> unit
(** [push t ~time ~seq p] queues pid [p], which has no entry, due at
    [time] with key [(time, seq)].  Raises [Invalid_argument] if [time]
    is before the {!cursor}, outside {!drain}. *)

val pop_due : t -> horizon:int -> int
(** Remove the earliest entry and return its pid, whose time is then
    the {!cursor}; or return [-1] if the queue is empty or the earliest
    entry is due after [horizon], which leaves it queued.  Moves the
    cursor to the earliest entry's time unless the queue is empty. *)

val cursor : t -> int
(** The wheel's current time, [0] when created: the time of the entry
    {!pop_due} last returned, or of the earliest entry when it last
    returned [-1] on a non-empty queue. *)

val drain : t -> (int -> unit) -> unit
(** [drain t f] removes every entry in key order, applying [f] to its
    pid.  Entries [f] pushes are drained too, in key order, even those
    due before the cursor. *)

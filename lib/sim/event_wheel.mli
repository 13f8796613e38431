(** The step loop's event queue: a timing wheel of pids, with an
    {!Event_heap} as its overflow tier.

    It holds at most one entry per pid and returns entries in exact
    [(time, seq)] order, as {!Event_heap} would, provided its callers
    keep the scheduler's discipline: every insertion takes a fresh seq,
    larger than all earlier ones and non-negative, and none is due
    before the {!cursor} (except during {!drain}).  Inserting an entry
    costs O(1) whatever the number of pending pids; {!pop_due} finds and
    takes the next one with one walk of the cursor, one step per empty
    cycle skipped.  An entry may stand for a chain of pids due together
    under consecutive seqs, its own first: the wheel orders it by its
    own key, and only {!drain} unchains it. *)

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

val head : t -> int
(** The pid at the head of the {!cursor}'s bucket, the entry
    {!pop_due} would return next if it is due now, or [-1].  Entries
    due at the cursor are all in its bucket, so [-1] means none is. *)

val drop_head : t -> unit
(** Remove the entry {!head} returned; there must be one. *)

val spills : t -> bool
(** Whether the overflow tier holds an entry, one due 1,024 or more
    cycles past the {!cursor} when it was queued. *)

val shift : t -> by:int -> unit
(** [shift t ~by] moves every entry, and the {!cursor}, [by] cycles
    later, keeping their order and their chains.  It costs one pass
    over the buckets whatever [by] is.  Raises [Invalid_argument] if
    the overflow tier holds an entry ({!spills}) or {!drain} has
    begun. *)

val drain : t -> next:(int -> int) -> (int -> unit) -> unit
(** [drain t ~next f] removes every entry in key order, applying [f] to
    its pid.  An entry may stand for a chain of pids due together under
    consecutive seqs, its own first: [next p] is the pid after [p] in
    its chain, or [-1].  [f] gets each member right after the pid
    before it, as if it had an entry of its own.  [drain] may ask [next]
    about a pid more than once, and [next] must answer [-1] after its
    first answer about it.  Entries [f] pushes
    are drained too, in key order, even those due before the cursor. *)

val no_members : int -> int
(** [-1] for every pid: the [next] of a queue whose entries are single
    pids. *)

(** A binary min-heap of timestamped events, keyed by [(time, seq)]
    compared lexicographically.  [seq] is a strictly increasing
    insertion counter, so same-instant events fire in insertion order —
    this tie-break is what makes whole simulations deterministic. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> time:int -> seq:int -> 'a -> unit
(** Insert an event. *)

val pop : 'a t -> (int * int * 'a) option
(** Remove and return the least [(time, seq, payload)]. *)

val min_time : 'a t -> int
(** The least entry's [time], without removing it.  No allocation; the
    event wheel's refill pairs it with {!pop_min} instead of paying
    {!pop}'s option-and-tuple per event.  Raises [Invalid_argument] on
    an empty heap. *)

val pop_min : 'a t -> 'a
(** Remove the least entry and return its payload alone (no
    allocation).  Raises [Invalid_argument] on an empty heap. *)

val drain : 'a t -> (int -> int -> 'a -> unit) -> unit
(** [drain t f] pops every remaining event in key order, applying [f];
    events pushed by [f] itself are drained too. *)

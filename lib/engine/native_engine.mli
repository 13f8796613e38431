(** The native execution engine: OCaml 5 [Atomic] cells and [Domain]
    processors.  Implements {!Sig_.S}; see that signature for the
    semantics of each operation.

    Processor identifiers are dense integers handed out on each
    domain's first engine operation and recycled via {!release_pid}.
    {!set_capacity} bounds how many domains may participate at once and
    must be called before building any structure (it sizes their
    per-processor arrays). *)

include Sig_.S with type 'a cell = 'a Atomic.t

val set_capacity : int -> unit
(** [set_capacity n] declares that at most [n] domains will use the
    engine simultaneously.  Default 128.  Raises [Invalid_argument] on
    non-positive [n]. *)

val release_pid : unit -> unit
(** Return the calling domain's processor id to the free pool; call as
    the last engine operation before the domain exits.  Using any
    engine-based structure from the same domain afterwards would alias
    a potentially live id. *)

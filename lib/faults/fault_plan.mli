(** Seeded, deterministic fault plans (the heart of etrees.faults).

    A {!t} is a pure, seed-derived schedule of adversarial events —
    processor stalls, crash-stops, per-location memory hot spots and
    latency spikes, and jittered local delays — compiled by {!injector}
    into the scheduler hooks of [Sim.Scheduler].  The same [(seed,
    plan)] pair always replays the identical execution; nothing in the
    plan or its application consults wall-clock time or global
    randomness.  See docs/FAULTS.md for the fault model and the
    determinism contract. *)

type event =
  | Stall of { pid : int; at : int; cycles : int }
      (** [pid]'s next event at or after [at] (and any event inside
          [\[at, at+cycles)]) is deferred to [at + cycles] *)
  | Crash of { pid : int; at : int }
      (** crash-stop: no event of [pid] fires at or after [at]; held
          locks stay held, in-flight operations die *)
  | Hotspot of { from_ : int; until_ : int; factor : int; num : int;
                 den : int; salt : int }
      (** during [\[from_, until_)], every memory operation on a
          location selected with probability [num/den] (by a pure hash
          of the location id and [salt]) costs [factor] times its base
          latency — a sustained hot-spot slowdown when the window is
          long, a latency spike when it is short *)
  | Jitter of { from_ : int; until_ : int; amp : int }
      (** during [\[from_, until_)], every [delay n] is lengthened by a
          pure-hash-derived amount in [\[0, amp\]] *)

type t = {
  seed : int;     (** derives event placement and all jitter/selection *)
  events : event list;
}

val none : t
val is_none : t -> bool

(** {1 Seed-derived constructors} *)

val stalls : seed:int -> procs:int -> horizon:int -> count:int ->
  cycles:int -> t
(** [count] stalls of [cycles] cycles each, at seed-derived processors
    and start times in [\[0, horizon)]. *)

val crashes : seed:int -> procs:int -> horizon:int -> count:int -> t
(** [count] crash-stops at seed-derived distinct processors and times.
    [count] is clamped to [procs - 1]: at least one processor survives. *)

val hotspot : ?salt:int -> ?num:int -> ?den:int -> from_:int ->
  until_:int -> factor:int -> unit -> t
(** One hot-spot window; by default ([num]=1, [den]=8) it slows an
    eighth of all locations. *)

val jitter : from_:int -> until_:int -> amp:int -> t

val union : seed:int -> t list -> t
(** Merge the events of several plans under one seed. *)

val ladder : seed:int -> procs:int -> horizon:int -> level:int -> t
(** The fault-intensity ladder of the [chaos] benchmark: level 0 is
    {!none}; each further level adds a fault class (1 stalls, 2 + hot
    spot + jitter, 3 + crashes).  Levels above 3 clamp to 3. *)

val ladder_levels : int
val level_label : int -> string

(** {1 CLI plumbing} *)

val parse_pair : string -> (int * int, string) result
(** Parse a ["COUNTxCYCLES"] spec such as ["8x2000"]; both components
    must be positive. *)

val of_flags : fault_seed:int -> procs:int -> horizon:int ->
  stall:(int * int) option -> crash:int -> hotspot:(int * int) option ->
  jitter:int -> t
(** Assemble a plan from the [chaos] subcommand's flags: [stall =
    (count, cycles)], [crash = count], [hotspot = (factor, denominator)]
    (slows [1/denominator] of locations for the middle half of the
    run), [jitter = amplitude] (whole run). *)

(** {1 Inspection} *)

val describe : t -> string
(** Stable, human-readable one-line summary (reports and the
    determinism regression test both rely on its stability). *)

val crash_count : t -> int
(** Number of distinct processors the plan crash-stops. *)

val faulty_pids : t -> int list
(** Sorted distinct pids targeted by stalls or crashes. *)

val injector : t -> Sim.Scheduler.injector
(** Compile the plan into scheduler hooks.  Pure: two injectors from
    equal plans behave identically.  Its [quiet_from] is the end of the
    plan's last window, the latest of every stall's [at + cycles], every
    crash's [at], every hot spot's [until_] and every jitter's [until_]
    when its [amp > 0]; it is 0 for an empty plan.  From that cycle on
    no hook depends on time, and a run leaves the injector once no
    processor with a pending event has a crash still to come. *)

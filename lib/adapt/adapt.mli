(** Reactive elimination: per-balancer adaptive spin windows and
    elastic prism widths (docs/ADAPTIVE.md).

    A {!Controller} applies a multiplicative-increase /
    multiplicative-decrease rule with a hysteresis dead band to a
    balancer's spin window and per-layer effective prism widths, driven
    by the balancer's own windowed counters.  Decisions are
    seed-deterministic (a private {!Engine.Splitmix} stream, no wall
    clock, no engine-visible state) so simulated runs stay
    byte-replayable. *)

type config = {
  period : int;   (** balancer entries per adaptation epoch (>= 1) *)
  hi_pct : int;   (** grow when hit%% >= [hi_pct] *)
  lo_pct : int;   (** shrink when hit%% <= [lo_pct]; <= [hi_pct] *)
  up_num : int;
  up_den : int;   (** increase factor [up_num/up_den] >= 1 *)
  down_num : int;
  down_den : int; (** decrease factor [down_num/down_den] <= 1 *)
  min_pct : int;  (** clamp floor, percent of the static value *)
  max_pct : int;  (** clamp ceiling, percent of the static value *)
  seed : int;     (** derives every controller's private stream *)
}

val default : config

val validate_config : config -> config
(** Returns its argument; raises [Invalid_argument] on nonsense
    (period < 1, inverted thresholds, factors on the wrong side of 1,
    empty clamp band). *)

type policy = [ `Static | `Reactive of config ]
(** [`Static] is the paper's hand tuning; [`Reactive c] runs a
    controller per balancer.  With [c.min_pct = c.max_pct = 100] the
    controller is clamped to the static values and a simulated run is
    byte-identical to [`Static]. *)

val policy_name : policy -> string

type window = {
  entries : int;
  hits : int;    (** eliminated + diffracted individuals *)
  misses : int;  (** candidate seen but no collision came of it *)
  toggled : int; (** fell through to the serialized toggle *)
}
(** One observation window of a balancer's counters, as plain counts. *)

type direction = Grow | Shrink | Hold

module Controller : sig
  type t

  val create : config:config -> id:int -> spin0:int -> widths0:int list -> t
  (** [spin0] and [widths0] are the balancer's static settings; they
      seed the current values and define the clamp bands.  [id] (the
      balancer's tree index) splits the private decision stream. *)

  val spin : t -> int
  val width : t -> layer:int -> int
  val widths : t -> int list
  val spin_bounds : t -> int * int
  val width_bounds : t -> layer:int -> int * int

  val alloc_widths : t -> int list
  (** Prism array sizes to allocate: the clamp ceilings, so widths can
      grow without reallocating shared arrays mid-run. *)

  val tick : t -> bool
  (** Count one balancer entry; [true] when this entry closes an
      adaptation epoch and the caller should {!decide} on the window. *)

  type decision = {
    dir : direction;
    spin : int;
    widths : int list;
    spin_changed : bool;
    width_changed : bool list;  (** per layer, outermost first *)
  }

  val changed : decision -> bool

  val decide : t -> window -> decision
  (** Apply the MIMD rule to one window and update the current values.
      Deterministic given the controller's construction and the
      sequence of windows fed to it. *)

  val epochs : t -> int
  val grows : t -> int
  val shrinks : t -> int
  val last_direction : t -> direction

  val snapshot : t -> int * int list
  (** Current [(spin, widths)]. *)
end

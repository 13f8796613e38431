(* Reactive elimination (etrees.adapt): adaptive spin windows and
   elastic prism widths.

   The paper tunes every balancer by hand — spin halving with depth,
   prism widths fixed per level (§2.5, DESIGN.md §6).  Those settings
   win at saturation but pay the whole collision window as pure latency
   when the tree is lightly loaded: a traversal that will never meet a
   partner still spins [spin] cycles per prism layer before it may fall
   through to the toggle.  Later work (dynamic elimination-combining,
   Bar-Nissan/Hendler/Suissa 2011; the adaptive elimination priority
   queue, Calciu/Mendes/Herlihy 2014) showed the knobs should react to
   observed contention.  This module is that policy layer.

   One {!Controller} per balancer watches the balancer's own cheap
   window counters ({!Core.Elim_stats.take_window}: entries, hits =
   eliminations + diffractions, elimination misses, toggle falls) and
   every [period] entries applies a multiplicative-increase /
   multiplicative-decrease (MIMD) rule with a hysteresis dead band:

   - hit% = 100 * hits / entries — the fraction of window entries whose
     collision window earned its keep (the complement, up to in-flight
     slack, of the toggle-fall rate).  Misses are recorded in the
     window and exported, but they are per-attempt (one entry can miss
     several times across prism layers) and stay high even when the
     tree is nearly idle, so they make a poor direction signal; the
     measured hit rate is the one that separates a saturated level from
     a lightly loaded one;
   - hit% >= hi: grow the spin window and the effective prism widths by
     [up], back toward the static tuning (the window is earning
     collisions — the ceiling, [max_pct] of static, caps how far);
   - hit% <= lo: shrink both by [down] (entries are falling through to
     the serialized toggle without colliding — stop paying the window
     and concentrate the few announcements on a narrower prism);
   - lo < hit% < hi: hold (the dead band is the hysteresis — a value
     that just moved will not bounce back on a marginal window).

   Every adapted value is clamped to a band derived from its static
   (paper-tuned) setting: [min_pct]/[max_pct] percent of the static
   value.  The default ceiling is the static value itself
   ([max_pct = 100]): the bench sweep shows over-long windows lose at
   saturation *and* at low load, so reactive only ever gives back what
   shrinking took.  With [min_pct = max_pct = 100] the controller still
   runs but every decision lands back on the static value — the
   differential tests use this to prove the plumbing is behaviourally
   invisible.

   Determinism: decisions are a pure function of the window counters
   plus a private {!Engine.Splitmix} stream seeded from
   [(config.seed, balancer id)] (used only for randomized rounding of
   the multiplicative steps).  No wall clock, no engine state: a
   simulated run with a reactive tree is byte-replayable, and the
   controller itself performs no engine-visible shared-memory
   operations — its state is host-level, like {!Core.Elim_stats}
   (single-writer-at-a-time under the simulator; racy-but-approximate
   under the native engine, exactly like the stats it reads). *)

type config = {
  period : int;  (* balancer entries per adaptation epoch (>= 1) *)
  hi_pct : int;  (* grow when hit% >= hi_pct *)
  lo_pct : int;  (* shrink when hit% <= lo_pct; lo_pct <= hi_pct *)
  up_num : int;
  up_den : int;  (* multiplicative increase factor up_num/up_den > 1 *)
  down_num : int;
  down_den : int;  (* multiplicative decrease factor < 1 *)
  min_pct : int;  (* clamp floor, percent of the static value *)
  max_pct : int;  (* clamp ceiling, percent of the static value *)
  seed : int;  (* derives every controller's private stream *)
}

(* Defaults picked by the A1 sweep (EXPERIMENTS.md): decide every 128
   entries (a window small enough to react within a few thousand cycles
   but big enough that a saturated level's hit rate — ~94% and up, with
   a binomial std of ~2 points — cannot wander into the shrink region
   by noise), shrink gently (x3/4) and regrow fast (x3/2), allow an
   ~8x shrink, and cap growth at the static tuning itself
   (max_pct = 100: the sweep shows longer-than-paper windows lose at
   both ends of the load axis). *)
let default =
  {
    period = 128;
    hi_pct = 92;
    lo_pct = 80;
    up_num = 3;
    up_den = 2;
    down_num = 3;
    down_den = 4;
    min_pct = 12;
    max_pct = 100;
    seed = 0x5EED;
  }

let validate_config c =
  if c.period < 1 then invalid_arg "Adapt: period must be >= 1";
  if not (0 <= c.lo_pct && c.lo_pct <= c.hi_pct && c.hi_pct <= 100) then
    invalid_arg "Adapt: need 0 <= lo_pct <= hi_pct <= 100";
  if c.up_den < 1 || c.up_num < c.up_den then
    invalid_arg "Adapt: up factor must be >= 1";
  if c.down_num < 0 || c.down_den < 1 || c.down_num > c.down_den then
    invalid_arg "Adapt: down factor must be <= 1";
  if c.min_pct < 1 || c.max_pct < c.min_pct then
    invalid_arg "Adapt: need 1 <= min_pct <= max_pct";
  c

type policy = [ `Static | `Reactive of config ]

let policy_name = function `Static -> "static" | `Reactive _ -> "reactive"

(* The clamp band for one knob whose static (paper) value is [base]:
   never below 1 either way. *)
let clamp_bounds config ~base =
  let lo = max 1 (base * config.min_pct / 100) in
  let hi = max lo (base * config.max_pct / 100) in
  (lo, hi)

(* One observation window, as plain counts (the balancer converts its
   {!Core.Elim_stats} window into this; [adapt] must not depend on
   [core], which depends back on it through {!Core.Tree_config}). *)
type window = {
  entries : int;
  hits : int;  (* eliminated + diffracted individuals *)
  misses : int;  (* candidate seen, no collision came of it *)
  toggled : int;  (* fell through to the serialized toggle *)
}

type direction = Grow | Shrink | Hold

module Controller = struct
  type t = {
    config : config;
    rng : Engine.Splitmix.t;  (* private stream: randomized rounding *)
    spin_base : int;
    spin_lo : int;
    spin_hi : int;
    width_base : int array;  (* static prism widths, outermost first *)
    width_lo : int array;
    width_hi : int array;
    mutable spin : int;
    widths : int array;  (* current effective widths *)
    mutable since_epoch : int;  (* entries since the last decision *)
    mutable epochs : int;
    mutable grows : int;
    mutable shrinks : int;
    mutable last : direction;
  }

  let clamp ~lo ~hi v = min hi (max lo v)

  let create ~config ~id ~spin0 ~widths0 =
    let config = validate_config config in
    let widths0 = Array.of_list widths0 in
    let bounds base = Array.map (fun b -> clamp_bounds config ~base:b) base in
    let wb = bounds widths0 in
    let spin_lo, spin_hi = clamp_bounds config ~base:(max 1 spin0) in
    {
      config;
      rng = Engine.Splitmix.stream ~seed:config.seed ~index:id;
      spin_base = max 1 spin0;
      spin_lo;
      spin_hi;
      width_base = widths0;
      width_lo = Array.map fst wb;
      width_hi = Array.map snd wb;
      (* Start clamped: a band that excludes the static value (e.g.
         min_pct > 100) must bind from the first entry, not only after
         the first Grow/Shrink epoch. *)
      spin = clamp ~lo:spin_lo ~hi:spin_hi (max 1 spin0);
      widths = Array.mapi (fun i b -> clamp ~lo:(fst wb.(i)) ~hi:(snd wb.(i)) b) widths0;
      since_epoch = 0;
      epochs = 0;
      grows = 0;
      shrinks = 0;
      last = Hold;
    }

  let spin t = t.spin
  let width t ~layer = t.widths.(layer)
  let widths t = Array.to_list t.widths
  let spin_bounds t = (t.spin_lo, t.spin_hi)
  let width_bounds t ~layer = (t.width_lo.(layer), t.width_hi.(layer))

  (* Prism allocation sizes: the clamp ceilings, so an elastic width can
     grow without reallocating shared arrays mid-run. *)
  let alloc_widths t = Array.to_list t.width_hi

  let epochs t = t.epochs
  let grows t = t.grows
  let shrinks t = t.shrinks
  let last_direction t = t.last

  (* Count one balancer entry; [true] when this entry closes an
     adaptation epoch and the caller should feed the window to
     {!decide}. *)
  let tick t =
    t.since_epoch <- t.since_epoch + 1;
    if t.since_epoch >= t.config.period then begin
      t.since_epoch <- 0;
      true
    end
    else false

  type decision = {
    dir : direction;
    spin : int;
    widths : int list;
    spin_changed : bool;
    width_changed : bool list;  (* per layer, outermost first *)
  }

  let changed d = d.spin_changed || List.exists Fun.id d.width_changed

  (* Randomized-rounding multiplicative step, drawn from the private
     stream so equal counters always round the same way per seed. *)
  let scale t ~num ~den v = ((v * num) + Engine.Splitmix.int t.rng den) / den

  let decide t (w : window) =
    t.epochs <- t.epochs + 1;
    let dir =
      if w.entries <= 0 then Hold
      else
        let hit_pct = 100 * w.hits / w.entries in
        if hit_pct >= t.config.hi_pct then Grow
        else if hit_pct <= t.config.lo_pct then Shrink
        else Hold
    in
    (* Consume the stream uniformly across directions: a Hold epoch
       must leave the rounding stream where a Grow/Shrink epoch would,
       so later decisions do not depend on the dead band's history. *)
    let step ~lo ~hi v =
      match dir with
      | Grow ->
          clamp ~lo ~hi
            (max (v + 1) (scale t ~num:t.config.up_num ~den:t.config.up_den v))
      | Shrink ->
          clamp ~lo ~hi
            (min (v - 1)
               (scale t ~num:t.config.down_num ~den:t.config.down_den v))
      | Hold ->
          let (_ : int) = Engine.Splitmix.int t.rng 2 in
          v
    in
    let spin' = step ~lo:t.spin_lo ~hi:t.spin_hi t.spin in
    let spin_changed = spin' <> t.spin in
    t.spin <- spin';
    let width_changed =
      List.init (Array.length t.widths) (fun i ->
          let w' = step ~lo:t.width_lo.(i) ~hi:t.width_hi.(i) t.widths.(i) in
          let c = w' <> t.widths.(i) in
          t.widths.(i) <- w';
          c)
    in
    (match dir with
    | Grow -> t.grows <- t.grows + 1
    | Shrink -> t.shrinks <- t.shrinks + 1
    | Hold -> ());
    t.last <- dir;
    { dir; spin = spin'; widths = Array.to_list t.widths; spin_changed;
      width_changed }

  (* Everything a report needs about one controller's current state. *)
  let snapshot (t : t) = (t.spin, Array.to_list t.widths)
end

(* A binary min-heap of timestamped events.

   Keys are [(time, seq)] pairs compared lexicographically: [seq] is a
   strictly increasing insertion counter, so events scheduled for the
   same simulated instant fire in insertion order.  That tie-break makes
   whole simulations deterministic functions of the seed.

   This module is on the per-event hot path of every simulation, so it
   allocates nothing per event: the keys live in two flat [int] arrays
   beside the payloads (no entry record), and the sift loops are
   top-level functions that move a hole instead of swapping entries
   (the moving entry rides in their arguments).  The event wheel's
   refill reads the root with [min_time] and takes it with [pop_min];
   the option-and-tuple [pop] is kept for drain and tests.  The
   @allocheck census certifies this — see lib/analysis/alloc_budget.txt. *)

type 'a t = {
  mutable time : int array;
  mutable seq : int array;
  mutable payload : 'a array;
  mutable n : int;
}

let create () = { time = [||]; seq = [||]; payload = [||]; n = 0 }

let length t = t.n

let is_empty t = t.n = 0

let lt (t1 : int) (s1 : int) t2 s2 = t1 < t2 || (t1 = t2 && s1 < s2)

let extend a ~len ~cap fill =
  let a' = Array.make cap fill in
  Array.blit a 0 a' 0 len;
  a'

let grow t x =
  let cap = Array.length t.time and len = t.n in
  if len = cap then begin
    let cap = if cap = 0 then 64 else cap * 2 in
    t.time <- extend t.time ~len ~cap 0;
    t.seq <- extend t.seq ~len ~cap 0;
    t.payload <- extend t.payload ~len ~cap x
  end

(* Move the hole at [i] up past larger parents, then fill it. *)
let rec sift_up ta sa pa i time seq x =
  let parent = (i - 1) / 2 in
  if i > 0 && lt time seq ta.(parent) sa.(parent) then begin
    ta.(i) <- ta.(parent);
    sa.(i) <- sa.(parent);
    pa.(i) <- pa.(parent);
    sift_up ta sa pa parent time seq x
  end
  else begin
    ta.(i) <- time;
    sa.(i) <- seq;
    pa.(i) <- x
  end

(* Move the hole at [i] down past smaller children, then fill it. *)
let rec sift_down ta sa pa n i time seq x =
  let l = (2 * i) + 1 in
  let c =
    if l + 1 < n && lt ta.(l + 1) sa.(l + 1) ta.(l) sa.(l) then l + 1 else l
  in
  if c < n && lt ta.(c) sa.(c) time seq then begin
    ta.(i) <- ta.(c);
    sa.(i) <- sa.(c);
    pa.(i) <- pa.(c);
    sift_down ta sa pa n c time seq x
  end
  else begin
    ta.(i) <- time;
    sa.(i) <- seq;
    pa.(i) <- x
  end

let push t ~time ~seq x =
  grow t x;
  t.n <- t.n + 1;
  sift_up t.time t.seq t.payload (t.n - 1) time seq x

let min_time t =
  if t.n = 0 then invalid_arg "Event_heap.min_time: empty heap";
  t.time.(0)

let pop_min t =
  if t.n = 0 then invalid_arg "Event_heap.pop_min: empty heap";
  let x = t.payload.(0) and n = t.n - 1 in
  t.n <- n;
  if n > 0 then
    sift_down t.time t.seq t.payload n 0 t.time.(n) t.seq.(n) t.payload.(n);
  x

let pop t =
  if t.n = 0 then None
  else
    let time = t.time.(0) and seq = t.seq.(0) in
    Some (time, seq, pop_min t)

(* Drain remaining events in key order (used when aborting a run). *)
let drain t f =
  let rec loop () =
    match pop t with
    | None -> ()
    | Some (time, seq, payload) ->
        f time seq payload;
        loop ()
  in
  loop ()

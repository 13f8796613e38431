(* The step loop's event queue: a timing wheel of pids (R. Brown,
   "Calendar Queues", CACM 1988, with one-cycle days), over an
   Event_heap that holds what the wheel cannot.

   The wheel has [size] buckets, one per cycle of the window
   [cursor, cursor + size).  An entry due at [time] inside the window
   sits in bucket [time land mask]; each bucket is a FIFO of pids,
   linked through the per-pid [next] array (a pid has at most one
   entry).  Entries due at [cursor + size] or later wait in the
   overflow heap.  [pop_due], the step loop's one call per event, walks
   the cursor forward to the first non-empty bucket, or jumps it to the
   overflow's least time when the wheel is empty, and takes that
   bucket's head unless it is due after the horizon; the entry's time
   is then the cursor.  Simulated accesses take 6 to 12 cycles plus
   queueing, so the walk is short.

   Why the order is exactly (time, seq), the order Event_heap gives:
   - Buckets come out in time order, since the window never holds two
     times with one bucket.
   - Within a bucket, FIFO order is seq order.  Every insertion takes a
     fresh seq, larger than all earlier ones, so direct insertions
     append in seq order.  The overflow entries due at a time [T] were
     all inserted while [T] was outside the window, so before any
     direct insertion at [T].  Each time the cursor moves, [refill]
     moves the overflow entries the window now covers into their
     buckets, in heap order, before [pop_due] takes an entry there and
     so before anything fires or is inserted at the new cursor.  A bucket
     therefore receives all its overflow entries, in seq order, ahead
     of all its direct insertions.

   The horizon drain is the one place an event can be due before the
   cursor: a processor unwinding from [Aborted] may park one, and no
   bucket can hold it.  So [drain] spills the wheel into the overflow
   heap and routes every later push there, and the heap alone orders
   the rest.

   The scheduler's spin groups (scheduler.ml) are entries that stand
   for a chain of pids under consecutive seqs, its own first.  The
   wheel orders them by their own key, which is right: no other entry
   holds a seq inside the chain's.  Two things serve them.  [head] and
   [drop_head] take the entry right behind a group, the next one due
   now, without moving the cursor.  And [drain] unchains them: a
   spilled entry's members are spilled right after it, and an overflow
   entry's members are queued under the seqs after its own when it
   comes out, so each member unwinds under the key it would have had
   as an entry of its own.

   The scheduler's dead-spin fast-forward moves the whole queue some
   number of cycles later ([shift]).  Buckets are indexed by time, so
   the bucket arrays rotate by that many cycles modulo the window,
   three reversals in place; each bucket keeps its FIFO, the links do
   not change, and the order is the order before.  An overflow entry
   would have to move in the heap as well, so [shift] refuses while
   the overflow tier holds one.

   A run's buckets are reused, not reallocated: one spare pair is kept
   per process, taken by [create] and handed back by [release].  The
   model checker starts a fresh one-processor run per explored
   execution, and fresh 1,024-bucket arrays per run would dominate
   its heap.  Everything here allocates nothing per event; the
   @allocheck census certifies it (lib/analysis/alloc_budget.txt). *)

(* The window is 1,024 cycles.  Accesses take 6 to 12 cycles plus
   queueing, and in the bench/suite workloads at most one insertion in
   10,000 falls past the window (1,611 of 19.4M in service_bursty, 28
   of 19.1M in chaos_faults, none in pc_saturated). *)
let size = 1024
let mask = size - 1

type t = {
  heads : int array;  (* per bucket, its first pid, or -1 when empty *)
  tails : int array;  (* per bucket, its last pid, while non-empty *)
  next : int array;  (* per pid, the pid after it in its bucket, or -1 *)
  overflow : int Event_heap.t;  (* due at [cursor + size] or later *)
  mutable cursor : int;
  mutable n : int;  (* entries in the buckets *)
  mutable draining : bool;
}

let none =
  {
    heads = [||];
    tails = [||];
    next = [||];
    overflow = Event_heap.create ();
    cursor = 0;
    n = 0;
    draining = false;
  }

(* The spare bucket arrays, [||] while a run holds them. *)
let spare_heads = ref [||]
let spare_tails = ref [||]

let fresh_buckets () =
  spare_heads := Array.make size (-1);
  spare_tails := Array.make size 0

let create ~procs =
  if Array.length !spare_heads = 0 then fresh_buckets ();
  let t =
    {
      heads = !spare_heads;
      tails = !spare_tails;
      next = Array.make procs (-1);
      overflow = Event_heap.create ();
      cursor = 0;
      n = 0;
      draining = false;
    }
  in
  spare_heads := [||];
  spare_tails := [||];
  t

let release t =
  if t != none then begin
    if t.n > 0 then Array.fill t.heads 0 size (-1);
    spare_heads := t.heads;
    spare_tails := t.tails
  end

let is_empty t = t.n = 0 && Event_heap.is_empty t.overflow

let append t b p =
  t.next.(p) <- -1;
  if t.heads.(b) < 0 then t.heads.(b) <- p else t.next.(t.tails.(b)) <- p;
  t.tails.(b) <- p;
  t.n <- t.n + 1

let push t ~time ~seq p =
  let ahead = time - t.cursor in
  if ahead >= size || t.draining then Event_heap.push t.overflow ~time ~seq p
  else if ahead >= 0 then append t (time land mask) p
  else invalid_arg "Event_wheel.push: due before the cursor"

(* Move the overflow entries the window now covers into their buckets,
   in heap order. *)
let rec refill t =
  let h = t.overflow in
  if (not (Event_heap.is_empty h)) && Event_heap.min_time h - t.cursor < size
  then begin
    let b = Event_heap.min_time h land mask in
    append t b (Event_heap.pop_min h);
    refill t
  end

(* The first time at or after [c] whose bucket holds an entry; the
   wheel must hold one. *)
let rec scan heads c =
  if heads.(c land mask) >= 0 then c else scan heads (c + 1)

(* Move the cursor to the earliest entry's time, which it returns. *)
let advance t =
  let c =
    if t.n > 0 then scan t.heads t.cursor else Event_heap.min_time t.overflow
  in
  if c <> t.cursor then begin
    t.cursor <- c;
    refill t
  end;
  c

let cursor t = t.cursor

let pop_due t ~horizon =
  if is_empty t then -1
  else
    let c = advance t in
    if c > horizon then -1
    else begin
      let b = c land mask in
      let p = t.heads.(b) in
      t.heads.(b) <- t.next.(p);
      t.n <- t.n - 1;
      p
    end

let head t = t.heads.(t.cursor land mask)

let drop_head t =
  let b = t.cursor land mask in
  t.heads.(b) <- t.next.(t.heads.(b));
  t.n <- t.n - 1

let spills t = not (Event_heap.is_empty t.overflow)

(* Swap buckets [i .. j] end for end. *)
let rec reverse t i j =
  if i < j then begin
    let h = t.heads.(i) and l = t.tails.(i) in
    t.heads.(i) <- t.heads.(j);
    t.tails.(i) <- t.tails.(j);
    t.heads.(j) <- h;
    t.tails.(j) <- l;
    reverse t (i + 1) (j - 1)
  end

(* Every entry is in a bucket, and the window moves with the cursor: an
   entry due at [time] must move from bucket [time land mask] to bucket
   [(time + by) land mask], so the buckets rotate by [by land mask],
   each keeping its FIFO. *)
let shift t ~by =
  if t.draining || spills t then
    invalid_arg "Event_wheel.shift: the overflow tier holds an entry";
  let d = by land mask in
  if d > 0 then begin
    reverse t 0 mask;
    reverse t 0 (d - 1);
    reverse t d mask
  end;
  t.cursor <- t.cursor + by

(* Push [p] and the members [next] chains to it, due at [time], onto
   the overflow heap under [key] and the keys after it; return the key
   after the last. *)
let rec push_chain t ~next time key p =
  if p < 0 then key
  else begin
    Event_heap.push t.overflow ~time ~seq:key p;
    push_chain t ~next time (key + 1) (next p)
  end

(* Spill the bucket chain from [p], due at [time], member chains
   included.  Every spilled pid was queued before any push to come, and
   seqs are non-negative, so keys from [min_int] up, in spill order,
   stand in for their seqs: they keep the spilled pids' order and
   precede every later seq.  No overflow entry shares a spilled pid's
   time. *)
let rec spill_chain t ~next time p key =
  if p < 0 then key
  else
    let key = push_chain t ~next time key p in
    spill_chain t ~next time t.next.(p) key

let rec spill t ~next i key =
  if i < size then begin
    let time = t.cursor + i in
    let b = time land mask in
    let key = spill_chain t ~next time t.heads.(b) key in
    t.heads.(b) <- -1;
    spill t ~next (i + 1) key
  end

(* An overflow entry's members, if it has any, go back in under the
   seqs after its own, which no other entry holds. *)
let drain t ~next f =
  t.draining <- true;
  spill t ~next 0 min_int;
  t.n <- 0;
  Event_heap.drain t.overflow (fun time seq p ->
      ignore (push_chain t ~next time (seq + 1) (next p));
      f p)

let no_members (_ : int) = -1

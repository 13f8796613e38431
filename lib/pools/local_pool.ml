(* A sequentially-accessed local pool: a bounded ring buffer protected
   by an MCS queue lock, usable in FIFO (queue) or LIFO (stack)
   discipline.  One of these sits on every output wire of an
   elimination tree ("a simple queue protected by an MCS-queue-lock
   will do", §2.1); the LIFO variant provides the local stacks of the
   stack-like pool (§3), and RSU's per-processor work piles reuse it.

   The [raw_*] operations assume the caller holds [lock]; they exist so
   that RSU's balancing step can operate on two pools under both locks
   (acquired in [uid] order to avoid deadlock). *)

module Make (E : Engine.S) = struct
  module Lock = Sync.Mcs_lock.Make (E)

  type 'v t = {
    uid : int; (* global lock-ordering rank (see [Rsu]) *)
    discipline : [ `Fifo | `Lifo ];
    lock : Lock.t;
    buf : 'v option E.cells; (* the ring; built per slot on first touch *)
    head : int E.cell; (* index of the oldest element *)
    tail : int E.cell; (* index one past the newest element *)
  }

  (* Pools are created during (single-threaded) structure setup, before
     processors start, so a plain counter suffices. *)
  let next_uid = ref 0

  let create ?(discipline = `Fifo) ?(size = 4096) ~lock_capacity () =
    if size < 1 then invalid_arg "Local_pool.create: size must be positive";
    let uid = !next_uid in
    incr next_uid;
    {
      uid;
      discipline;
      lock = Lock.create ~capacity:lock_capacity ();
      buf = E.cells size None;
      head = E.cell 0;
      tail = E.cell 0;
    }

  let capacity t = E.cells_length t.buf

  let slot_at t i = E.cells_get t.buf (i mod E.cells_length t.buf)

  (* ---- raw operations: caller holds [lock] ---- *)

  let raw_size t = E.get t.tail - E.get t.head

  let raw_push t v =
    let tail = E.get t.tail in
    if tail - E.get t.head >= capacity t then
      failwith "Local_pool: overflow (increase ~size)";
    E.set (slot_at t tail) (Some v);
    E.set t.tail (tail + 1)

  let raw_pop t =
    let head = E.get t.head and tail = E.get t.tail in
    if tail = head then None
    else begin
      let slot_index =
        match t.discipline with `Fifo -> head | `Lifo -> tail - 1
      in
      let slot = slot_at t slot_index in
      let v = E.get slot in
      E.set slot None;
      (match t.discipline with
      | `Fifo -> E.set t.head (head + 1)
      | `Lifo -> E.set t.tail (tail - 1));
      match v with
      | Some _ -> v
      | None -> assert false (* occupied range always holds Some *)
    end

  (* Remove the oldest element regardless of discipline (the FIFO end
     of the ring) — the thief's end in work-stealing schedulers.
     Caller holds [lock]. *)
  let raw_steal_oldest t =
    let head = E.get t.head and tail = E.get t.tail in
    if tail = head then None
    else begin
      let slot = slot_at t head in
      let v = E.get slot in
      E.set slot None;
      E.set t.head (head + 1);
      match v with Some _ -> v | None -> assert false
    end

  (* ---- public operations ---- *)

  let size t = raw_size t (* racy snapshot; exact when quiescent *)

  let enqueue t v = Lock.with_lock t.lock (fun () -> raw_push t v)

  let try_dequeue t = Lock.with_lock t.lock (fun () -> raw_pop t)

  (* Locked steal from the FIFO end (see [raw_steal_oldest]). *)
  let steal_oldest t = Lock.with_lock t.lock (fun () -> raw_steal_oldest t)

  (* Block until an element arrives, polling under the (fair) lock.
     [stop] turns the wait into a bounded one: once it returns true the
     dequeuer gives up with [None] — workloads use this to drain. *)
  let dequeue_blocking ?(poll = 16) ?(stop = fun () -> false) t =
    let rec attempt spinning =
      match try_dequeue t with
      | Some _ as v ->
          if spinning && Etrace.on Etrace.lv_events then
            Etrace.emit
              (Etrace.Event.Spin_end { pid = E.pid (); time = E.now () });
          v
      | None ->
          if stop () then begin
            if spinning && Etrace.on Etrace.lv_events then
              Etrace.emit
                (Etrace.Event.Spin_end { pid = E.pid (); time = E.now () });
            None
          end
          else begin
            if (not spinning) && Etrace.on Etrace.lv_events then
              Etrace.emit
                (Etrace.Event.Spin_begin { pid = E.pid (); time = E.now () });
            E.delay poll;
            attempt true
          end
    in
    attempt false

  (* Acquire the locks of [a] and [b] (distinct pools) in uid order,
     run [f], release in reverse order. *)
  let with_two_locks a b f =
    if a.uid = b.uid then invalid_arg "Local_pool.with_two_locks: same pool";
    let first, second = if a.uid < b.uid then (a, b) else (b, a) in
    Lock.with_lock first.lock (fun () ->
        Lock.with_lock second.lock (fun () -> f ()))
end

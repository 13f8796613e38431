(* Stateless exhaustive-interleaving explorer (etrees.check).

   Replaces the simulator's time-ordered scheduler with a controlled
   one (Sim.Scheduler's [controller] hook): every shared-memory access
   parks until the explorer picks which processor commits next, so a
   pid sequence fully determines an interleaving.  The explorer
   re-executes the scenario from scratch under systematically chosen
   schedules — classic stateless model checking — with two reduction
   modes:

   - [Naive]: every enabled processor is a backtrack point at every
     state (full enumeration of the interleaving tree).
   - [Dpor]: Flanagan–Godefroid dynamic partial-order reduction with
     sleep sets.  Backtrack points are added only where a race is
     observed (two accesses to the same location, at least one a
     write/rmw, unordered by happens-before); sleep sets prune
     re-exploration of independent siblings.

   Happens-before is tracked with vector clocks: one clock per
   processor, plus per-location writer and (accumulated) reader
   clocks.  The race check takes the latest transition a pending
   access depends on to be the location's newest access if the pending
   one writes, and its newest write if it only reads: two records per
   location stand in for an access log.  That misses races: two reads
   of a location are not ordered, so a write can race an earlier read
   by another processor while the newest access happens before it, and
   a backtrack point may name a processor its frame's sleep set holds
   (docs/CHECKING.md, "Known gap"; `dune build @dpor-outcomes`).

   Blocking (spin loops re-reading an unchanged location) is detected
   with the location epoch fingerprint that [Memory.commit_stamp]
   maintains: a processor whose last [spin_threshold] accesses hit one
   location without its epoch changing — and whose pending access is
   again a read/rmw of that still-unchanged location — is *disabled*.
   A state where every unfinished processor is disabled is a deadlock
   (for the paper's structures: livelock by spinning, e.g. the
   centralized pool of Figure 5 polling an empty slot).

   Replayed prefixes.  Every execution after the first replays the
   choices of the frame stack, whose last frame backtracking has just
   re-pointed, and only then explores past it.  The happens-before
   state (the processor clocks and every location's records and
   clocks) is not rebuilt for that prefix: it persists from one
   execution to the next.  A location is keyed by its id minus the
   [Memory.loc_count] watermark taken just before [prepare], which is
   the same location in every execution that shares the prefix.
   [record] logs what it overwrites, and backtracking undoes the log,
   newest step first, down to the re-pointed frame.  A decision at
   depth d below the last frame then only runs [note_spin], reads the
   frame's pid's pending access (no other pid's), asserts the pid
   runnable and not blocked, checks that its access is the one the log
   holds for step d, and fires it.
   Why this is exact:
   - Frame d still exists, so no frame below it has changed its choice
     since the execution that logged step d: backtracking re-points
     only the top frame and truncates everything above.  The replayed
     prefix is therefore the same pid sequence as in that execution.
   - The program is deterministic given that sequence, so step i
     accesses the same location key with the same kind, and [record]
     would recompute exactly the logged values.  The divergence check
     holds this premise: a mismatch raises [Replay_diverged] naming
     the step, since the explorer would otherwise search the wrong
     space without any error.
   - Undo restores exactly the fields [record] overwrote: the
     processor's clock, the location's four step/pid fields, and the
     one location clock it wrote (the writer clock on a write, the
     reader clock on a read).  After the undo the state is the one
     the execution that pushed the re-pointed frame had before that
     frame's step, which is where the new execution decides afresh.
   - That execution's race checks at step d OR-ed their backtrack bits
     into frames below d, which still exist.  Repeating them sets no
     new bit.
   - The same state has the same enabled set, so the frame's pid is
     enabled and no deadlock is possible there.
   - The sleep set is read only when a frame is pushed, which happens
     after the last frame.  The last frame keeps the full path, and
     its sleep set depends only on the frame and the state, not on the
     sleep sets before it.
   [note_spin] is not skipped: the spin counters it updates are built
   afresh in every execution, and the later steps read them.

   One read per decision.  A decision made afresh reads every runnable
   pid's pending access once ([Scheduler.pending_access], one match on
   the slot) into per-pid int arrays: the location's id and epoch and
   the access's kind.  The race checks, the spin-block test, the sleep
   set's dependence test, [record] and the deadlock report all read
   those arrays; only the chosen pid's location is read again, for
   [note_spin], which compares its epoch after the access committed.

   The per-step bookkeeping builds no lists, options or hash buckets:
   sets of pids are bitmasks, the log entries and per-location records
   and clocks are reused from one execution to the next, clocks are
   joined and copied in monomorphic loops, and a replayed decision
   allocates nothing.  Nor does an execution rebuild the explorer's
   own state: the controller closure, the spin counters and the
   per-decision arrays live in the exploration ([exploration]) and are
   reset when an execution starts.  An execution's schedule is read
   off the log only for the runs the caller sees (a counterexample, a
   replay). *)

module S = Sim.Scheduler
module M = Sim.Memory

(* Minimal growable array (no Dynarray dependency).  [get] is inlined:
   every step reads frames, log entries and location records through
   it. *)
module Vec = struct
  type 'a t = { mutable a : 'a array; mutable len : int }

  let create () = { a = [||]; len = 0 }
  let[@inline] length t = t.len
  let[@inline] get t i = t.a.(i)

  let push t x =
    if t.len = Array.length t.a then begin
      let a = Array.make (max 8 (2 * Array.length t.a)) x in
      Array.blit t.a 0 a 0 t.len;
      t.a <- a
    end;
    t.a.(t.len) <- x;
    t.len <- t.len + 1

  let truncate t n = if n < t.len then t.len <- n
end

type instance = {
  body : int -> unit;  (** per-processor program *)
  at_quiescence : unit -> Monitor.verdict list;
      (** monitors over the final state of a completed execution *)
}

type program = { name : string; procs : int; prepare : unit -> instance }
(** [prepare] must build a fresh structure (and ledger) per execution —
    stateless re-execution replays the program from scratch. *)

type status =
  | Complete
  | Deadlocked of (int * int) list
      (** every unfinished processor spin-blocked: (pid, location id) *)
  | Sleep_blocked  (** pruned by the sleep set: a redundant execution *)
  | Step_budget  (** per-run step cap hit (unbounded spinning) *)

type run = {
  schedule : int array;  (** committed accesses, as chosen pids in order *)
  status : status;
  violations : Monitor.violation list;
}

exception Replay_diverged of string

(* Sets of pids are bitmasks (bit p = processor p): a controlled run
   has at most 62 processors. *)
type frame = {
  f_enabled : int;
  f_sleep : int;
  mutable f_backtrack : int;
  mutable f_done : int;
  mutable f_chosen : int;
}

type mode = Dpor | Naive | Replay of int array

let is_write = function S.Acc_write | S.Acc_rmw -> true | S.Acc_read -> false

let bit p = 1 lsl p
let mem p set = set land (1 lsl p) <> 0
let rec lowest_from set p = if mem p set then p else lowest_from set (p + 1)

(* The smallest pid in a non-empty set. *)
let lowest set = lowest_from set 0

(* Vector clocks of [n] words, joined and copied in monomorphic loops:
   a polymorphic [>] compares through [caml_greaterthan], and
   [Array.blit] is a C call, both dear on clocks of two or three
   words. *)
let join (dst : int array) (src : int array) n =
  for i = 0 to n - 1 do
    let v = src.(i) in
    if v > dst.(i) then dst.(i) <- v
  done

let copy (src : int array) (dst : int array) n =
  for i = 0 to n - 1 do
    dst.(i) <- src.(i)
  done

(* One location's happens-before state: its newest access and newest
   write (1-based steps, 0 = none) and its writer and accumulated
   reader vector clocks. *)
type loc_state = {
  mutable acc_step : int;
  mutable acc_pid : int;
  mutable wr_step : int;
  mutable wr_pid : int;
  wcv : int array;
  rcv : int array;
}

(* One recorded step: its access (for the divergence check) and what
   [record] overwrote (for [rewind]). *)
type entry = {
  mutable e_key : int;  (* the location's key *)
  mutable e_kind : S.access_kind;
  mutable e_pid : int;
  mutable e_slot : int;  (* the location's index in [states] *)
  mutable e_acc_step : int;
  mutable e_acc_pid : int;
  mutable e_wr_step : int;
  mutable e_wr_pid : int;
  e_proc_cv : int array;  (* the processor's clock *)
  e_loc_cv : int array;  (* the location clock the step wrote *)
}

(* The happens-before state of the steps executed so far, kept from
   one execution to the next (see the header).  A location's key is
   its id relative to the watermark taken before [prepare]; the key
   table is open-addressed with linear probing and at most half full.
   [log] holds step i's entry at i for i < [steps]; the entries past
   [steps] are spares for the next steps to reuse. *)
type hb = {
  n : int;
  proc_cv : int array array;
  states : loc_state Vec.t;
  mutable keys : int array;  (* location key, [no_key] = empty *)
  mutable index : int array;  (* the key's index in [states] *)
  log : entry Vec.t;
  mutable steps : int;
  fire : S.choice array;  (* [Fire p] by pid, built once *)
}

let no_key = min_int

let new_hb n =
  {
    n;
    proc_cv = Array.init n (fun _ -> Array.make n 0);
    states = Vec.create ();
    keys = Array.make 64 no_key;
    index = Array.make 64 0;
    log = Vec.create ();
    steps = 0;
    fire = Array.init n (fun p -> S.Fire p);
  }

let rec probe keys key mask i =
  let k = keys.(i) in
  if k = key || k = no_key then i else probe keys key mask ((i + 1) land mask)

let slot_of keys key =
  let mask = Array.length keys - 1 in
  probe keys key mask (((key * 0x9E3779B1) lsr 16) land mask)

(* The index of location [key]'s record, or -1. *)
let find hb key =
  let i = slot_of hb.keys key in
  if hb.keys.(i) = key then hb.index.(i) else -1

let insert keys index key k =
  let i = slot_of keys key in
  keys.(i) <- key;
  index.(i) <- k

(* The index of location [key]'s record, creating a blank one (no
   access yet) on its first touch. *)
let touch hb key =
  let k = find hb key in
  if k >= 0 then k
  else begin
    let k = Vec.length hb.states in
    Vec.push hb.states
      { acc_step = 0; acc_pid = 0; wr_step = 0; wr_pid = 0;
        wcv = Array.make hb.n 0; rcv = Array.make hb.n 0 };
    if 2 * (k + 1) > Array.length hb.keys then begin
      let keys = hb.keys and index = hb.index in
      let size = 2 * Array.length keys in
      hb.keys <- Array.make size no_key;
      hb.index <- Array.make size 0;
      Array.iteri
        (fun i key ->
          if key <> no_key then insert hb.keys hb.index key index.(i))
        keys
    end;
    insert hb.keys hb.index key k;
    k
  end

(* Undo the logged steps, newest first, until [s] remain. *)
let rewind hb s =
  let n = hb.n in
  while hb.steps > s do
    let e = Vec.get hb.log (hb.steps - 1) in
    let l = Vec.get hb.states e.e_slot in
    copy e.e_proc_cv hb.proc_cv.(e.e_pid) n;
    copy e.e_loc_cv (if is_write e.e_kind then l.wcv else l.rcv) n;
    l.acc_step <- e.e_acc_step;
    l.acc_pid <- e.e_acc_pid;
    l.wr_step <- e.e_wr_step;
    l.wr_pid <- e.e_wr_pid;
    hb.steps <- hb.steps - 1
  done

(* The "no previous access" value of [note_spin]'s location. *)
let no_loc : M.loc =
  {
    id = -1;
    busy_until = 0;
    epoch_time = min_int;
    epoch_pid = -1;
    epoch_seq = -1;
    pend_begins = min_int;
    pend_finish = min_int;
    pend_pid = -1;
    shadow = Obj.repr ();
  }

(* One exploration, built once by [explore] or [replay]: the frame
   stack and the happens-before state, which persist from one
   execution to the next, and the state of the execution running,
   which [reset] clears when it starts. *)
type exploration = {
  name : string;
  n : int;
  mode : mode;
  spin_threshold : int;
  max_steps : int;
  frames : frame Vec.t;
  hb : hb;
  mutable base : int;  (* [M.loc_count ()] before this run's [prepare] *)
  mutable depth : int;  (* accesses committed so far *)
  mutable status : status;
  mutable sleep : int;  (* the sleep set of the state being decided *)
  (* Spin-block detection, per pid: the location of its latest
     accesses, the epoch they left it at, and how many in a row. *)
  spin_loc : int array;
  spin_fp : int array;
  spin_run : int array;
  (* The previous decision's pid (-1 = none) and location. *)
  mutable last_pid : int;
  mutable last_loc : M.loc;
  (* Per pid, its pending access as the decision being made read it
     (see the header): the location's id and epoch, and the kind. *)
  loc_id : int array;
  loc_epoch : int array;
  kind : S.access_kind array;
}

let exploration ~spin_threshold ~max_steps ~mode (program : program) =
  let n = program.procs in
  {
    name = program.name;
    n;
    mode;
    spin_threshold;
    max_steps;
    frames = Vec.create ();
    hb = new_hb n;
    base = 0;
    depth = 0;
    status = Complete;
    sleep = 0;
    spin_loc = Array.make n (-1);
    spin_fp = Array.make n min_int;
    spin_run = Array.make n 0;
    last_pid = -1;
    last_loc = no_loc;
    loc_id = Array.make n 0;
    loc_epoch = Array.make n 0;
    kind = Array.make n S.Acc_read;
  }

(* Start an execution: take the watermark its [prepare] allocates
   from, and clear the state of the last one. *)
let reset x =
  x.base <- M.loc_count ();
  x.depth <- 0;
  x.status <- Complete;
  x.sleep <- 0;
  x.last_pid <- -1;
  for p = 0 to x.n - 1 do
    x.spin_loc.(p) <- -1;
    x.spin_fp.(p) <- min_int;
    x.spin_run.(p) <- 0
  done

(* Read [p]'s pending access into the decision's arrays. *)
let read_pending x t p =
  let l = S.pending_access t p x.kind in
  x.loc_id.(p) <- l.M.id;
  x.loc_epoch.(p) <- l.M.epoch_seq;
  l

let note_spin x =
  let p = x.last_pid in
  if p >= 0 then begin
    x.last_pid <- -1;
    let l = x.last_loc in
    (* The fingerprint is read *after* the access committed: an access
       that left the location's epoch exactly where this processor
       last saw it made no progress. *)
    if l.M.id = x.spin_loc.(p) && l.M.epoch_seq = x.spin_fp.(p) then
      x.spin_run.(p) <- x.spin_run.(p) + 1
    else begin
      x.spin_loc.(p) <- l.M.id;
      x.spin_fp.(p) <- l.M.epoch_seq;
      x.spin_run.(p) <- 1
    end
  end

(* Is [p] spin-blocked on its pending access (read this decision)? *)
let blocked x p =
  x.kind.(p) <> S.Acc_write
  && x.spin_run.(p) >= x.spin_threshold
  && x.loc_id.(p) = x.spin_loc.(p)
  && x.loc_epoch.(p) = x.spin_fp.(p)

let add_backtrack frames i p =
  if i >= 0 && i < Vec.length frames then begin
    let f = Vec.get frames i in
    f.f_backtrack <-
      f.f_backtrack lor (if mem p f.f_enabled then bit p else f.f_enabled)
  end

(* Is there a race between an executed access and [p]'s pending one?
   The latest dependent transition is the location's newest access if
   [p] writes, its newest write if [p] reads; it races iff by another
   processor and not ordered before [p]'s next transition by
   happens-before. *)
let race_check x p =
  let hb = x.hb in
  let k = find hb (x.loc_id.(p) - x.base) in
  if k >= 0 then begin
    let l = Vec.get hb.states k in
    let wr = is_write x.kind.(p) in
    let step = if wr then l.acc_step else l.wr_step in
    let q = if wr then l.acc_pid else l.wr_pid in
    if step > 0 && q <> p && hb.proc_cv.(p).(q) < step then
      add_backtrack x.frames (step - 1) p
  end

let dependent x q p =
  x.loc_id.(q) = x.loc_id.(p) && (is_write x.kind.(q) || is_write x.kind.(p))

(* Step [x.depth]'s access by [p], to [loc], logging what it
   overwrites. *)
let record x p (loc : M.loc) =
  let hb = x.hb and n = x.n in
  let key = x.loc_id.(p) - x.base and kind = x.kind.(p) in
  let k = touch hb key in
  let l = Vec.get hb.states k in
  let s = x.depth in
  assert (hb.steps = s);
  if s = Vec.length hb.log then
    Vec.push hb.log
      { e_key = 0; e_kind = S.Acc_read; e_pid = 0; e_slot = 0;
        e_acc_step = 0; e_acc_pid = 0; e_wr_step = 0; e_wr_pid = 0;
        e_proc_cv = Array.make n 0; e_loc_cv = Array.make n 0 };
  let e = Vec.get hb.log s in
  let wr = is_write kind in
  let cv = hb.proc_cv.(p) in
  e.e_key <- key;
  e.e_kind <- kind;
  e.e_pid <- p;
  e.e_slot <- k;
  e.e_acc_step <- l.acc_step;
  e.e_acc_pid <- l.acc_pid;
  e.e_wr_step <- l.wr_step;
  e.e_wr_pid <- l.wr_pid;
  copy cv e.e_proc_cv n;
  copy (if wr then l.wcv else l.rcv) e.e_loc_cv n;
  let step = s + 1 in
  hb.steps <- step;
  join cv l.wcv n;
  if wr then join cv l.rcv n;
  cv.(p) <- step;
  if wr then copy cv l.wcv n else join l.rcv cv n;
  l.acc_step <- step;
  l.acc_pid <- p;
  if wr then begin
    l.wr_step <- step;
    l.wr_pid <- p
  end;
  x.depth <- step;
  x.last_pid <- p;
  x.last_loc <- loc

(* A decided step below the last frame: its state is logged and its
   race checks, enabled set and sleep set are known (see the header).
   [Replay] keeps no frames. *)
let replayed x t runnable d =
  let p = (Vec.get x.frames d).f_chosen in
  assert (mem p runnable);
  let loc = read_pending x t p in
  assert (not (blocked x p));
  let e = Vec.get x.hb.log d in
  if x.loc_id.(p) - x.base <> e.e_key || x.kind.(p) <> e.e_kind then
    raise
      (Replay_diverged
         (Printf.sprintf
            "%s: step %d (p%d) does not replay the access logged for it; \
             prepare or the program is not deterministic"
            x.name (d + 1) p));
  x.depth <- d + 1;
  x.last_pid <- p;
  x.last_loc <- loc;
  x.hb.fire.(p)

(* A decision made afresh at depth [d]. *)
let decide x t runnable d : S.choice =
  let n = x.n and dpor = match x.mode with Dpor -> true | _ -> false in
  let enabled = ref 0 in
  for p = 0 to n - 1 do
    if mem p runnable then begin
      ignore (read_pending x t p : M.loc);
      if dpor then race_check x p;
      if not (blocked x p) then enabled := !enabled lor bit p
    end
  done;
  let enabled = !enabled in
  if enabled = 0 then begin
    let procs = ref [] in
    for p = n - 1 downto 0 do
      if mem p runnable then procs := (p, x.loc_id.(p)) :: !procs
    done;
    x.status <- Deadlocked !procs;
    S.Quit
  end
  else
    let pick =
      match x.mode with
      | Replay forced ->
          if d < Array.length forced && mem forced.(d) enabled then forced.(d)
          else lowest enabled
      | Dpor | Naive ->
          if d < Vec.length x.frames then begin
            (* The last frame, whose choice backtracking changed. *)
            let f = Vec.get x.frames d in
            assert (mem f.f_chosen enabled);
            f.f_chosen
          end
          else begin
            match enabled land lnot x.sleep with
            | 0 -> -1
            | awake ->
                let p = lowest awake in
                Vec.push x.frames
                  {
                    f_enabled = enabled;
                    f_sleep = x.sleep;
                    f_backtrack = (if dpor then bit p else enabled);
                    f_done = bit p;
                    f_chosen = p;
                  };
                p
          end
    in
    if pick < 0 then begin
      x.status <- Sleep_blocked;
      S.Quit
    end
    else begin
      if dpor then begin
        (* Sleep set of the successor: explored siblings join, anything
           dependent on the chosen access wakes. *)
        let f = Vec.get x.frames d in
        let base = f.f_sleep lor (f.f_done land lnot (bit pick)) in
        let sleep = ref 0 in
        for q = 0 to n - 1 do
          if mem q base && mem q runnable && not (dependent x q pick) then
            sleep := !sleep lor bit q
        done;
        x.sleep <- !sleep
      end;
      record x pick (S.pending_loc t pick);
      x.hb.fire.(pick)
    end

(* The controller: every decision of every execution of [x]. *)
let choose x t runnable : S.choice =
  note_spin x;
  let d = x.depth in
  if d < Vec.length x.frames - 1 then replayed x t runnable d
  else if d >= x.max_steps then begin
    x.status <- Step_budget;
    S.Quit
  end
  else decide x t runnable d

(* One execution of [program] under [controller], which decides
   through [x]: its violations.  Its depth and status are left in
   [x]. *)
let run_once ~seed x controller (program : program) =
  reset x;
  let inst = program.prepare () in
  let result =
    match
      Sim.run ~seed ~config:Sim.Memory.uniform_config ~controller ~procs:x.n
        inst.body
    with
    | (_ : Sim.stats) -> Ok ()
    | exception (Replay_diverged _ as e) -> raise e
    | exception e -> Error e
  in
  match result with
  | Error e ->
      [ { Monitor.property = "no-crash"; detail = Printexc.to_string e } ]
  | Ok () -> (
      match x.status with
      | Complete -> Monitor.violations_of (inst.at_quiescence ())
      | Deadlocked procs ->
          [
            {
              Monitor.property = "deadlock";
              detail =
                Printf.sprintf "every unfinished processor is spin-blocked: %s"
                  (String.concat ", "
                     (List.map
                        (fun (p, l) -> Printf.sprintf "p%d on loc %d" p l)
                        procs));
            };
          ]
      | Sleep_blocked | Step_budget -> [])

(* The execution that just ran, as the caller sees it. *)
let run_of x violations =
  {
    schedule = Array.init x.depth (fun i -> (Vec.get x.hb.log i).e_pid);
    status = x.status;
    violations;
  }

type outcome = {
  runs : int;  (** executions performed (sleep-blocked ones included) *)
  complete : int;
  deadlocks : int;
  sleep_blocked : int;
  budget_hits : int;
  max_depth : int;
  capped : bool;  (** stopped at [max_interleavings] before exhausting *)
  counterexample : (Monitor.violation * run) option;
}

(* Backtrack: re-point the deepest frame with an unexplored candidate,
   dropping the exhausted ones above it.  False when none is left. *)
let rec backtrack frames =
  Vec.length frames > 0
  &&
  let f = Vec.get frames (Vec.length frames - 1) in
  match f.f_backtrack land lnot (f.f_done lor f.f_sleep) with
  | 0 ->
      Vec.truncate frames (Vec.length frames - 1);
      backtrack frames
  | todo ->
      let p = lowest todo in
      f.f_chosen <- p;
      f.f_done <- f.f_done lor bit p;
      true

let explore ?(dpor = true) ?(max_interleavings = 100_000) ?(max_steps = 20_000)
    ?(spin_threshold = 3) ?(seed = 0x5eed) ?(stop_on_violation = true) program =
  let x =
    exploration ~spin_threshold ~max_steps
      ~mode:(if dpor then Dpor else Naive)
      program
  in
  let controller t runnable = choose x t runnable in
  let runs = ref 0
  and complete = ref 0
  and deadlocks = ref 0
  and sleep_blocked = ref 0
  and budget_hits = ref 0
  and max_depth = ref 0 in
  let capped = ref false in
  let cex = ref None in
  (try
     let exhausted = ref false in
     while not !exhausted do
       if !runs >= max_interleavings then begin
         capped := true;
         raise Exit
       end;
       let violations = run_once ~seed x controller program in
       incr runs;
       if x.depth > !max_depth then max_depth := x.depth;
       (match x.status with
       | Complete -> incr complete
       | Deadlocked _ -> incr deadlocks
       | Sleep_blocked -> incr sleep_blocked
       | Step_budget -> incr budget_hits);
       (match violations with
       | v :: _ when !cex = None ->
           cex := Some (v, run_of x violations);
           if stop_on_violation then raise Exit
       | _ -> ());
       if backtrack x.frames then rewind x.hb (Vec.length x.frames - 1)
       else exhausted := true
     done
   with Exit -> ());
  {
    runs = !runs;
    complete = !complete;
    deadlocks = !deadlocks;
    sleep_blocked = !sleep_blocked;
    budget_hits = !budget_hits;
    max_depth = !max_depth;
    capped = !capped;
    counterexample = !cex;
  }

let replay ?(seed = 0x5eed) ?(spin_threshold = 3) ?(max_steps = 20_000) program
    schedule =
  let x =
    exploration ~spin_threshold ~max_steps ~mode:(Replay schedule) program
  in
  let violations =
    run_once ~seed x (fun t runnable -> choose x t runnable) program
  in
  run_of x violations

(* --- Counterexample minimization and rendering ----------------------- *)

let switches a =
  let s = ref 0 in
  Array.iteri (fun i p -> if i > 0 && a.(i - 1) <> p then incr s) a;
  !s

(* Greedy schedule minimization: try adjacent transpositions that
   reduce the context-switch count, keeping a candidate only if its
   replay still exhibits the same property violation.  Replay is
   tolerant (an infeasible forced pid falls back to the smallest
   enabled one), so we re-read the schedule the replay actually
   executed. *)
let minimize ?seed ?spin_threshold ?max_steps program
    (v : Monitor.violation) schedule =
  let still_violates r =
    List.exists
      (fun (v' : Monitor.violation) -> v'.property = v.property)
      r.violations
  in
  let best = ref schedule in
  let improved = ref true in
  let passes = ref 0 in
  while !improved && !passes < 32 do
    improved := false;
    incr passes;
    let i = ref 0 in
    while !i < Array.length !best - 1 do
      let b = !best in
      if b.(!i) <> b.(!i + 1) then begin
        let cand = Array.copy b in
        let t = cand.(!i) in
        cand.(!i) <- cand.(!i + 1);
        cand.(!i + 1) <- t;
        if switches cand < switches b then begin
          let r = replay ?seed ?spin_threshold ?max_steps program cand in
          if still_violates r && switches r.schedule < switches b then begin
            best := r.schedule;
            improved := true
          end
        end
      end;
      incr i
    done
  done;
  !best

(* Run-length rendering: "0x5,1x3" = five steps of p0 then three of
   p1.  [parse_schedule] also accepts bare pids ("0,1,0"). *)
let format_schedule a =
  let b = Buffer.create 64 in
  let n = Array.length a in
  let i = ref 0 in
  while !i < n do
    let p = a.(!i) in
    let j = ref !i in
    while !j < n && a.(!j) = p do incr j done;
    if Buffer.length b > 0 then Buffer.add_char b ',';
    Buffer.add_string b (string_of_int p);
    Buffer.add_char b 'x';
    Buffer.add_string b (string_of_int (!j - !i));
    i := !j
  done;
  Buffer.contents b

let parse_schedule s =
  let s = String.trim s in
  if s = "" then [||]
  else
    String.split_on_char ',' s
    |> List.concat_map (fun seg ->
           let seg = String.trim seg in
           match String.index_opt seg 'x' with
           | Some k ->
               let p = int_of_string (String.sub seg 0 k) in
               let c =
                 int_of_string (String.sub seg (k + 1) (String.length seg - k - 1))
               in
               if c < 0 then invalid_arg "parse_schedule: negative count";
               List.init c (fun _ -> p)
           | None -> [ int_of_string seg ])
    |> Array.of_list

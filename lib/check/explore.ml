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
   clocks.  Dependent accesses to a single location are totally
   ordered amongst themselves in any one execution, so the latest
   transition a pending access depends on is the location's newest
   access if the pending one writes, and its newest write if it only
   reads: two records per location stand in for an access log.

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
   depth d below the last frame then only runs [note_spin], asserts
   the frame's pid runnable and not blocked, checks that the pid's
   pending access is the one the log holds for step d, and fires it.
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

   The per-step bookkeeping builds no lists, options or hash buckets:
   sets of pids are bitmasks, the log entries and per-location records
   and clocks are reused from one execution to the next, and a
   replayed decision allocates nothing. *)

module S = Sim.Scheduler
module M = Sim.Memory

(* Minimal growable array (no Dynarray dependency). *)
module Vec = struct
  type 'a t = { mutable a : 'a array; mutable len : int }

  let create () = { a = [||]; len = 0 }
  let length t = t.len
  let get t i = t.a.(i)

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
  while hb.steps > s do
    let e = Vec.get hb.log (hb.steps - 1) in
    let l = Vec.get hb.states e.e_slot in
    Array.blit e.e_proc_cv 0 hb.proc_cv.(e.e_pid) 0 hb.n;
    Array.blit e.e_loc_cv 0 (if is_write e.e_kind then l.wcv else l.rcv) 0 hb.n;
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

let run_once ?(seed = 0x5eed) ~spin_threshold ~max_steps ~mode ~frames ~hb
    (program : program) =
  let n = program.procs in
  let base = M.loc_count () in
  let inst = program.prepare () in
  let depth = ref 0 in
  let status = ref Complete in
  let proc_cv = hb.proc_cv in
  let join dst src =
    for i = 0 to n - 1 do
      if src.(i) > dst.(i) then dst.(i) <- src.(i)
    done
  in
  (* Spin-block detection state. *)
  let spin_loc = Array.make n (-1) in
  let spin_fp = Array.make n min_int in
  let spin_run = Array.make n 0 in
  (* The previous decision's pid (-1 = none) and location. *)
  let last_pid = ref (-1) and last_loc = ref no_loc in
  let note_spin () =
    let p = !last_pid in
    if p >= 0 then begin
      last_pid := -1;
      let l = !last_loc in
      (* The fingerprint is read *after* the access committed: an
         access that left the location's epoch exactly where this
         processor last saw it made no progress. *)
      if l.id = spin_loc.(p) && l.epoch_seq = spin_fp.(p) then
        spin_run.(p) <- spin_run.(p) + 1
      else begin
        spin_loc.(p) <- l.id;
        spin_fp.(p) <- l.epoch_seq;
        spin_run.(p) <- 1
      end
    end
  in
  let blocked t p =
    let l = S.pending_loc t p in
    S.pending_kind t p <> S.Acc_write
    && spin_run.(p) >= spin_threshold
    && l.M.id = spin_loc.(p)
    && l.M.epoch_seq = spin_fp.(p)
  in
  let cur_sleep = ref 0 in
  let add_backtrack i p =
    if i >= 0 && i < Vec.length frames then begin
      let f = Vec.get frames i in
      f.f_backtrack <-
        f.f_backtrack lor (if mem p f.f_enabled then bit p else f.f_enabled)
    end
  in
  (* Is there a race between an executed access and [p]'s pending one?
     The latest dependent transition is the location's newest access
     if [p] writes, its newest write if [p] reads; it races iff by
     another processor and not ordered before [p]'s next transition
     by happens-before. *)
  let race_check t p =
    let k = find hb ((S.pending_loc t p).M.id - base) in
    if k >= 0 then begin
      let l = Vec.get hb.states k in
      let wr = is_write (S.pending_kind t p) in
      let step = if wr then l.acc_step else l.wr_step in
      let q = if wr then l.acc_pid else l.wr_pid in
      if step > 0 && q <> p && proc_cv.(p).(q) < step then
        add_backtrack (step - 1) p
    end
  in
  (* Step [!depth]'s access by [p], logging what it overwrites. *)
  let record t p =
    let loc = S.pending_loc t p and kind = S.pending_kind t p in
    let key = loc.M.id - base in
    let k = touch hb key in
    let l = Vec.get hb.states k in
    let s = !depth in
    assert (hb.steps = s);
    if s = Vec.length hb.log then
      Vec.push hb.log
        { e_key = 0; e_kind = S.Acc_read; e_pid = 0; e_slot = 0;
          e_acc_step = 0; e_acc_pid = 0; e_wr_step = 0; e_wr_pid = 0;
          e_proc_cv = Array.make n 0; e_loc_cv = Array.make n 0 };
    let e = Vec.get hb.log s in
    let wr = is_write kind in
    let cv = proc_cv.(p) in
    e.e_key <- key;
    e.e_kind <- kind;
    e.e_pid <- p;
    e.e_slot <- k;
    e.e_acc_step <- l.acc_step;
    e.e_acc_pid <- l.acc_pid;
    e.e_wr_step <- l.wr_step;
    e.e_wr_pid <- l.wr_pid;
    Array.blit cv 0 e.e_proc_cv 0 n;
    Array.blit (if wr then l.wcv else l.rcv) 0 e.e_loc_cv 0 n;
    let step = s + 1 in
    hb.steps <- step;
    join cv l.wcv;
    if wr then join cv l.rcv;
    cv.(p) <- step;
    if wr then Array.blit cv 0 l.wcv 0 n else join l.rcv cv;
    l.acc_step <- step;
    l.acc_pid <- p;
    if wr then begin
      l.wr_step <- step;
      l.wr_pid <- p
    end;
    depth := step;
    last_pid := p;
    last_loc := loc
  in
  let dependent t q p =
    (S.pending_loc t q).M.id = (S.pending_loc t p).M.id
    && (is_write (S.pending_kind t q) || is_write (S.pending_kind t p))
  in
  let choose t runnable : S.choice =
    note_spin ();
    let d = !depth in
    if d < Vec.length frames - 1 then begin
      (* A decided step below the last frame: its state is logged and
         its race checks, enabled set and sleep set are known (see the
         header).  [Replay] keeps no frames. *)
      let p = (Vec.get frames d).f_chosen in
      assert (mem p runnable && not (blocked t p));
      let loc = S.pending_loc t p and e = Vec.get hb.log d in
      if loc.M.id - base <> e.e_key || S.pending_kind t p <> e.e_kind then
        raise
          (Replay_diverged
             (Printf.sprintf
                "%s: step %d (p%d) does not replay the access logged for \
                 it; prepare or the program is not deterministic"
                program.name (d + 1) p));
      depth := d + 1;
      last_pid := p;
      last_loc := loc;
      hb.fire.(p)
    end
    else if d >= max_steps then begin
      status := Step_budget;
      S.Quit
    end
    else begin
      (match mode with
      | Dpor ->
          for p = 0 to n - 1 do
            if mem p runnable then race_check t p
          done
      | Naive | Replay _ -> ());
      let enabled = ref 0 in
      for p = 0 to n - 1 do
        if mem p runnable && not (blocked t p) then enabled := !enabled lor bit p
      done;
      let enabled = !enabled in
      if enabled = 0 then begin
        let procs = ref [] in
        for p = n - 1 downto 0 do
          if mem p runnable then
            procs := (p, (S.pending_loc t p).M.id) :: !procs
        done;
        status := Deadlocked !procs;
        S.Quit
      end
      else
        let pick =
          match mode with
          | Replay forced ->
              if d < Array.length forced && mem forced.(d) enabled then
                forced.(d)
              else lowest enabled
          | Dpor | Naive ->
              if d < Vec.length frames then begin
                (* The last frame, whose choice backtracking changed. *)
                let f = Vec.get frames d in
                assert (mem f.f_chosen enabled);
                f.f_chosen
              end
              else begin
                match enabled land lnot !cur_sleep with
                | 0 -> -1
                | awake ->
                    let p = lowest awake in
                    Vec.push frames
                      {
                        f_enabled = enabled;
                        f_sleep = !cur_sleep;
                        f_backtrack =
                          (match mode with Naive -> enabled | _ -> bit p);
                        f_done = bit p;
                        f_chosen = p;
                      };
                    p
              end
        in
        if pick < 0 then begin
          status := Sleep_blocked;
          S.Quit
        end
        else begin
          (match mode with
          | Dpor ->
              (* Sleep set of the successor: explored siblings join,
                 anything dependent on the chosen access wakes. *)
              let f = Vec.get frames d in
              let base = f.f_sleep lor (f.f_done land lnot (bit pick)) in
              let sleep = ref 0 in
              for q = 0 to n - 1 do
                if mem q base && mem q runnable && not (dependent t q pick)
                then sleep := !sleep lor bit q
              done;
              cur_sleep := !sleep
          | Naive | Replay _ -> ());
          record t pick;
          hb.fire.(pick)
        end
    end
  in
  let result =
    match
      Sim.run ~seed ~config:Sim.Memory.uniform_config ~controller:choose
        ~procs:n inst.body
    with
    | (_ : Sim.stats) -> Ok ()
    | exception (Replay_diverged _ as e) -> raise e
    | exception e -> Error e
  in
  let violations =
    match result with
    | Error e ->
        [ { Monitor.property = "no-crash"; detail = Printexc.to_string e } ]
    | Ok () -> (
        match !status with
        | Complete -> Monitor.violations_of (inst.at_quiescence ())
        | Deadlocked procs ->
            [
              {
                Monitor.property = "deadlock";
                detail =
                  Printf.sprintf
                    "every unfinished processor is spin-blocked: %s"
                    (String.concat ", "
                       (List.map
                          (fun (p, l) -> Printf.sprintf "p%d on loc %d" p l)
                          procs));
              };
            ]
        | Sleep_blocked | Step_budget -> [])
  in
  {
    schedule = Array.init !depth (fun i -> (Vec.get hb.log i).e_pid);
    status = !status;
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

let explore ?(dpor = true) ?(max_interleavings = 100_000) ?(max_steps = 20_000)
    ?(spin_threshold = 3) ?(seed = 0x5eed) ?(stop_on_violation = true) program =
  let frames = Vec.create () and hb = new_hb program.procs in
  let mode = if dpor then Dpor else Naive in
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
       let r =
         run_once ~seed ~spin_threshold ~max_steps ~mode ~frames ~hb program
       in
       incr runs;
       if Array.length r.schedule > !max_depth then
         max_depth := Array.length r.schedule;
       (match r.status with
       | Complete -> incr complete
       | Deadlocked _ -> incr deadlocks
       | Sleep_blocked -> incr sleep_blocked
       | Step_budget -> incr budget_hits);
       (match r.violations with
       | v :: _ when !cex = None ->
           cex := Some (v, r);
           if stop_on_violation then raise Exit
       | _ -> ());
       (* Backtrack: deepest frame with an unexplored candidate. *)
       let rec pop () =
         if Vec.length frames = 0 then exhausted := true
         else begin
           let f = Vec.get frames (Vec.length frames - 1) in
           match f.f_backtrack land lnot (f.f_done lor f.f_sleep) with
           | 0 ->
               Vec.truncate frames (Vec.length frames - 1);
               pop ()
           | todo ->
               let p = lowest todo in
               f.f_chosen <- p;
               f.f_done <- f.f_done lor bit p
         end
       in
       pop ();
       if not !exhausted then rewind hb (Vec.length frames - 1)
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
  run_once ~seed ~spin_threshold ~max_steps ~mode:(Replay schedule)
    ~frames:(Vec.create ()) ~hb:(new_hb program.procs) program

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

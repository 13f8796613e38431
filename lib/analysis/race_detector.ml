(* Simulated-memory race detector (etrees.analysis, dynamic prong).

   Installs a {!Sim.Memory.tracer} for the duration of a thunk and
   audits every engine-level operation against the effect discipline:

   - [raw-write]: an operation found its cell holding a value that is
     not (physically) the one the engine last installed — some code
     mutated [c.v] directly, bypassing the scheduler.  Such writes cost
     zero simulated cycles and are never serialized, so they corrupt
     both the timing results and (under contention) the values.  This
     is the dynamic complement of the static lint: the lint sees the
     mutation site, the detector sees its effect on a live run.

   - [serialized-overlap]: two serialized operations on one location
     whose service windows overlap.  The busy-until chain makes this
     impossible by construction, so this check is a scheduler
     self-check; a report here means the simulator itself is broken.

   - reads whose completion instant falls inside an in-flight
     serialized write's [begins, finish) window are counted in
     [overlapping_reads].  Under the simulator's memory model these are
     *benign* — reads model cached lines and observe the pre-write
     value, exactly like a local-spinning waiter racing its
     predecessor's release — so they are diagnostics by default and
     promoted to [read-write-overlap] races only under
     [~strict_reads:true] (useful when auditing code that is supposed
     to hold a location's lock around its reads).

   Raw-write detection is sound but not complete: a raw write that
   reinstalls the physically-identical value, or that is raw-overwritten
   before any engine operation touches the cell again, is missed.
   Detection is also deduplicated per location (the shadow stays stale
   after a raw read-side detection, so one stray write would otherwise
   drown the report). *)

type kind = Raw_write | Serialized_overlap | Read_write_overlap

let kind_name = function
  | Raw_write -> "raw-write"
  | Serialized_overlap -> "serialized-overlap"
  | Read_write_overlap -> "read-write-overlap"

type race = {
  kind : kind;
  loc_id : int;       (* Memory.loc allocation index *)
  pid : int;          (* processor whose operation detected it *)
  time : int;         (* simulated completion time of that operation *)
  writer_pid : int;   (* last engine writer of the location (-1 none) *)
  writer_time : int;
  writer_seq : int;
  detail : string;
}

type report = {
  races : race list;        (* detection order *)
  overlapping_reads : int;
  reads_checked : int;
  commits_checked : int;
  issues_checked : int;
}

let format_race r =
  let writer =
    if r.writer_pid < 0 then "no engine writer yet"
    else
      Printf.sprintf "last engine writer: pid %d at t=%d seq %d" r.writer_pid
        r.writer_time r.writer_seq
  in
  Printf.sprintf "[%s] loc %d: pid %d at t=%d (%s) — %s" (kind_name r.kind)
    r.loc_id r.pid r.time writer r.detail

let format_report rep =
  let header =
    Printf.sprintf
      "race detector: %d race(s); %d overlapping read(s); %d reads, %d \
       commits, %d serialized issues checked\n"
      (List.length rep.races) rep.overlapping_reads rep.reads_checked
      rep.commits_checked rep.issues_checked
  in
  header ^ String.concat "" (List.map (fun r -> format_race r ^ "\n") rep.races)

(* One [run]'s audit so far.  The tracer's calls are closures over it,
   and the helpers below take it as their first argument, so installing
   the detector builds this record and one closure per tracer call, and
   a call allocates nothing more. *)
type state = {
  strict_reads : bool;
  max_races : int;
  dirty : (int, unit) Hashtbl.t;
      (* locations with a reported raw write: their shadow stays stale
         (reads cannot heal it), so each is reported once *)
  mutable found : race list;  (* newest first, at most [max_races] *)
  mutable n_found : int;
  mutable overlaps : int;
  mutable reads : int;
  mutable commits : int;
  mutable issues : int;
}

let add st (loc : Sim.Memory.loc) kind ~pid ~time detail =
  if st.n_found < st.max_races then
    st.found <-
      {
        kind;
        loc_id = loc.id;
        pid;
        time;
        writer_pid = loc.epoch_pid;
        writer_time = loc.epoch_time;
        writer_seq = loc.epoch_seq;
        detail;
      }
      :: st.found;
  st.n_found <- st.n_found + 1

let raw_write st (loc : Sim.Memory.loc) ~pid ~time ~op =
  if not (Hashtbl.mem st.dirty loc.id) then begin
    Hashtbl.add st.dirty loc.id ();
    add st loc Raw_write ~pid ~time
      (Printf.sprintf
         "%s found a value the engine never installed: a raw mutation \
          bypassed the effect discipline"
         op)
  end

(* The count-only call: [reads] again, [repeats] times, the [j]-th
   [j * period] later.  No value, shadow or window moves meanwhile, so
   each recorded read finds in every repeat what it found in the first.
   The repeats up to [last] are made read by read, through the
   detector's [on_read], and the rest are only counted.  The first
   repeat is always made: it makes every raw-write report any repeat
   can make, since a location is reported once.  A read can also fall
   in another processor's frozen window on its location, in repeats
   that fire before the window's finish, so [last] is at least the
   last such repeat: overlaps, and under [strict_reads] their races in
   order with the other reads' checks, come out as stepping makes
   them.  In a dead run every window has closed (its op's event fires,
   or a crash drops it, at the window's finish or later, and the run is
   dead only once no processor waits on an op), so [last] is 1. *)
let rec last_open reads ~period last =
  match reads with
  | [] -> last
  | (r : Sim.Memory.read) :: reads ->
      let loc = r.r_loc in
      let last =
        if
          r.r_serialized || loc.pend_pid < 0 || loc.pend_pid = r.r_pid
          || loc.pend_finish <= r.r_fired
        then last
        else max last ((loc.pend_finish - 1 - r.r_fired) / period)
      in
      last_open reads ~period last

let rec expand on_read reads ~shift =
  match reads with
  | [] -> ()
  | (r : Sim.Memory.read) :: reads ->
      on_read r.r_loc ~pid:r.r_pid ~issued:(r.r_issued + shift)
        ~fired:(r.r_fired + shift) ~serialized:r.r_serialized ~clean:r.r_clean;
      expand on_read reads ~shift

let on_reads st on_read reads ~period ~repeats =
  let last = min repeats (last_open reads ~period 1) in
  for j = 1 to last do
    expand on_read reads ~shift:(j * period)
  done;
  if repeats > last then
    st.reads <- st.reads + ((repeats - last) * List.length reads)

(* Run [f] with the detector observing all simulated-memory traffic.
   Nested uses restore the previously installed tracer. *)
let run ?(strict_reads = false) ?(max_races = 1000) f =
  let st =
    {
      strict_reads;
      max_races;
      dirty = Hashtbl.create 64;
      found = [];
      n_found = 0;
      overlaps = 0;
      reads = 0;
      commits = 0;
      issues = 0;
    }
  in
  let on_read (loc : Sim.Memory.loc) ~pid ~issued ~fired ~serialized ~clean =
    st.reads <- st.reads + 1;
    if not clean then raw_write st loc ~pid ~time:fired ~op:"read";
    if
      (not serialized)
      && loc.pend_pid >= 0
      && loc.pend_pid <> pid
      && fired >= loc.pend_begins
      && fired < loc.pend_finish
    then begin
      st.overlaps <- st.overlaps + 1;
      if strict_reads then
        add st loc Read_write_overlap ~pid ~time:fired
          (Printf.sprintf
             "read issued at t=%d completed inside pid %d's in-flight \
              serialized window [%d, %d)"
             issued loc.pend_pid loc.pend_begins loc.pend_finish)
    end
  in
  let on_issue (loc : Sim.Memory.loc) ~pid ~now ~begins ~finish =
    st.issues <- st.issues + 1;
    (* [begins] is max(now, busy_until) and busy_until is the previous
       op's finish, so overlap here means the busy-until chain broke. *)
    if loc.pend_pid >= 0 && begins < loc.pend_finish then
      add st loc Serialized_overlap ~pid ~time:now
        (Printf.sprintf
           "serialized window [%d, %d) overlaps pid %d's window [%d, %d): \
            busy-until chain violated"
           begins finish loc.pend_pid loc.pend_begins loc.pend_finish)
  in
  let on_commit (loc : Sim.Memory.loc) ~pid ~time ~clean =
    st.commits <- st.commits + 1;
    if not clean then raw_write st loc ~pid ~time ~op:"serialized op"
  in
  let prev = !Sim.Memory.tracer in
  Sim.Memory.tracer :=
    Some
      {
        Sim.Memory.on_read;
        on_reads =
          (fun reads ~period ~repeats ->
            on_reads st on_read reads ~period ~repeats);
        on_issue;
        on_commit;
      };
  Fun.protect ~finally:(fun () -> Sim.Memory.tracer := prev) @@ fun () ->
  let result = f () in
  ( result,
    {
      races = List.rev st.found;
      overlapping_reads = st.overlaps;
      reads_checked = st.reads;
      commits_checked = st.commits;
      issues_checked = st.issues;
    } )

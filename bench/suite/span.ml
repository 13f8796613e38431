(* Host-time spans recorded on the benchmark's side of each layer
   boundary: around the calls into a library's public functions and
   around the closures the benchmark hands to it.  Spans are kept in
   memory and written out once, as Chrome trace JSON, when the run ends.

   Recording is off unless [enabled] is set (the traced repetition and
   the layer microbenchmarks); an untraced repetition pays one boolean
   test per wrapped call.  Closures the model checker calls once per
   execution would make tens of thousands of spans, so they are
   [tally]-ed instead: one entry per (parent, name) carrying the call
   count and the summed duration. *)

let now () = Monotonic_clock.now ()

type t = {
  id : int;
  parent : int;  (** -1 at a root *)
  name : string;
  start_ns : int64;
  dur_ns : int64;
  calls : int;  (** 1 for a span; the number of calls summed by a tally *)
}

let enabled = ref false
let finished : t list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0
let tallies : (int * string, t) Hashtbl.t = Hashtbl.create 8

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

let current () = match !stack with p :: _ -> p | [] -> -1

let with_span name f =
  if not !enabled then f ()
  else begin
    let parent = current () and id = fresh_id () in
    stack := id :: !stack;
    let start_ns = now () in
    Fun.protect
      ~finally:(fun () ->
        let dur_ns = Int64.sub (now ()) start_ns in
        stack := List.tl !stack;
        finished :=
          { id; parent; name; start_ns; dur_ns; calls = 1 } :: !finished)
      f
  end

let tally name f =
  if not !enabled then f ()
  else begin
    let start_ns = now () in
    Fun.protect
      ~finally:(fun () ->
        let dur = Int64.sub (now ()) start_ns in
        let key = (current (), name) in
        let entry =
          match Hashtbl.find_opt tallies key with
          | Some e -> { e with dur_ns = Int64.add e.dur_ns dur; calls = e.calls + 1 }
          | None ->
              { id = fresh_id (); parent = fst key; name; start_ns;
                dur_ns = dur; calls = 1 }
        in
        Hashtbl.replace tallies key entry)
      f
  end

(* Every span and tally recorded so far, in start order, and reset. *)
let take () =
  let all = Hashtbl.fold (fun _ e acc -> e :: acc) tallies !finished in
  finished := [];
  Hashtbl.reset tallies;
  List.sort (fun a b -> compare (a.start_ns, a.id) (b.start_ns, b.id)) all

(* Graft spans recorded elsewhere (a traced child process) under the
   open span, renumbering their ids past this process's own. *)
let adopt spans =
  let offset = !next_id and parent = current () in
  let graft s =
    { s with id = s.id + offset;
      parent = (if s.parent < 0 then parent else s.parent + offset) }
  in
  let spans = List.map graft spans in
  next_id := List.fold_left (fun m s -> max m (s.id + 1)) !next_id spans;
  finished := List.rev_append spans !finished

let children spans id = List.filter (fun s -> s.parent = id) spans
let find spans ~parent name =
  List.find_opt (fun s -> s.parent = parent && s.name = name) spans

(* Self time: the span's duration minus the part its children cover.
   Children never overlap (the benchmark is single-threaded), and a
   tally's summed duration lies inside its parent. *)
let self_ns spans s =
  List.fold_left (fun acc c -> Int64.sub acc c.dur_ns) s.dur_ns
    (children spans s.id)

(* Per name: calls, summed duration and summed self time, in order of
   first appearance. *)
let self_table spans =
  let order = ref [] and tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let calls, total, self =
        match Hashtbl.find_opt tbl s.name with
        | Some v -> v
        | None ->
            order := s.name :: !order;
            (0, 0L, 0L)
      in
      Hashtbl.replace tbl s.name
        (calls + s.calls, Int64.add total s.dur_ns,
         Int64.add self (self_ns spans s)))
    spans;
  List.rev_map (fun n -> let c, t, s = Hashtbl.find tbl n in (n, c, t, s)) !order

(* Chrome trace "complete" events on one track: spans nest by time, and
   a tally (which is a sum, not an interval) rides in its parent's
   args. *)
let chrome_json spans =
  let module J = Etrace.Json in
  let t0 = List.fold_left (fun m s -> min m s.start_ns) Int64.max_int spans in
  let us ns = J.Num (Int64.to_float ns /. 1e3) in
  let tallied_under id =
    List.filter_map
      (fun c ->
        if c.parent = id && c.calls > 1 then
          Some (c.name, J.Obj [ ("calls", J.Num (float_of_int c.calls));
                                ("total_us", us c.dur_ns) ])
        else None)
      spans
  in
  let event s =
    J.Obj
      [
        ("name", J.Str s.name); ("cat", J.Str "bench"); ("ph", J.Str "X");
        ("ts", us (Int64.sub s.start_ns t0)); ("dur", us s.dur_ns);
        ("pid", J.Num 1.0); ("tid", J.Num 1.0);
        ( "args",
          J.Obj
            ([ ("id", J.Num (float_of_int s.id));
               ("parent", J.Num (float_of_int s.parent));
               ("self_us", us (self_ns spans s)) ]
            @ tallied_under s.id) );
      ]
  in
  J.Obj
    [
      ("traceEvents",
       J.Arr (List.filter_map
                (fun s -> if s.calls > 1 then None else Some (event s)) spans));
      ("displayTimeUnit", J.Str "ms");
    ]

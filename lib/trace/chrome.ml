(* Chrome trace-event / Perfetto export (etrees.trace).

   A sink that renders the event stream as Chrome trace-event JSON
   (the "JSON Array Format" every Chromium and ui.perfetto.dev build
   reads).  Conventions:

   - one process (pid 0 = the simulator), one thread track per
     simulated processor (tid = processor id);
   - timestamps are in microseconds; we map 1 simulated cycle = 1 us;
   - each pool operation is an async span ([ph b]/[ph e], one id per
     operation) so its whole journey through the tree reads as a single
     arrow-connected bar;
   - balancer visits, prism phases, toggle waits and spin waits are
     nested duration spans ([ph B]/[ph E]) on the processor's track;
   - prism collision CASes and injected faults are instants ([ph i]);
   - two counter tracks ([ph C]): processors currently inside a prism
     layer, and processors queueing for or holding a toggle lock;
   - at [Full] level, every raw scheduler interval becomes a complete
     slice ([ph X]): memory queueing delay, service window, fault
     stalls, and local delays.

   The sink's [level] selects how much is *rendered*; emission into the
   sink is always full (see [Level]).  Events arrive in simulated-time
   order within each processor, so per-track timestamps are monotone by
   construction — [validate] re-checks that from the written text.

   Rendering buffers everything: trace files from the simulator's runs
   are megabytes, not gigabytes, and buffering lets [contents] prepend
   the metadata records (process/thread names) for exactly the tracks
   that appeared. *)

type t = {
  level : Level.t;
  buf : Buffer.t;
  mutable first : bool;
  pids : (int, unit) Hashtbl.t; (* tracks seen, for thread metadata *)
  op_seq : (int, int) Hashtbl.t; (* per-pid async-span sequence *)
  open_op : (int, int) Hashtbl.t; (* pid -> open async-span id *)
  mutable prism_occupancy : int;
  mutable toggle_depth : int;
}

let create ?(level = Level.Events) () =
  {
    level;
    buf = Buffer.create 65536;
    first = true;
    pids = Hashtbl.create 64;
    op_seq = Hashtbl.create 64;
    open_op = Hashtbl.create 64;
    prism_occupancy = 0;
    toggle_depth = 0;
  }

let level t = t.level

let raw t s =
  if t.first then t.first <- false else Buffer.add_string t.buf ",\n";
  Buffer.add_string t.buf s

let ev t fmt = Printf.ksprintf (raw t) fmt

let track t pid =
  if not (Hashtbl.mem t.pids pid) then Hashtbl.add t.pids pid ()

(* Async-span ids: unique per operation, decodable back to the
   processor ([id / 1_000_000]) when eyeballing raw JSON. *)
let fresh_op_id t pid =
  let seq = match Hashtbl.find_opt t.op_seq pid with Some s -> s | None -> 0 in
  Hashtbl.replace t.op_seq pid (seq + 1);
  (pid * 1_000_000) + seq

let instant t ~pid ~time ~name ~args =
  ev t {|{"name":"%s","cat":"sim","ph":"i","s":"t","pid":0,"tid":%d,"ts":%d,"args":{%s}}|}
    name pid time args

let begin_span t ~pid ~time ~name =
  ev t {|{"name":"%s","cat":"sim","ph":"B","pid":0,"tid":%d,"ts":%d}|} name pid
    time

let end_span t ~pid ~time ~args =
  if args = "" then ev t {|{"ph":"E","pid":0,"tid":%d,"ts":%d}|} pid time
  else ev t {|{"ph":"E","pid":0,"tid":%d,"ts":%d,"args":{%s}}|} pid time args

let slice t ~pid ~ts ~dur ~name ~args =
  ev t {|{"name":"%s","cat":"mem","ph":"X","pid":0,"tid":%d,"ts":%d,"dur":%d,"args":{%s}}|}
    name pid ts dur args

let counter t ~time ~name ~value =
  ev t {|{"name":"%s","ph":"C","pid":0,"ts":%d,"args":{"n":%d}}|} name time
    value

let on_event t (e : Event.t) =
  let r = Level.rank t.level in
  if r >= 1 then begin
    track t (Event.pid e);
    match e with
    (* -- ops level ------------------------------------------------- *)
    | Event.Proc_start { pid; time } ->
        instant t ~pid ~time ~name:"proc-start" ~args:""
    | Event.Proc_end { pid; time; reason } ->
        instant t ~pid ~time ~name:"proc-end"
          ~args:
            (Printf.sprintf {|"reason":"%s"|} (Event.end_reason_name reason))
    | Event.Op_begin { pid; time; kind } ->
        let id = fresh_op_id t pid in
        Hashtbl.replace t.open_op pid id;
        ev t
          {|{"name":"%s","cat":"op","ph":"b","id":%d,"pid":0,"tid":%d,"ts":%d}|}
          (Event.token_kind_name kind)
          id pid time
    | Event.Op_end { pid; time; kind; leaf } ->
        (match Hashtbl.find_opt t.open_op pid with
        | None -> ()
        | Some id ->
            Hashtbl.remove t.open_op pid;
            let args =
              match leaf with
              | Some w -> Printf.sprintf {|"leaf":%d|} w
              | None -> {|"eliminated":true|}
            in
            ev t
              {|{"name":"%s","cat":"op","ph":"e","id":%d,"pid":0,"tid":%d,"ts":%d,"args":{%s}}|}
              (Event.token_kind_name kind)
              id pid time args)
    | Event.Fault_stall { pid; time; until } ->
        instant t ~pid ~time ~name:"fault-stall"
          ~args:(Printf.sprintf {|"until":%d|} until)
    | Event.Fault_crash { pid; time } ->
        instant t ~pid ~time ~name:"fault-crash" ~args:""
    (* -- events level ---------------------------------------------- *)
    | Event.Balancer_enter { pid; time; balancer; depth; kind } ->
        if r >= 2 then
          ev t
            {|{"name":"balancer %d","cat":"sim","ph":"B","pid":0,"tid":%d,"ts":%d,"args":{"depth":%d,"kind":"%s"}}|}
            balancer pid time depth
            (Event.token_kind_name kind)
    | Event.Balancer_exit { pid; time; wire; _ } ->
        if r >= 2 then
          end_span t ~pid ~time
            ~args:
              (match wire with
              | Some w -> Printf.sprintf {|"wire":%d|} w
              | None -> {|"eliminated":true|})
    | Event.Prism_enter { pid; time; balancer; layer } ->
        if r >= 2 then begin
          begin_span t ~pid ~time
            ~name:(Printf.sprintf "prism %d/L%d" balancer layer);
          t.prism_occupancy <- t.prism_occupancy + 1;
          counter t ~time ~name:"prism occupancy" ~value:t.prism_occupancy
        end
    | Event.Prism_exit { pid; time; _ } ->
        if r >= 2 then begin
          end_span t ~pid ~time ~args:"";
          t.prism_occupancy <- t.prism_occupancy - 1;
          counter t ~time ~name:"prism occupancy" ~value:t.prism_occupancy
        end
    | Event.Prism_cas { pid; time; balancer; partner; initiator; result } ->
        if r >= 2 then
          instant t ~pid ~time ~name:"prism-cas"
            ~args:
              (Printf.sprintf
                 {|"balancer":%d,"partner":%d,"initiator":%b,"result":"%s"|}
                 balancer partner initiator
                 (Event.collision_name result))
    | Event.Toggle_wait { pid; time; balancer } ->
        if r >= 2 then begin
          begin_span t ~pid ~time ~name:(Printf.sprintf "toggle %d" balancer);
          t.toggle_depth <- t.toggle_depth + 1;
          counter t ~time ~name:"toggle queue depth" ~value:t.toggle_depth
        end
    | Event.Toggle_pass { pid; time; toggled; _ } ->
        if r >= 2 then begin
          end_span t ~pid ~time
            ~args:(Printf.sprintf {|"toggled":%b|} toggled);
          t.toggle_depth <- t.toggle_depth - 1;
          counter t ~time ~name:"toggle queue depth" ~value:t.toggle_depth
        end
    | Event.Spin_begin { pid; time } ->
        if r >= 2 then begin_span t ~pid ~time ~name:"spin"
    | Event.Spin_end { pid; time } ->
        if r >= 2 then end_span t ~pid ~time ~args:""
    | Event.Adapt_spin { pid; time; balancer; spin } ->
        if r >= 2 then begin
          instant t ~pid ~time ~name:"adapt-spin"
            ~args:(Printf.sprintf {|"balancer":%d,"spin":%d|} balancer spin);
          counter t ~time
            ~name:(Printf.sprintf "spin window b%d" balancer)
            ~value:spin
        end
    | Event.Adapt_width { pid; time; balancer; layer; width } ->
        if r >= 2 then begin
          instant t ~pid ~time ~name:"adapt-width"
            ~args:
              (Printf.sprintf {|"balancer":%d,"layer":%d,"width":%d|} balancer
                 layer width);
          counter t ~time
            ~name:(Printf.sprintf "prism width b%d.%d" balancer layer)
            ~value:width
        end
    (* -- full level ------------------------------------------------ *)
    | Event.Mem_op { pid; kind; loc; issued; begins; finish; fired } ->
        if r >= 3 then begin
          if begins > issued then
            slice t ~pid ~ts:issued ~dur:(begins - issued) ~name:"queue"
              ~args:(Printf.sprintf {|"loc":%d|} loc);
          slice t ~pid ~ts:begins ~dur:(finish - begins)
            ~name:(Event.mem_kind_name kind)
            ~args:(Printf.sprintf {|"loc":%d|} loc);
          if fired > finish then
            slice t ~pid ~ts:finish ~dur:(fired - finish) ~name:"stalled"
              ~args:""
        end
    | Event.Delay_done { pid; issued; fired; planned } ->
        if r >= 3 && fired > issued then
          slice t ~pid ~ts:issued ~dur:(fired - issued) ~name:"delay"
            ~args:(Printf.sprintf {|"planned":%d|} planned)
  end

(* -- output -------------------------------------------------------- *)

let contents t =
  let out = Buffer.create (Buffer.length t.buf + 4096) in
  Buffer.add_string out {|{"displayTimeUnit":"ms","traceEvents":[|};
  Buffer.add_char out '\n';
  let meta = Buffer.create 1024 in
  Buffer.add_string meta
    {|{"name":"process_name","ph":"M","pid":0,"args":{"name":"etrees-sim"}}|};
  let pids =
    Hashtbl.fold (fun pid () acc -> pid :: acc) t.pids []
    |> List.sort compare
  in
  List.iter
    (fun pid ->
      Buffer.add_string meta ",\n";
      Buffer.add_string meta
        (Printf.sprintf
           {|{"name":"thread_name","ph":"M","pid":0,"tid":%d,"args":{"name":"proc %d"}}|}
           pid pid))
    pids;
  Buffer.add_buffer out meta;
  if Buffer.length t.buf > 0 then begin
    Buffer.add_string out ",\n";
    Buffer.add_buffer out t.buf
  end;
  Buffer.add_string out "\n]}\n";
  Buffer.contents out

(* Flushed before [with_open_bin] closes the channel, which would
   swallow a failed last write. *)
let write ~file t =
  Out_channel.with_open_bin file (fun oc ->
      Out_channel.output_string oc (contents t);
      Out_channel.flush oc)

(* -- validation ---------------------------------------------------- *)

type stats = { events : int; tracks : int }

let known_phases = [ "M"; "i"; "b"; "e"; "B"; "E"; "X"; "C" ]

(* Structural validation of written trace text: parses the JSON,
   checks every record has a known phase, pid, and (except metadata) a
   timestamp, and that timestamps are monotone non-decreasing per
   thread track and per counter track.  Used by the golden-fixture
   test, the CLI's [--check], and the CI smoke. *)
let validate text =
  let ( let* ) = Result.bind in
  let* root = Json.parse text in
  let* events =
    match Json.member "traceEvents" root with
    | Some (Json.Arr evs) -> Ok evs
    | _ -> Error "missing traceEvents array"
  in
  let last_ts : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let tracks : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let check_one i v =
    let fail msg = Error (Printf.sprintf "event %d: %s" i msg) in
    match v with
    | Json.Obj _ -> (
        match Option.bind (Json.member "ph" v) Json.to_str with
        | None -> fail "missing ph"
        | Some ph when not (List.mem ph known_phases) ->
            fail (Printf.sprintf "unknown ph %S" ph)
        | Some "M" ->
            if Json.member "pid" v = None then fail "metadata without pid"
            else Ok ()
        | Some ph -> (
            match Option.bind (Json.member "ts" v) Json.to_int with
            | None -> fail "missing ts"
            | Some ts ->
                if ts < 0 then fail "negative ts"
                else begin
                  let key =
                    if ph = "C" then
                      match Option.bind (Json.member "name" v) Json.to_str with
                      | Some n -> "C:" ^ n
                      | None -> "C:?"
                    else
                      match Option.bind (Json.member "tid" v) Json.to_int with
                      | Some tid ->
                          Hashtbl.replace tracks tid ();
                          Printf.sprintf "T:%d" tid
                      | None -> "T:?"
                  in
                  match Hashtbl.find_opt last_ts key with
                  | Some prev when ts < prev ->
                      fail
                        (Printf.sprintf
                           "timestamps not monotone on track %s (%d < %d)" key
                           ts prev)
                  | _ ->
                      Hashtbl.replace last_ts key ts;
                      Ok ()
                end))
    | _ -> fail "not an object"
  in
  let rec all i = function
    | [] -> Ok ()
    | v :: rest ->
        let* () = check_one i v in
        all (i + 1) rest
  in
  let* () = all 0 events in
  Ok { events = List.length events; tracks = Hashtbl.length tracks }

let validate_file file =
  match In_channel.with_open_bin file In_channel.input_all with
  | text -> validate text
  | exception Sys_error msg -> Error msg

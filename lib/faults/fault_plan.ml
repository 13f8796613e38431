(* Seeded, deterministic fault plans.

   A plan is pure data: a seed plus a list of scheduled adversarial
   events.  Seed-derived constructors place events with a private
   Splitmix stream (tagged per fault class so stall and crash placement
   are decorrelated); the compiled injector consults only pure
   functions of (event list, seed, pid, time, location id), so a run
   under the same (seed, plan) replays the identical execution.  See
   docs/FAULTS.md. *)

type event =
  | Stall of { pid : int; at : int; cycles : int }
  | Crash of { pid : int; at : int }
  | Hotspot of { from_ : int; until_ : int; factor : int; num : int;
                 den : int; salt : int }
  | Jitter of { from_ : int; until_ : int; amp : int }

type t = { seed : int; events : event list }

let none = { seed = 0; events = [] }
let is_none t = t.events = []

(* ------------------------------------------------------------------ *)
(* Pure hashing (jitter amounts, hot-spot location selection)          *)
(* ------------------------------------------------------------------ *)

(* The finalizer itself lives in {!Engine.Splitmix.hash3} (shared with
   stream derivation and the shard frontend's session hash); here we
   only bound it to a modulus. *)
let hash_mod a b c m = if m <= 0 then 0 else Engine.Splitmix.hash3 a b c mod m

(* Is location [id] inside the [num/den] slice selected by [salt]? *)
let hot_location ~salt ~num ~den id = hash_mod id salt 0x407 den < num

(* ------------------------------------------------------------------ *)
(* Seed-derived constructors                                           *)
(* ------------------------------------------------------------------ *)

let rng_of ~seed ~tag = Engine.Splitmix.stream ~seed ~index:tag

let stalls ~seed ~procs ~horizon ~count ~cycles =
  if procs < 1 then invalid_arg "Fault_plan.stalls: procs must be positive";
  if cycles < 1 then invalid_arg "Fault_plan.stalls: cycles must be positive";
  let rng = rng_of ~seed ~tag:1 in
  let events =
    List.init (max 0 count) (fun _ ->
        let pid = Engine.Splitmix.int rng procs in
        let at = Engine.Splitmix.int rng (max 1 horizon) in
        Stall { pid; at; cycles })
  in
  { seed; events }

let crashes ~seed ~procs ~horizon ~count =
  if procs < 1 then invalid_arg "Fault_plan.crashes: procs must be positive";
  (* Fisher-Yates over the pid space, so crash targets are distinct and
     at least one processor always survives. *)
  let rng = rng_of ~seed ~tag:2 in
  let pids = Array.init procs Fun.id in
  for i = procs - 1 downto 1 do
    let j = Engine.Splitmix.int rng (i + 1) in
    let tmp = pids.(i) in
    pids.(i) <- pids.(j);
    pids.(j) <- tmp
  done;
  let count = min (max 0 count) (procs - 1) in
  let events =
    List.init count (fun i ->
        let at = Engine.Splitmix.int rng (max 1 horizon) in
        Crash { pid = pids.(i); at })
  in
  { seed; events }

let hotspot ?(salt = 0) ?(num = 1) ?(den = 8) ~from_ ~until_ ~factor () =
  if factor < 1 then invalid_arg "Fault_plan.hotspot: factor must be >= 1";
  if den < 1 || num < 0 then invalid_arg "Fault_plan.hotspot: bad fraction";
  { seed = 0; events = [ Hotspot { from_; until_; factor; num; den; salt } ] }

let jitter ~from_ ~until_ ~amp =
  if amp < 0 then invalid_arg "Fault_plan.jitter: amp must be >= 0";
  { seed = 0; events = [ Jitter { from_; until_; amp } ] }

let union ~seed plans = { seed; events = List.concat_map (fun p -> p.events) plans }

let ladder_levels = 4

let ladder ~seed ~procs ~horizon ~level =
  let level = min (max level 0) (ladder_levels - 1) in
  let stall_plan =
    stalls ~seed ~procs ~horizon ~count:(max 2 (procs / 8))
      ~cycles:(max 500 (horizon / 20))
  in
  let hot_plan =
    hotspot ~salt:seed ~from_:(horizon / 4) ~until_:(3 * horizon / 4)
      ~factor:8 ()
  in
  let jitter_plan = jitter ~from_:0 ~until_:horizon ~amp:64 in
  let crash_plan =
    crashes ~seed ~procs ~horizon ~count:(max 1 (procs / 16))
  in
  match level with
  | 0 -> none
  | 1 -> union ~seed [ stall_plan ]
  | 2 -> union ~seed [ stall_plan; hot_plan; jitter_plan ]
  | _ -> union ~seed [ stall_plan; hot_plan; jitter_plan; crash_plan ]

let level_label = function
  | 0 -> "none"
  | 1 -> "stalls"
  | 2 -> "stalls+hotspot+jitter"
  | _ -> "stalls+hotspot+jitter+crashes"

(* ------------------------------------------------------------------ *)
(* CLI plumbing                                                        *)
(* ------------------------------------------------------------------ *)

let parse_pair s =
  match String.index_opt s 'x' with
  | None -> Error (Printf.sprintf "%S: expected COUNTxCYCLES (e.g. 8x2000)" s)
  | Some i -> (
      let a = String.sub s 0 i
      and b = String.sub s (i + 1) (String.length s - i - 1) in
      match (int_of_string_opt a, int_of_string_opt b) with
      | Some a, Some b when a > 0 && b > 0 -> Ok (a, b)
      | Some _, Some _ -> Error (Printf.sprintf "%S: both parts must be positive" s)
      | _ -> Error (Printf.sprintf "%S: expected COUNTxCYCLES (e.g. 8x2000)" s))

let of_flags ~fault_seed ~procs ~horizon ~stall ~crash ~hotspot:hot ~jitter:amp =
  let parts =
    List.concat
      [
        (match stall with
        | Some (count, cycles) ->
            [ stalls ~seed:fault_seed ~procs ~horizon ~count ~cycles ]
        | None -> []);
        (if crash > 0 then
           [ crashes ~seed:fault_seed ~procs ~horizon ~count:crash ]
         else []);
        (match hot with
        | Some (factor, den) ->
            [
              hotspot ~salt:fault_seed ~den ~from_:(horizon / 4)
                ~until_:(3 * horizon / 4) ~factor ();
            ]
        | None -> []);
        (if amp > 0 then [ jitter ~from_:0 ~until_:horizon ~amp ] else []);
      ]
  in
  union ~seed:fault_seed parts

(* ------------------------------------------------------------------ *)
(* Inspection                                                          *)
(* ------------------------------------------------------------------ *)

let describe t =
  if is_none t then "no faults"
  else
    let part = function
      | Stall { pid; at; cycles } ->
          Printf.sprintf "stall p%d@%d+%d" pid at cycles
      | Crash { pid; at } -> Printf.sprintf "crash p%d@%d" pid at
      | Hotspot { from_; until_; factor; num; den; salt = _ } ->
          Printf.sprintf "hotspot [%d,%d)x%d %d/%d" from_ until_ factor num den
      | Jitter { from_; until_; amp } ->
          Printf.sprintf "jitter [%d,%d)+%d" from_ until_ amp
    in
    Printf.sprintf "seed=%d; %s" t.seed
      (String.concat "; " (List.map part t.events))

let crash_pids t =
  List.filter_map (function Crash { pid; _ } -> Some pid | _ -> None) t.events
  |> List.sort_uniq compare

let crash_count t = List.length (crash_pids t)

let faulty_pids t =
  List.filter_map
    (function
      | Crash { pid; _ } | Stall { pid; _ } -> Some pid
      | Hotspot _ | Jitter _ -> None)
    t.events
  |> List.sort_uniq compare

(* ------------------------------------------------------------------ *)
(* Compilation into scheduler hooks                                    *)
(* ------------------------------------------------------------------ *)

let injector t =
  let max_pid =
    List.fold_left
      (fun acc -> function
        | Stall { pid; _ } | Crash { pid; _ } -> max acc pid
        | Hotspot _ | Jitter _ -> acc)
      (-1) t.events
  in
  let crash_at = Array.make (max_pid + 1) max_int in
  let stall_windows = Array.make (max_pid + 1) [] in
  let hotspots =
    List.filter_map
      (function
        | Hotspot { from_; until_; factor; num; den; salt } ->
            Some (from_, until_, factor, num, den, salt)
        | _ -> None)
      t.events
  in
  let jitters =
    List.filter_map
      (function
        | Jitter { from_; until_; amp } when amp > 0 ->
            Some (from_, until_, amp)
        | _ -> None)
      t.events
  in
  List.iter
    (function
      | Crash { pid; at } -> crash_at.(pid) <- min crash_at.(pid) at
      | Stall { pid; at; cycles } ->
          stall_windows.(pid) <- (at, at + cycles) :: stall_windows.(pid)
      | Hotspot _ | Jitter _ -> ())
    t.events;
  (* The last window's end: from there on no hook depends on time. *)
  let quiet_from =
    List.fold_left
      (fun acc -> function
        | Stall { at; cycles; _ } -> max acc (at + cycles)
        | Crash { at; _ } -> max acc at
        | Hotspot { until_; _ } -> max acc until_
        | Jitter { until_; amp; _ } -> if amp > 0 then max acc until_ else acc)
      0 t.events
  in
  let seed = t.seed in
  let on_event ~pid ~time =
    if pid > max_pid then Sim.Scheduler.Fault_proceed
    else if time >= crash_at.(pid) then Sim.Scheduler.Fault_drop
    else
      match
        List.find_opt (fun (a, u) -> a <= time && time < u) stall_windows.(pid)
      with
      | Some (_, until_) -> Sim.Scheduler.Fault_defer until_
      | None -> Sim.Scheduler.Fault_proceed
  in
  (* Hash location ids relative to the allocation watermark at
     compile time: absolute ids grow monotonically across runs in one
     process, and hashing them raw would select a different hot set on
     an otherwise identical replay. *)
  let id_base = Sim.Memory.loc_count () in
  let mem_latency ~loc ~pid:_ ~now ~base =
    let factor =
      List.fold_left
        (fun acc (from_, until_, factor, num, den, salt) ->
          if
            from_ <= now && now < until_
            && hot_location ~salt ~num ~den (loc.Sim.Memory.id - id_base)
          then max acc factor
          else acc)
        1 hotspots
    in
    base * factor
  in
  let delay_jitter ~pid ~now ~base:_ =
    List.fold_left
      (fun acc (from_, until_, amp) ->
        if from_ <= now && now < until_ then
          max acc (hash_mod seed pid now (amp + 1))
        else acc)
      0 jitters
  in
  { Sim.Scheduler.on_event; mem_latency; delay_jitter; quiet_from }

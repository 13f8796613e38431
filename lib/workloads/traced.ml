(* Running workloads under tracing sinks (etrees.trace).

   [run] installs an attribution sink — and, when a [chrome_level] is
   given, a Chrome-export sink — around an arbitrary thunk, restoring
   the previous trace state afterwards.  Emission into the sinks never
   costs simulated cycles, so the thunk's simulated results are
   identical to an untraced run; only host time is spent.

   [procs] must cover every simulated processor id the thunk can spawn
   (events from higher pids are ignored by the attribution sink, which
   would unbalance its books). *)

type 'a traced = {
  value : 'a;
  attribution : Etrace.Attribution.summary;
  chrome : Etrace.Chrome.t option; (* present iff [chrome_level] given *)
}

let run ?chrome_level ~procs f =
  let attr = Etrace.Attribution.create ~procs in
  let chrome =
    Option.map (fun level -> Etrace.Chrome.create ~level ()) chrome_level
  in
  let sinks =
    Etrace.Attribution.sink attr
    ::
    (match chrome with
    | Some c -> [ Etrace.Chrome.on_event c ]
    | None -> [])
  in
  let value = Etrace.with_tracing (Etrace.tee sinks) f in
  { value; attribution = Etrace.Attribution.summarize attr; chrome }

type report = {
  text : string;
  failures : string list;
  validated : Etrace.Chrome.stats option;
}

(* The traced produce-consume report bench/main.exe and etrees_run
   trace print: the attribution table, its books check and the Chrome
   timeline written to [out], read back and validated when asked. *)
let report ~name ~workload ?out ?(validate = true) t =
  let a = t.attribution in
  let books =
    if Etrace.Attribution.check a then []
    else
      [
        Printf.sprintf "attribution books do not balance (%d/%d cycles)"
          a.Etrace.Attribution.attributed_cycles
          a.Etrace.Attribution.total_cycles;
      ]
  in
  let validated, failures =
    match (t.chrome, out) with
    | Some c, Some file -> (
        Etrace.Chrome.write ~file c;
        if not validate then (None, books)
        else
          match Etrace.Chrome.validate_file file with
          | Ok st -> (Some st, books)
          | Error e ->
              ( None,
                books
                @ [ Printf.sprintf "%s fails trace validation: %s" file e ] ))
    | _ -> (None, books)
  in
  let title =
    Printf.sprintf "Cycle attribution: %s, W=%d, %d procs" name workload
      a.Etrace.Attribution.procs
  in
  { text = Report.attribution_table ~title a ^ "\n"; failures; validated }

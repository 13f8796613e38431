(** Simulated-memory race detector (the dynamic prong of
    etrees.analysis).

    Wrap any code that drives the simulator — typically one or more
    [Sim.run] calls — in {!run} and every engine-level operation is
    audited: raw mutations that bypassed the effect discipline
    ([raw-write]), busy-until-chain violations ([serialized-overlap], a
    scheduler self-check), and reads completing inside an in-flight
    serialized write's service window (benign under the cached-read
    model; counted, and promoted to races under [~strict_reads:true]).
    See docs/ANALYSIS.md. *)

type kind =
  | Raw_write           (** value the engine never installed *)
  | Serialized_overlap  (** scheduler self-check: windows overlapped *)
  | Read_write_overlap  (** strict mode only: read inside write window *)

val kind_name : kind -> string

type race = {
  kind : kind;
  loc_id : int;       (** [Sim.Memory.loc] allocation index *)
  pid : int;          (** processor whose operation detected it *)
  time : int;         (** simulated completion time of that operation *)
  writer_pid : int;   (** location's last engine writer (-1 = none) *)
  writer_time : int;
  writer_seq : int;
  detail : string;
}

type report = {
  races : race list;        (** in detection order *)
  overlapping_reads : int;  (** benign cached-read/write overlaps seen *)
  reads_checked : int;
  commits_checked : int;
  issues_checked : int;
}

val run : ?strict_reads:bool -> ?max_races:int -> (unit -> 'a) -> 'a * report
(** [run f] evaluates [f] with the detector installed and returns its
    result plus the audit report.  Raw-write detection is per-location
    deduplicated; at most [max_races] (default 1000) races are kept.
    Nested uses restore the previous tracer. *)

val format_report : report -> string

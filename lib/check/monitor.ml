(* Property monitors for the model checker (etrees.check).

   A monitor inspects the final (quiescent) state of a controlled
   execution — plus whatever the scenario's own ledger recorded at
   operation exit points — and renders a verdict.  Monitors are pure
   host-level code: they read statistics records and ledgers, never
   simulated memory (structure residues are probed by the scenario
   under a single-processor [Sim.run] and passed in as plain ints). *)

type verdict = { property : string; ok : bool; detail : string }
type violation = { property : string; detail : string }

let properties =
  [ "step-property"; "conservation"; "paired-balance"; "quiescent-consistency";
    "deadlock"; "no-crash" ]

let violations_of verdicts =
  List.filter_map
    (fun v ->
      if v.ok then None else Some { property = v.property; detail = v.detail })
    verdicts

let fail property detail = { property; ok = false; detail }

(* --- Step property (Lemmas 3.1 / 3.2) --------------------------------

   Evaluated per balancer from the live per-wire exit counters.  In a
   quiescent state an elimination balancer (`Pool) must satisfy the
   step property independently for tokens and anti-tokens:
   out0 - out1 in {0,1}.  A gap balancer (`Gap, one shared toggle;
   stacks and IncDecCounter) must satisfy it on the surplus:
   (token_out0 - anti_out0) - (token_out1 - anti_out1) in {0,1}. *)

let step_property ~mode levels =
  let bad = ref [] in
  List.iteri
    (fun depth group ->
      List.iteri
        (fun j (s : Core.Elim_stats.t) ->
          let t0 = s.token_out0 and t1 = s.token_out1 in
          let a0 = s.anti_out0 and a1 = s.anti_out1 in
          let note msg =
            bad :=
              Printf.sprintf "balancer %d at depth %d: %s (t0=%d t1=%d a0=%d a1=%d)"
                j depth msg t0 t1 a0 a1
              :: !bad
          in
          match mode with
          | `Pool ->
              let dt = t0 - t1 and da = a0 - a1 in
              if dt < 0 || dt > 1 then note "token step property violated";
              if da < 0 || da > 1 then note "anti-token step property violated"
          | `Gap ->
              let d = (t0 - a0) - (t1 - a1) in
              if d < 0 || d > 1 then note "gap step property violated")
        group)
    levels;
  let bad = List.rev !bad in
  {
    property = "step-property";
    ok = bad = [];
    detail =
      (if bad = [] then "every balancer within step bounds"
       else String.concat "; " bad);
  }

(* --- Conservation ----------------------------------------------------

   Thin wrapper over [Analysis.Conservation]: the scenario ledger
   (which values were enqueued / dequeued) plus the quiescently probed
   residue must balance exactly — complete runs have no in-flight
   processors. *)

let conservation ~enqueued ~dequeued ~residue =
  let duplicates, phantoms =
    Analysis.Conservation.check_values
      ~enq_started:(fun v -> List.mem v enqueued)
      dequeued
  in
  let n = List.length enqueued in
  let report =
    Analysis.Conservation.audit
      {
        Analysis.Conservation.enq_started = n;
        enq_completed = n;
        dequeued = List.length dequeued;
        duplicates;
        phantoms;
        residue = Some residue;
        in_flight = 0;
      }
  in
  {
    property = "conservation";
    ok = report.Analysis.Conservation.ok;
    detail = report.Analysis.Conservation.detail;
  }

(* --- Quiescent consistency (IncDecCounter) ---------------------------

   A completed run's multiset of outcomes must be realizable by SOME
   sequential execution of a counter starting at 0: an increment
   returning [Slot v] is valid exactly when the counter reads [v]
   (then becomes [v+1]); a decrement returning [Slot v] when it reads
   [v+1] (then becomes [v]).  [Paired] outcomes are an increment
   linearized immediately before its cancelling decrement, so they
   drop out — provided they arrive in equal numbers. *)

type counter_op = { is_inc : bool; result : int option (* None = Paired *) }

let format_counter_ops ops =
  String.concat " "
    (List.map
       (fun o ->
         Printf.sprintf "%s->%s"
           (if o.is_inc then "inc" else "dec")
           (match o.result with Some v -> string_of_int v | None -> "paired"))
       ops)

let realizable incs decs =
  let module M = Map.Make (Int) in
  let add m v =
    M.update v (function None -> Some 1 | Some n -> Some (n + 1)) m
  in
  let remove m v =
    M.update v (function Some 1 -> None | Some n -> Some (n - 1) | None -> None) m
  in
  let inc0 = List.fold_left add M.empty incs in
  let dec0 = List.fold_left add M.empty decs in
  let memo = Hashtbl.create 64 in
  let key mi md =
    let b = Buffer.create 32 in
    M.iter (fun v n -> Buffer.add_string b (Printf.sprintf "i%d:%d;" v n)) mi;
    M.iter (fun v n -> Buffer.add_string b (Printf.sprintf "d%d:%d;" v n)) md;
    Buffer.contents b
  in
  let rec go c mi md =
    if M.is_empty mi && M.is_empty md then true
    else
      let k = key mi md in
      match Hashtbl.find_opt memo k with
      | Some r -> r
      | None ->
          let r =
            (M.mem c mi && go (c + 1) (remove mi c) md)
            || M.mem (c - 1) md
               && go (c - 1) mi (remove md (c - 1))
          in
          Hashtbl.add memo k r;
          r
  in
  go 0 inc0 dec0

let paired_balance ops =
  let paired p =
    List.length (List.filter (fun o -> o.is_inc = p && o.result = None) ops)
  in
  let pi = paired true and pd = paired false in
  if pi = pd then
    {
      property = "paired-balance";
      ok = true;
      detail = Printf.sprintf "%d eliminated inc/dec pairs" pi;
    }
  else
    fail "paired-balance"
      (Printf.sprintf "unmatched eliminations: %d paired incs, %d paired decs [%s]"
         pi pd (format_counter_ops ops))

let quiescent_consistency ops =
  let paired_incs =
    List.length (List.filter (fun o -> o.is_inc && o.result = None) ops)
  in
  let paired_decs =
    List.length (List.filter (fun o -> (not o.is_inc) && o.result = None) ops)
  in
  let slots p = List.filter_map (fun o -> if o.is_inc = p then o.result else None) in
  let incs = slots true ops and decs = slots false ops in
  if paired_incs <> paired_decs then
    fail "quiescent-consistency"
      (Printf.sprintf "unmatched eliminations: %d paired incs, %d paired decs [%s]"
         paired_incs paired_decs (format_counter_ops ops))
  else if realizable incs decs then
    {
      property = "quiescent-consistency";
      ok = true;
      detail =
        Printf.sprintf "history realizable sequentially (%d ops, %d paired)"
          (List.length ops) (2 * paired_incs);
    }
  else
    fail "quiescent-consistency"
      (Printf.sprintf "no sequential counter order matches [%s]"
         (format_counter_ops ops))

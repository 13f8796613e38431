(* The effect-discipline lint (etrees.analysis, static prong).

   Every piece of shared state in code meant to run under the simulator
   must flow through the engine's [E.cell] API so that {!Sim.Memory}'s
   per-location busy-until queueing sees it.  A stray [ref], [<-] or
   direct [Atomic] use produces zero-simulated-cost, unserialized
   "shared memory" that silently corrupts every benchmark — the
   contention shapes of Table 1, the Theorem 2.6 balancing numbers, the
   O(log w) termination bound all stop meaning anything.

   This module parses source files with compiler-libs (no typing: the
   pass runs on parsetrees, so it is fast, needs no build context, and
   never misfires on files that do not compile yet) and walks them with
   {!Ast_iterator}, flagging syntactic escapes from the discipline:

   - [ref]/[:=]/[!]/[incr]/[decr]        (rule [ref])
   - [e.f <- v] record-field mutation    (rule [setfield])
   - [Array.set]/[a.(i) <- v]/[Bytes.set]/[fill]/[blit]  (rule [array-set])
   - any mention of the [Atomic] module  (rule [atomic])
   - [mutable] record fields             (rule [mutable-field])

   A parsetree pass cannot know whether a given mutation is actually
   shared between simulated processors (pid-private scratch arrays and
   construction-time initialization are fine), so deliberate exceptions
   are recorded in a committed allowlist, one [path rule] pair per line,
   each with a justification comment.  The policy is in
   docs/ANALYSIS.md: prefer rewriting to allowlisting; an allowlist
   entry must say why the mutation cannot race under the simulator. *)

type rule =
  | Ref_cell      (* ref / := / ! / incr / decr *)
  | Setfield      (* e.f <- v *)
  | Array_mut     (* Array.set & friends, a.(i) <- v *)
  | Atomic_use    (* direct Atomic.* *)
  | Mutable_field (* mutable field declaration *)
  | Sim_bypass    (* direct Sim/Memory/Scheduler mention *)
  | Nondet        (* host clock / OS randomness / unseeded hashing *)

let rule_name = function
  | Ref_cell -> "ref"
  | Setfield -> "setfield"
  | Array_mut -> "array-set"
  | Atomic_use -> "atomic"
  | Mutable_field -> "mutable-field"
  | Sim_bypass -> "sim-bypass"
  | Nondet -> "nondet"

let rule_of_name = function
  | "ref" -> Some Ref_cell
  | "setfield" -> Some Setfield
  | "array-set" -> Some Array_mut
  | "atomic" -> Some Atomic_use
  | "mutable-field" -> Some Mutable_field
  | "sim-bypass" -> Some Sim_bypass
  | "nondet" -> Some Nondet
  | _ -> None

type violation = {
  file : string;
  line : int;
  col : int;
  rule : rule;
  message : string;
}

exception Parse_error of string (* file: compiler-libs error text *)

(* ------------------------------------------------------------------ *)
(* The parsetree pass                                                  *)
(* ------------------------------------------------------------------ *)

(* Identifiers whose very mention breaks the discipline.  Matching the
   bare mention (not just the applied position) also catches first-class
   uses such as [List.iter incr cells]. *)
let ref_idents = [ "ref"; ":="; "!"; "incr"; "decr" ]

let array_mutators =
  [ ("Array", "set"); ("Array", "unsafe_set"); ("Array", "fill");
    ("Array", "blit"); ("Bytes", "set"); ("Bytes", "unsafe_set");
    ("Bytes", "fill"); ("Bytes", "blit") ]

(* Modules an engine-parametric structure must never name: anything it
   needs from the simulator has to arrive through its [Engine.S]
   functor parameter, or the same code silently stops being runnable
   on [Engine.Native] — and the model checker's controlled scheduler
   never sees its accesses. *)
let sim_internal_modules =
  [ "Sim"; "Memory"; "Scheduler"; "Engine_impl"; "Event_heap"; "Event_wheel" ]

(* Host nondeterminism (rule [nondet]): wall-clock, OS randomness and
   unseeded hashing make a run a function of the host instead of the
   seed, which silently breaks replay, the golden perf metrics, and the
   model checker's assumption that re-execution is exact.  Randomness
   must come from the engine's seeded Splitmix streams and time from
   [E.now]; the rare host probes (the native engine's clock, the
   report's CPU-cost meta block) live in the committed
   lib/analysis/nondet_allowlist.txt with justifications. *)
let nondet_time_fns = [ ("Sys", "time"); ("Unix", "time"); ("Unix", "gettimeofday") ]

let nondet_hash_fns = [ "hash"; "seeded_hash"; "hash_param"; "randomize" ]

let rec longident_head = function
  | Longident.Lident s -> s
  | Longident.Ldot (l, _) -> longident_head l
  | Longident.Lapply (l, _) -> longident_head l

let classify_ident (lid : Longident.t) : (rule * string) option =
  match lid with
  | Lident s when List.mem s ref_idents ->
      Some
        ( Ref_cell,
          Printf.sprintf
            "`%s` builds or mutates an unserialized ref cell; shared state \
             must go through E.cell"
            s )
  | Ldot (Lident "Stdlib", s) when List.mem s ref_idents ->
      Some
        ( Ref_cell,
          Printf.sprintf
            "`Stdlib.%s` builds or mutates an unserialized ref cell; shared \
             state must go through E.cell"
            s )
  | Ldot (Lident m, f) when List.mem (m, f) array_mutators ->
      Some
        ( Array_mut,
          Printf.sprintf
            "`%s.%s` mutates an array outside the engine; shared arrays must \
             hold E.cell elements"
            m f )
  | Ldot (Lident m, f) when List.mem (m, f) nondet_time_fns ->
      Some
        ( Nondet,
          Printf.sprintf
            "`%s.%s` reads the host clock; simulated time must come from the \
             engine (E.now), so runs stay deterministic functions of the seed"
            m f )
  | Ldot (Lident "Hashtbl", f) when List.mem f nondet_hash_fns ->
      Some
        ( Nondet,
          Printf.sprintf
            "`Hashtbl.%s` hashes with host-varying state; derive keys from \
             the engine's seeded Splitmix streams instead"
            f )
  | lid when longident_head lid = "Random" ->
      Some
        ( Nondet,
          "`Random` draws OS-seeded randomness; use the engine's seeded \
           Splitmix streams so runs replay exactly" )
  | lid when longident_head lid = "Atomic" ->
      Some
        ( Atomic_use,
          "direct `Atomic` use bypasses the simulated memory model; use the \
           engine's cell operations" )
  | lid when List.mem (longident_head lid) sim_internal_modules ->
      Some
        ( Sim_bypass,
          Printf.sprintf
            "`%s` reaches into the simulator instead of going through the \
             Engine.S functor parameter; structures must stay \
             engine-parametric"
            (longident_head lid) )
  | _ -> None

let scan_structure ~file (str : Parsetree.structure) : violation list =
  let acc = ref [] in
  let add (loc : Location.t) rule message =
    let p = loc.loc_start in
    acc :=
      {
        file;
        line = p.pos_lnum;
        col = p.pos_cnum - p.pos_bol;
        rule;
        message;
      }
      :: !acc
  in
  let open Ast_iterator in
  let expr self (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } -> (
        match classify_ident txt with
        | Some (rule, msg) -> add loc rule msg
        | None -> ())
    | Pexp_setfield (_, f, _) ->
        add e.pexp_loc Setfield
          (Printf.sprintf
             "record-field assignment `%s <-` mutates outside the engine; \
              shared fields must be E.cell"
             (String.concat "." (Longident.flatten f.txt)))
    | _ -> ());
    default_iterator.expr self e
  in
  let label_declaration self (ld : Parsetree.label_declaration) =
    (match ld.pld_mutable with
    | Mutable ->
        add ld.pld_loc Mutable_field
          (Printf.sprintf
             "mutable field `%s` declares engine-invisible shared state; use \
              an E.cell (or allowlist with a justification)"
             ld.pld_name.txt)
    | Immutable -> ());
    default_iterator.label_declaration self ld
  in
  let iterator = { default_iterator with expr; label_declaration } in
  iterator.structure iterator str;
  (* Source order: the iterator's traversal order is close to it, but
     sort to make the report (and the golden test) deterministic. *)
  List.sort
    (fun a b -> compare (a.line, a.col, rule_name a.rule) (b.line, b.col, rule_name b.rule))
    !acc

let scan_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let lexbuf = Lexing.from_channel ic in
  Lexing.set_filename lexbuf path;
  match Parse.implementation lexbuf with
  | str -> scan_structure ~file:path str
  | exception exn ->
      let msg =
        match Location.error_of_exn exn with
        | Some (`Ok e) -> Format.asprintf "%a" Location.print_report e
        | _ -> Printexc.to_string exn
      in
      raise (Parse_error (Printf.sprintf "%s: %s" path msg))

(* ------------------------------------------------------------------ *)
(* Allowlist                                                           *)
(* ------------------------------------------------------------------ *)

type allow = { path : string; allowed : rule }

(* One entry per line: [<path> <rule>], '#' starts a comment.  A
   violation is suppressed when its file path ends with the entry's
   path (so the allowlist works from any working directory) and its
   rule matches. *)
let load_allowlist path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let entries = ref [] in
  (try
     let lineno = ref 0 in
     while true do
       let line = input_line ic in
       incr lineno;
       let line =
         match String.index_opt line '#' with
         | Some i -> String.sub line 0 i
         | None -> line
       in
       match String.split_on_char ' ' (String.trim line)
             |> List.filter (fun s -> s <> "")
       with
       | [] -> ()
       | [ p; r ] -> (
           match rule_of_name r with
           | Some allowed -> entries := { path = p; allowed } :: !entries
           | None ->
               raise
                 (Parse_error
                    (Printf.sprintf "%s:%d: unknown lint rule %S" path !lineno
                       r)))
       | _ ->
           raise
             (Parse_error
                (Printf.sprintf
                   "%s:%d: expected `<path> <rule>` (got %S)" path !lineno
                   line))
     done
   with End_of_file -> ());
  List.rev !entries

let suffix_matches ~path ~file =
  let lp = String.length path and lf = String.length file in
  lf >= lp
  && String.sub file (lf - lp) lp = path
  && (lf = lp || file.[lf - lp - 1] = '/')

let is_allowed allows (v : violation) =
  List.exists
    (fun a -> a.allowed = v.rule && suffix_matches ~path:a.path ~file:v.file)
    allows

(* Partition violations into (kept, suppressed); also return allowlist
   entries that suppressed nothing, so stale entries are visible. *)
let apply_allowlist allows violations =
  let kept, suppressed =
    List.partition (fun v -> not (is_allowed allows v)) violations
  in
  let unused =
    List.filter
      (fun a ->
        not
          (List.exists
             (fun v ->
               a.allowed = v.rule && suffix_matches ~path:a.path ~file:v.file)
             suppressed))
      allows
  in
  (kept, suppressed, unused)

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let format_violation v =
  Printf.sprintf "%s:%d:%d: [%s] %s" v.file v.line v.col (rule_name v.rule)
    v.message

let report violations =
  String.concat "" (List.map (fun v -> format_violation v ^ "\n") violations)

(* Machine-readable report (CI artifact): hand-rolled JSON, since the
   analysis library deliberately has no serialization dependency. *)
let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let violation_json v =
  Printf.sprintf
    {|{"file":"%s","line":%d,"col":%d,"rule":"%s","message":"%s"}|}
    (json_escape v.file) v.line v.col (rule_name v.rule)
    (json_escape v.message)

let allow_json (a : allow) =
  Printf.sprintf {|{"path":"%s","rule":"%s"}|} (json_escape a.path)
    (rule_name a.allowed)

let report_json ~files ~kept ~suppressed ~unused =
  let array xs = "[" ^ String.concat "," xs ^ "]" in
  String.concat ""
    [
      "{\"files\":";
      string_of_int files;
      ",\"violations\":";
      array (List.map violation_json kept);
      ",\"allowlisted\":";
      string_of_int (List.length suppressed);
      ",\"stale_allowlist\":";
      array (List.map allow_json unused);
      "}\n";
    ]

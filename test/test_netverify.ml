(* Tests for the static balancing-network certifier
   (docs/NETVERIFY.md): every shipped shape certifies clean, the IR
   plans agree with the constructions' documented numbering, the
   seeded skip-toggle-on-miss defect is rejected with the canonical
   3-token counterexample (golden fixture + dynamic replay through the
   model checker), random IR mutations — miswired shapes — are
   rejected with the right error class, and [Elim_tree.create] derives
   each distinct tree's plan once. *)

module Ir = Netverify.Ir
module Passes = Netverify.Passes
module Certify = Netverify.Certify
module NB = Check.Netverify_bridge

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let etree_ir ?bug ?(mode = `Pool) ?(leaf_order = `Natural) width =
  Core.Elim_tree.ir ~mode ~leaf_order ?bug (Core.Tree_config.etree width)

(* ------------------------------------------------------------------ *)
(* Shipped shapes                                                      *)
(* ------------------------------------------------------------------ *)

let test_shipped_shapes_certify () =
  List.iter
    (fun (s : NB.shape) ->
      let report = Certify.verify (s.build ()) in
      if not (Certify.ok report) then
        Alcotest.failf "shape %s rejected:\n%s" s.shape_name
          (Certify.format_report report))
    NB.shapes;
  check_int "manifest covers every family" 25 (List.length NB.shapes)

let test_depth_bounds () =
  let depth net =
    Array.fold_left (fun m (n : Ir.node) -> max m (n.layer + 1)) 0
      net.Ir.nodes
  in
  check_int "etree-64 depth log w" 6 (depth (etree_ir 64));
  check_int "bitonic-32 depth log w (log w + 1)/2" 15
    (depth (Ir.bitonic ~width:32));
  check_int "periodic-32 depth (log w)^2" 25 (depth (Ir.periodic ~width:32))

let test_leaf_index_bit_reversal () =
  (* The interleaved (counting-tree) numbering is the bit-reversal of
     the natural leaf position, reconstructed from the wires alone. *)
  let _, interleaved = Ir.tree_plan (etree_ir ~leaf_order:`Interleaved 8) in
  Alcotest.(check (array int))
    "w=8 interleaved leaf_index = bitrev"
    [| 0; 4; 2; 6; 1; 5; 3; 7 |]
    interleaved;
  let _, natural = Ir.tree_plan (etree_ir ~leaf_order:`Natural 8) in
  Alcotest.(check (array int))
    "w=8 natural leaf_index = identity"
    [| 0; 1; 2; 3; 4; 5; 6; 7 |]
    natural

(* ------------------------------------------------------------------ *)
(* The seeded defect: static detection, golden report, dynamic replay  *)
(* ------------------------------------------------------------------ *)

let seeded_report () = Certify.verify (NB.seeded_defect ())

let test_seeded_defect_detected () =
  let report = seeded_report () in
  check_bool "seeded tree rejected" false (Certify.ok report);
  let cex =
    List.find_map
      (fun (f : Certify.failure) ->
        if f.pass = "step-certify" then f.cex else None)
      report.failures
  in
  match cex with
  | None -> Alcotest.fail "no step-certify counterexample"
  | Some cex ->
      check_string "canonical minimal counterexample" "Token Token Token"
        (Certify.format_ops cex.ops)

let test_seeded_defect_golden () =
  (* The whole rejection report (plus the replay command) is stable —
     certification is deterministic. *)
  let report = seeded_report () in
  let cex =
    List.find_map
      (fun (f : Certify.failure) ->
        if f.pass = "step-certify" then f.cex else None)
      report.failures
    |> Option.get
  in
  let got =
    Certify.format_report report
    ^ "  replay: "
    ^ NB.replay_command ~width:NB.seeded_defect_width cex
    ^ "\n"
  in
  let ic = open_in "fixtures/netverify_bug.expected" in
  let n = in_channel_length ic in
  let expected = really_input_string ic n in
  close_in ic;
  check_string "golden rejection report" expected got

let test_seeded_defect_replays () =
  let report = seeded_report () in
  let cex =
    List.find_map
      (fun (f : Certify.failure) ->
        if f.pass = "step-certify" then f.cex else None)
      report.failures
    |> Option.get
  in
  match NB.confirm_replay ~width:NB.seeded_defect_width cex with
  | None -> Alcotest.fail "replay did not reproduce the static counterexample"
  | Some v ->
      check_string "replay violates the step property" "step-property"
        v.Check.Monitor.property

(* ------------------------------------------------------------------ *)
(* Mutation tests: miswired IRs must be rejected, with the right error *)
(* ------------------------------------------------------------------ *)

let failure_codes report =
  List.map (fun (f : Certify.failure) -> f.code) report.Certify.failures

let has_code code report = List.mem code (failure_codes report)

let tree_widths = QCheck.Gen.oneofl [ 2; 4; 8; 16 ]

(* Drop one balancer: its input wire loses its reader and its output
   wires their writer. *)
let prop_drop_node =
  QCheck.Test.make ~name:"mutation: dropped balancer -> wire census errors"
    ~count:30
    QCheck.(make Gen.(pair tree_widths (int_bound 1000)))
    (fun (width, salt) ->
      let net = etree_ir width in
      let victim = salt mod Array.length net.Ir.nodes in
      let mutated =
        {
          net with
          Ir.nodes =
            Array.of_list
              (List.filteri
                 (fun i _ -> i <> victim)
                 (Array.to_list net.Ir.nodes));
        }
      in
      let report = Certify.verify mutated in
      (not (Certify.ok report))
      && (has_code "wire-unread" report || has_code "wire-unwritten" report))

(* Swap a balancer's two output wires: still perfectly well-formed,
   but the tree no longer counts in the documented order. *)
let prop_swap_outs_tree =
  QCheck.Test.make
    ~name:"mutation: swapped balancer outputs -> tree numbering error"
    ~count:30
    QCheck.(make Gen.(pair tree_widths (int_bound 1000)))
    (fun (width, salt) ->
      let net = etree_ir ~leaf_order:`Interleaved ~mode:`Stack width in
      let victim = salt mod Array.length net.Ir.nodes in
      let mutated =
        {
          net with
          Ir.nodes =
            Array.map
              (fun (n : Ir.node) ->
                if n.id = victim then
                  { n with Ir.outs = [| n.outs.(1); n.outs.(0) |] }
                else n)
              net.Ir.nodes;
        }
      in
      let report = Certify.verify mutated in
      (not (Certify.ok report)) && has_code "numbering" report)

(* The same rewiring on a counting network: caught as a departure from
   the regenerated canonical structure (and by numbering). *)
let prop_swap_outs_counting =
  QCheck.Test.make
    ~name:"mutation: swapped counting-balancer outputs -> structure mismatch"
    ~count:30
    QCheck.(make Gen.(pair (oneofl [ 4; 8; 16 ]) (int_bound 1000)))
    (fun (width, salt) ->
      let net = Ir.bitonic ~width in
      let victim = salt mod Array.length net.Ir.nodes in
      let mutated =
        {
          net with
          Ir.nodes =
            Array.map
              (fun (n : Ir.node) ->
                if n.id = victim then
                  { n with Ir.outs = [| n.outs.(1); n.outs.(0) |] }
                else n)
              net.Ir.nodes;
        }
      in
      let report = Certify.verify mutated in
      (not (Certify.ok report)) && has_code "structure-mismatch" report)

(* Duplicate one leaf: some output wire gains a second reader and
   another loses its only one. *)
let prop_duplicate_leaf =
  QCheck.Test.make ~name:"mutation: duplicated leaf -> multi-reader error"
    ~count:30
    QCheck.(make Gen.(pair tree_widths (int_bound 1000)))
    (fun (width, salt) ->
      let net = etree_ir width in
      let i = salt mod width and j = (salt / width) mod width in
      QCheck.assume (i <> j);
      let outputs = Array.copy net.Ir.outputs in
      let () = outputs.(j) <- outputs.(i) in
      let report = Certify.verify { net with Ir.outputs } in
      (not (Certify.ok report))
      && has_code "wire-multi-reader" report
      && has_code "wire-unread" report)

(* Permute two logical outputs: well-formed, wrong counting order. *)
let prop_permute_outputs =
  QCheck.Test.make
    ~name:"mutation: permuted interleaved outputs -> numbering error"
    ~count:30
    QCheck.(make Gen.(pair (oneofl [ 4; 8; 16 ]) (int_bound 1000)))
    (fun (width, salt) ->
      let net = etree_ir ~leaf_order:`Interleaved width in
      let i = salt mod width and j = (salt / width) mod width in
      QCheck.assume (i <> j);
      let outputs = Array.copy net.Ir.outputs in
      let () = outputs.(i) <- net.Ir.outputs.(j) in
      let () = outputs.(j) <- net.Ir.outputs.(i) in
      let report = Certify.verify { net with Ir.outputs } in
      (not (Certify.ok report)) && has_code "numbering" report)

(* Seed the balancer defect at any width: always a step violation with
   a concrete counterexample. *)
let prop_seeded_bug_any_width =
  QCheck.Test.make
    ~name:"mutation: seeded skip-toggle-on-miss -> step violation + cex"
    ~count:20
    QCheck.(make tree_widths)
    (fun width ->
      let report = Certify.verify (etree_ir ~bug:`Skip_toggle_on_miss width) in
      (not (Certify.ok report))
      && has_code "step-violation" report
      && List.exists
           (fun (f : Certify.failure) ->
             f.pass = "step-certify" && f.cex <> None)
           report.Certify.failures)

(* Construction-time diagnostics: the runtime constructors surface the
   first well-formedness error as a coded Invalid_argument. *)
let test_assert_well_formed_diagnostic () =
  let net = etree_ir 4 in
  let broken =
    { net with Ir.outputs = Array.map (fun _ -> net.Ir.outputs.(0)) net.Ir.outputs }
  in
  match Passes.assert_well_formed ~what:"test" broken with
  | () -> Alcotest.fail "malformed network accepted"
  | exception Invalid_argument msg ->
      check_bool "diagnostic carries the rule code" true
        (String.length msg > 0
        && String.sub msg 0 5 = "test:"
        &&
        let has_code =
          let re = "[wire-multi-reader]" in
          let n = String.length msg and m = String.length re in
          let rec scan i =
            i + m <= n && (String.sub msg i m = re || scan (i + 1))
          in
          scan 0
        in
        has_code)

(* ------------------------------------------------------------------ *)
(* The plan memo behind Elim_tree.create                               *)
(* ------------------------------------------------------------------ *)

module Tree = Core.Elim_tree.Make (Sim.Engine)

(* The memo lookup [Elim_tree.create] makes for [config] (elimination
   on), with [build] run on a miss.  Each test uses spin bases no other
   test builds, so the memo starts without their trees. *)
let cached_plan ?(mode = `Pool) ?(leaf_order = `Natural) config build =
  Ir.cached_tree_plan ~mode ~eliminate:true ~leaf_order
    ~levels:
      (Array.to_list
         (Array.map
            (fun (l : Core.Tree_config.level) -> (l.prism_widths, l.spin))
            config.Core.Tree_config.levels))
    ~width:config.Core.Tree_config.width build

let derive ?(mode = `Pool) ?(leaf_order = `Natural) config =
  Ir.tree_plan (Core.Elim_tree.ir ~mode ~leaf_order config)

let test_memo_shares_plans () =
  let config = Core.Tree_config.etree ~spin_base:48 8 in
  let (_ : unit Tree.t) = Tree.create ~capacity:2 config in
  let (_ : unit Tree.t) = Tree.create ~capacity:2 config in
  let derived = ref 0 in
  let build () =
    incr derived;
    Core.Elim_tree.ir config
  in
  let a = cached_plan config build in
  let b = cached_plan config build in
  check_int "create derived the plan, no later lookup does" 0 !derived;
  check_bool "one shared plan" true (a == b);
  check_bool "the plan of the tree" true (a = derive config)

let test_memo_distinct_plans () =
  let trees =
    [
      (`Pool, `Natural, Core.Tree_config.etree ~spin_base:40 8);
      (`Pool, `Natural, Core.Tree_config.etree ~spin_base:56 8);
      (`Stack, `Interleaved, Core.Tree_config.etree ~spin_base:40 8);
      (`Pool, `Natural, Core.Tree_config.etree ~spin_base:40 16);
    ]
  in
  let plans =
    List.map
      (fun (mode, leaf_order, config) ->
        let (_ : unit Tree.t) =
          Tree.create ~mode ~leaf_order ~capacity:2 config
        in
        let plan =
          cached_plan ~mode ~leaf_order config (fun () ->
              Alcotest.fail "create did not cache the plan")
        in
        check_bool "the plan of its own tree" true
          (plan = derive ~mode ~leaf_order config);
        plan)
      trees
  in
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b -> if i < j then check_bool "distinct plans" false (a = b))
        plans)
    plans

let test_memo_invalid_raises () =
  let bad = { (Core.Tree_config.etree 8) with Core.Tree_config.width = 6 } in
  for _ = 1 to 2 do
    match Tree.create ~capacity:2 bad with
    | (_ : unit Tree.t) -> Alcotest.fail "a width-6 tree was built"
    | exception Invalid_argument _ -> ()
  done;
  let config = Core.Tree_config.etree ~spin_base:24 4 in
  (match cached_plan config (fun () -> invalid_arg "no tree") with
  | _ -> Alcotest.fail "a raising build yielded a plan"
  | exception Invalid_argument _ -> ());
  let derived = ref 0 in
  let (_ : Ir.attrs array * int array) =
    cached_plan config (fun () ->
        incr derived;
        Core.Elim_tree.ir config)
  in
  check_int "a raising build caches nothing" 1 !derived

let () =
  Alcotest.run "netverify"
    [
      ( "shapes",
        [
          Alcotest.test_case "every shipped shape certifies" `Quick
            test_shipped_shapes_certify;
          Alcotest.test_case "depth bounds" `Quick test_depth_bounds;
          Alcotest.test_case "leaf numbering is bit-reversal" `Quick
            test_leaf_index_bit_reversal;
        ] );
      ( "seeded-defect",
        [
          Alcotest.test_case "detected statically with minimal cex" `Quick
            test_seeded_defect_detected;
          Alcotest.test_case "golden rejection report" `Quick
            test_seeded_defect_golden;
          Alcotest.test_case "counterexample replays through the checker"
            `Quick test_seeded_defect_replays;
        ] );
      ( "mutations",
        [
          QCheck_alcotest.to_alcotest prop_drop_node;
          QCheck_alcotest.to_alcotest prop_swap_outs_tree;
          QCheck_alcotest.to_alcotest prop_swap_outs_counting;
          QCheck_alcotest.to_alcotest prop_duplicate_leaf;
          QCheck_alcotest.to_alcotest prop_permute_outputs;
          QCheck_alcotest.to_alcotest prop_seeded_bug_any_width;
          Alcotest.test_case "constructor diagnostics are coded" `Quick
            test_assert_well_formed_diagnostic;
        ] );
      ( "memo",
        [
          Alcotest.test_case "equal trees share one plan" `Quick
            test_memo_shares_plans;
          Alcotest.test_case "each tree gets its own plan" `Quick
            test_memo_distinct_plans;
          Alcotest.test_case "invalid trees raise every call" `Quick
            test_memo_invalid_raises;
        ] );
    ]

(* The manifest of every network shape the repo ships, lowered to the
   netverify wiring IR, plus the bridge that turns a static
   step-property counterexample into a model-checker schedule
   (docs/NETVERIFY.md).

   [shapes] is what `etrees_run netverify` / `dune build @netverify`
   certifies: the elimination-tree pools and stacks at every benched
   width, the diffracting-tree counters (single- and multi-prism), and
   the bitonic/periodic counting networks.  [seeded_defect] is the
   deliberately broken tree the gate must reject — the same
   [`Skip_toggle_on_miss] defect the tree_buggy model-checking
   scenario hunts dynamically through 19k+ DPOR executions; here the
   certifier finds it statically in milliseconds and emits a token
   sequence that [confirm_replay] re-executes through
   {!Explore.replay} for an end-to-end dynamic confirmation. *)

module Ir = Netverify.Ir
module Certify = Netverify.Certify

type shape = { shape_name : string; build : unit -> Ir.network }

let tree_widths = [ 2; 4; 8; 16; 32; 64 ]
let counting_widths = [ 2; 4; 8; 16; 32 ]

let shapes : shape list =
  List.map
    (fun w ->
      {
        shape_name = Printf.sprintf "etree-pool-%d" w;
        build =
          (fun () ->
            Core.Elim_tree.ir ~mode:`Pool ~leaf_order:`Natural
              (Core.Tree_config.etree w));
      })
    tree_widths
  @ List.map
      (fun w ->
        {
          shape_name = Printf.sprintf "etree-stack-%d" w;
          build =
            (fun () ->
              Core.Elim_tree.ir ~mode:`Stack ~leaf_order:`Interleaved
                (Core.Tree_config.etree w));
        })
      tree_widths
  @ [
      {
        shape_name = "dtree-32";
        build = (fun () -> Baselines.Diff_tree.ir ~prisms:`Single_prism ~width:32 ());
      };
      {
        shape_name = "dtree-64";
        build = (fun () -> Baselines.Diff_tree.ir ~prisms:`Single_prism ~width:64 ());
      };
      {
        shape_name = "dtree-32-multiprism";
        build = (fun () -> Baselines.Diff_tree.ir ~prisms:`Multi_prism ~width:32 ());
      };
    ]
  @ List.map
      (fun w ->
        {
          shape_name = Printf.sprintf "bitonic-%d" w;
          build = (fun () -> Baselines.Bitonic_network.ir ~kind:`Bitonic ~width:w ());
        })
      counting_widths
  @ List.map
      (fun w ->
        {
          shape_name = Printf.sprintf "periodic-%d" w;
          build = (fun () -> Baselines.Bitonic_network.ir ~kind:`Periodic ~width:w ());
        })
      counting_widths

let find name = List.find_opt (fun s -> s.shape_name = name) shapes
let names = List.map (fun s -> s.shape_name) shapes

(* The seeded-defect shape: the width-2 pool tree with the
   skip-toggle-on-miss bug in every balancer — exactly what
   [Scenario.tree_buggy] builds. *)
let seeded_defect_width = 2

let seeded_defect () =
  Core.Elim_tree.ir ~mode:`Pool ~leaf_order:`Natural ~bug:`Skip_toggle_on_miss
    ~name:(Printf.sprintf "etree-pool-%d-seeded" seeded_defect_width)
    (Core.Tree_config.etree seeded_defect_width)

(* ------------------------------------------------------------------ *)
(* Counterexample -> model-checker schedule                            *)
(* ------------------------------------------------------------------ *)

(* One processor per operation, run to completion in counterexample
   order.  [Explore.replay] substitutes the smallest enabled pid when
   the forced one is not enabled, so granting each pid a generous
   uninterrupted slice executes the operations sequentially in pid
   order — precisely the sequential semantics the certifier reasoned
   over. *)
let slice_per_op = 400

let schedule_of_ops nops =
  Array.concat (List.init nops (fun pid -> Array.make slice_per_op pid))

(* That sequential execution, through the tree_buggy scenario (its
   processors all send tokens). *)
let sequential_replay ~width nops =
  let program = Scenario.tree_buggy.make ~procs:nops ~width ~ops:1 in
  Explore.replay ~seed:1 program (schedule_of_ops nops)

(* The command names the schedule the sequential replay executed, which
   `etrees_run check --schedule` replays step for step. *)
let replay_command ~width (cex : Certify.counterexample) =
  let nops = List.length cex.ops in
  Printf.sprintf
    "etrees_run check --method tree_buggy --procs %d --width %d --ops 1 \
     --seed 1 --schedule %s --expect-violation step-property"
    nops width
    (Explore.format_schedule (sequential_replay ~width nops).schedule)

(* Token-only counterexamples replay through the tree_buggy scenario.
   Returns the violation the replay produced, if any. *)
let confirm_replay ~width (cex : Certify.counterexample) =
  if List.exists (fun (k, _) -> k <> Certify.Op_token) cex.ops then None
  else
    List.find_opt
      (fun (v : Monitor.violation) -> v.property = "step-property")
      (sequential_replay ~width (List.length cex.ops)).violations

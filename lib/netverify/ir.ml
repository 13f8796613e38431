(* The wiring IR: a balancing network as a layered DAG of balancer
   nodes connected by single-writer/single-reader wires.

   Every network shape the repo ships is *built* here — the runtime
   structures (Elim_tree, Bitonic_network, Diff_tree) instantiate
   their balancers from an [network] value instead of ad-hoc index
   arithmetic, so this IR is the single source of truth for wiring and
   the static passes in {!Passes}/{!Certify} verify exactly what runs.

   Conventions:
   - Wires are dense ids [0 .. nwires-1].  Network inputs come first
     ([inputs.(i) = i]); node output wires are allocated fresh.
   - A node's [outs.(0)] is its wire-0 ("top") output and [outs.(1)]
     its wire-1 ("bottom") output, matching the balancer protocol's
     [Location.Exit wire].
   - [outputs.(l)] is the wire of *logical* output [l]; for trees the
     logical numbering encodes [`Natural] or [`Interleaved] order, for
     counting networks it is the merger output order ([Bitonic]) or
     the identity ([Periodic]).
   - [layer] is the node's depth: the length of any input-to-node wire
     path.  All shipped networks are uniformly layered (every in-wire
     of a layer-d node leaves a layer-(d-1) node or a network input). *)

type mode = [ `Pool | `Stack ]
type leaf_order = [ `Natural | `Interleaved ]
type defect = [ `Skip_toggle_on_miss ]
type flavor = [ `Bitonic | `Periodic ]

type attrs =
  | Toggle
      (* bare-CAS toggle balancer (counting networks): 2-in/2-out, no
         prisms, tokens only *)
  | Elim of {
      mode : mode;
      eliminate : bool;
      prism_widths : int list; (* outermost (largest) prism first *)
      spin : int;
      bug : defect option; (* test-only seeded defect, never shipped *)
    }
      (* elimination/diffracting balancer (trees): 1-in/2-out *)

type node = {
  id : int; (* unique; tree nodes use heap order *)
  layer : int;
  attrs : attrs;
  ins : int array;
  outs : int array;
}

type net_kind =
  | Tree of { leaf_order : leaf_order }
  | Counting of { flavor : flavor }

type network = {
  name : string;
  kind : net_kind;
  width : int; (* logical outputs; trees have 1 input, counting w *)
  inputs : int array;
  outputs : int array; (* outputs.(logical index) = wire id *)
  nodes : node array;
  nwires : int;
}

let is_power_of_two w = w > 0 && w land (w - 1) = 0

(* floor(log2 w) for w >= 1. *)
let log2 w =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n / 2) in
  go 0 w

(* Reverse the low [bits] bits of [i] — the [`Natural]/[`Interleaved]
   change of numbering (wire choices read root-first vs root-last). *)
let bit_reverse ~bits i =
  let rec go acc k i =
    if k = 0 then acc else go ((acc lsl 1) lor (i land 1)) (k - 1) (i lsr 1)
  in
  go 0 bits i

(* ------------------------------------------------------------------ *)
(* Builders                                                            *)
(* ------------------------------------------------------------------ *)

(* Elimination/diffracting tree of [width] outputs (paper §2.1, §3.1).
   Balancer i sits at heap position i and consumes wire i; wire 0 is
   the network input and balancer i's outputs are wires 2i+1/2i+2, so
   the wire id of a heap slot is the slot itself and the leaf at
   natural position p is wire (width-1)+p.  [levels.(d)] supplies the
   (prism_widths, spin) pair for every depth-d balancer. *)
let elim_tree ~name ~mode ~eliminate ~leaf_order ?bug ~levels ~width () =
  if not (is_power_of_two width) then
    invalid_arg
      (Printf.sprintf "%s: width %d is not a power of two" name width);
  let depth = log2 width in
  let levels = Array.of_list levels in
  if Array.length levels <> depth then
    invalid_arg
      (Printf.sprintf "%s: %d level entries for depth-%d tree" name
         (Array.length levels) depth);
  let kind = Tree { leaf_order } in
  if width = 1 then
    {
      name;
      kind;
      width;
      inputs = [| 0 |];
      outputs = [| 0 |];
      nodes = [||];
      nwires = 1;
    }
  else begin
    let depth_of_index i =
      let rec go d n = if n <= 1 then d else go (d + 1) (n / 2) in
      go 0 (i + 1)
    in
    let nodes =
      Array.init (width - 1) (fun i ->
          let d = depth_of_index i in
          let prism_widths, spin = levels.(d) in
          {
            id = i;
            layer = d;
            attrs = Elim { mode; eliminate; prism_widths; spin; bug };
            ins = [| i |];
            outs = [| (2 * i) + 1; (2 * i) + 2 |];
          })
    in
    let outputs =
      Array.init width (fun l ->
          let natural =
            match leaf_order with
            | `Natural -> l
            | `Interleaved -> bit_reverse ~bits:depth l
          in
          width - 1 + natural)
    in
    { name; kind; width; inputs = [| 0 |]; outputs; nodes; nwires = (2 * width) - 1 }
  end

(* --- Counting networks (AHS [4]) ------------------------------------

   Generated directly in the wire domain: a small builder state hands
   out fresh wire ids and records each balancer with its ASAP layer
   (1 + the depth of its deepest input; both constructions are
   uniformly layered, so this is the column index). *)

type builder = {
  mutable next_wire : int;
  mutable next_node : int;
  mutable acc : node list; (* reverse creation order *)
  wire_depth : (int, int) Hashtbl.t;
}

let new_builder ~width =
  let b =
    { next_wire = width; next_node = 0; acc = []; wire_depth = Hashtbl.create 64 }
  in
  for i = 0 to width - 1 do
    Hashtbl.replace b.wire_depth i 0
  done;
  b

let fresh_wire b ~depth =
  let w = b.next_wire in
  b.next_wire <- w + 1;
  Hashtbl.replace b.wire_depth w depth;
  w

(* One toggle balancer taking wires [a] (top) and [bo] (bottom);
   returns its (top, bottom) output wires. *)
let mk_balancer b a bo =
  let layer =
    max (Hashtbl.find b.wire_depth a) (Hashtbl.find b.wire_depth bo)
  in
  let o0 = fresh_wire b ~depth:(layer + 1) in
  let o1 = fresh_wire b ~depth:(layer + 1) in
  let id = b.next_node in
  b.next_node <- id + 1;
  b.acc <- { id; layer; attrs = Toggle; ins = [| a; bo |]; outs = [| o0; o1 |] } :: b.acc;
  (o0, o1)

let split_even_odd ws =
  let rec go evens odds i = function
    | [] -> (List.rev evens, List.rev odds)
    | w :: rest ->
        if i land 1 = 0 then go (w :: evens) odds (i + 1) rest
        else go evens (w :: odds) (i + 1) rest
  in
  go [] [] 0 ws

let rec interleave a b =
  match (a, b) with
  | [], [] -> []
  | x :: a, y :: b -> x :: y :: interleave a b
  | _ -> invalid_arg "Ir.interleave: unequal halves"

(* One Merger[2k] instance: its two input wire lists, its output wires
   in logical order, and k (so half the merger's width).  {!Certify}
   discharges the AHS merger lemma numerically on every recorded
   instance, including the nested ones. *)
type merger_rec = {
  half : int;
  ins_a : int array;
  ins_b : int array;
  m_outs : int array;
}

(* Merger[2k] (AHS): even inputs of the first half with odd inputs of
   the second feed one Merger[k], the remaining inputs the other; a
   final column pairs the sub-mergers' outputs elementwise.  Returns
   the output wires in logical order. *)
let rec merger b recs xs ys =
  let zs =
    match (xs, ys) with
    | [ x ], [ y ] ->
        let t, bo = mk_balancer b x y in
        [ t; bo ]
    | _ ->
        let xe, xo = split_even_odd xs in
        let ye, yo = split_even_odd ys in
        let za = merger b recs xe yo in
        let zb = merger b recs xo ye in
        let pairs = List.map2 (fun u v -> mk_balancer b u v) za zb in
        interleave (List.map fst pairs) (List.map snd pairs)
  in
  recs :=
    {
      half = List.length xs;
      ins_a = Array.of_list xs;
      ins_b = Array.of_list ys;
      m_outs = Array.of_list zs;
    }
    :: !recs;
  zs

(* Bitonic[2k]: two parallel Bitonic[k] followed by Merger[2k]. *)
let rec bitonic_wires b recs ws =
  match ws with
  | [ _ ] -> ws
  | _ ->
      let n = List.length ws in
      let h1 = List.filteri (fun i _ -> i < n / 2) ws in
      let h2 = List.filteri (fun i _ -> i >= n / 2) ws in
      let z1 = bitonic_wires b recs h1 in
      let z2 = bitonic_wires b recs h2 in
      merger b recs z1 z2

let finish_counting ~name ~flavor ~width b outs =
  {
    name;
    kind = Counting { flavor };
    width;
    inputs = Array.init width Fun.id;
    outputs = Array.of_list outs;
    nodes = Array.of_list (List.rev b.acc);
    nwires = b.next_wire;
  }

let bitonic_mergers ~width =
  if not (is_power_of_two width) then
    invalid_arg
      (Printf.sprintf "bitonic: width %d is not a power of two" width);
  let b = new_builder ~width in
  let recs = ref [] in
  let outs = bitonic_wires b recs (List.init width Fun.id) in
  (finish_counting ~name:"bitonic" ~flavor:`Bitonic ~width b outs, List.rev !recs)

let bitonic ~width = fst (bitonic_mergers ~width)

(* Periodic[w]: log w identical Block[w] butterflies in series; Block
   layer l splits the wires into chunks of size w >> l and pairs the
   mirror images within each chunk; outputs in natural wire order. *)
let periodic ~width =
  if not (is_power_of_two width) then
    invalid_arg
      (Printf.sprintf "periodic: width %d is not a power of two" width);
  let b = new_builder ~width in
  let d = log2 width in
  let block =
    List.init d (fun l ->
        let chunk = width lsr l in
        List.concat
          (List.init (width / chunk) (fun c ->
               let base = c * chunk in
               List.init (chunk / 2) (fun i ->
                   (base + i, base + chunk - 1 - i)))))
  in
  let layers = List.concat (List.init d (fun _ -> block)) in
  (* Thread the current wire of each physical position through the
     pair layers (the mirror pairs within a layer are disjoint, so
     updating in place is safe). *)
  let cur = Array.init width Fun.id in
  List.iter
    (fun pairs ->
      List.iter
        (fun (pa, pb) ->
          let t, bo = mk_balancer b cur.(pa) cur.(pb) in
          cur.(pa) <- t;
          cur.(pb) <- bo)
        pairs)
    layers;
  finish_counting ~name:"periodic" ~flavor:`Periodic ~width b
    (Array.to_list cur)

(* ------------------------------------------------------------------ *)
(* Derived views                                                       *)
(* ------------------------------------------------------------------ *)

(* Who reads each wire.  [None] marks an unread wire (a well-formedness
   violation; the passes report it rather than raising here). *)
type target = To_node of int * int (* node array index, input port *)
            | To_output of int (* logical output index *)

let consumers net : target option array =
  let t = Array.make net.nwires None in
  Array.iteri
    (fun n node ->
      Array.iteri (fun port w -> if w >= 0 && w < net.nwires then t.(w) <- Some (To_node (n, port))) node.ins)
    net.nodes;
  Array.iteri
    (fun l w -> if w >= 0 && w < net.nwires then t.(w) <- Some (To_output l))
    net.outputs;
  t

(* Runtime plan for a tree: the heap-ordered balancer attributes plus
   the natural-position -> logical-output map, reconstructed by walking
   the wires from the root (never by trusting node ids).  Call only on
   a well-formed tree. *)
let tree_plan net =
  match net.kind with
  | Counting _ -> invalid_arg "Ir.tree_plan: not a tree network"
  | Tree _ ->
      if net.width = 1 then ([||], [| 0 |])
      else begin
        let cons = consumers net in
        let attrs = Array.make (net.width - 1) Toggle in
        let leaf_index = Array.make net.width (-1) in
        let node_of wire =
          match cons.(wire) with
          | Some (To_node (n, _)) -> Some net.nodes.(n)
          | _ -> None
        in
        let rec assign hpos wire =
          if hpos >= net.width - 1 then begin
            (* Leaf position: the wire must be a network output. *)
            match cons.(wire) with
            | Some (To_output l) -> leaf_index.(hpos - (net.width - 1)) <- l
            | _ -> invalid_arg "Ir.tree_plan: leaf wire is not an output"
          end
          else
            match node_of wire with
            | Some node ->
                attrs.(hpos) <- node.attrs;
                assign ((2 * hpos) + 1) node.outs.(0);
                assign ((2 * hpos) + 2) node.outs.(1)
            | None -> invalid_arg "Ir.tree_plan: missing interior balancer"
        in
        assign 0 net.inputs.(0);
        (attrs, leaf_index)
      end

(* The plans of the trees built so far in this process, keyed by
   [elim_tree]'s arguments without the name, which no plan depends on.
   Host-level construction state, like a structure's uid counter.  No
   list cell, key or plan is mutated once published, so a racing native
   construction can only lose an entry, and a lost entry is derived
   again. *)
let tree_plans = ref []

let cached_tree_plan ~mode ~eliminate ~leaf_order ?bug ~levels ~width build =
  let key = (mode, eliminate, leaf_order, bug, levels, width) in
  match List.assoc_opt key !tree_plans with
  | Some plan -> plan
  | None ->
      let plan = tree_plan (build ()) in
      tree_plans := (key, plan) :: !tree_plans;
      plan

(* Runtime plan for a counting network: per-layer (top, bottom)
   physical-wire pairs plus the physical-wire -> logical-output map,
   reconstructed by threading physical positions through the nodes in
   layer order.  Call only on a well-formed counting network. *)
let counting_plan net =
  match net.kind with
  | Tree _ -> invalid_arg "Ir.counting_plan: not a counting network"
  | Counting _ ->
      let nlayers =
        Array.fold_left (fun m n -> max m (n.layer + 1)) 0 net.nodes
      in
      let phys = Hashtbl.create (2 * net.nwires) in
      Array.iteri (fun p w -> Hashtbl.replace phys w p) net.inputs;
      let layers = Array.make nlayers [] in
      let by_layer = Array.make nlayers [] in
      Array.iter
        (fun node -> by_layer.(node.layer) <- node :: by_layer.(node.layer))
        net.nodes;
      for l = 0 to nlayers - 1 do
        layers.(l) <-
          List.rev_map
            (fun node ->
              let pa = Hashtbl.find phys node.ins.(0) in
              let pb = Hashtbl.find phys node.ins.(1) in
              Hashtbl.replace phys node.outs.(0) pa;
              Hashtbl.replace phys node.outs.(1) pb;
              (pa, pb))
            by_layer.(l)
      done;
      let position = Array.make net.width (-1) in
      Array.iteri
        (fun logical w -> position.(Hashtbl.find phys w) <- logical)
        net.outputs;
      (layers, position)

(* Literal structural equality up to the name: every shipped network
   is produced by the deterministic builders above, so a candidate is
   canonical iff it matches the regenerated reference field for
   field. *)
let same_structure a b =
  a.kind = b.kind && a.width = b.width && a.nwires = b.nwires
  && a.inputs = b.inputs && a.outputs = b.outputs && a.nodes = b.nodes

let describe_kind = function
  | Tree { leaf_order } ->
      Printf.sprintf "tree(%s)"
        (match leaf_order with `Natural -> "natural" | `Interleaved -> "interleaved")
  | Counting { flavor } -> (
      match flavor with `Bitonic -> "bitonic" | `Periodic -> "periodic")

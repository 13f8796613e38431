(* A binary tree of elimination balancers (paper §2.1, Fig. 3).

   [Pool[w]] is built inductively: a root balancer whose two output
   wires feed two [Pool[w/2]] subtrees.  We store the balancers in heap
   order (root at 0, children of i at 2i+1 / 2i+2) and number the [w]
   outputs according to [leaf_order]:

   - [`Natural]: left-to-right, as in the pool construction (§2) where
     any leaf assignment satisfying per-subtree balance works;
   - [`Interleaved]: outputs of the wire-0 subtree are the even outputs
     and those of the wire-1 subtree the odd ones — the counting-tree
     numbering required by [IncDecCounter[w]] (§3.1), obtained by
     reading the wire choices as bits from the root (LSB) down.

   A traversal shepherds one token or anti-token from the root to either
   a leaf index or an elimination.

   Construction goes through the wiring IR: {!ir} lowers a
   [Tree_config.t] to a [Netverify.Ir.network] — the single source of
   truth for the tree's shape, statically checkable by the netverify
   passes — and {!Make.create} instantiates its balancers and leaf
   numbering from that value rather than from ad-hoc index
   arithmetic. *)

let levels (config : Tree_config.t) =
  Array.to_list
    (Array.map
       (fun (l : Tree_config.level) -> (l.prism_widths, l.spin))
       config.levels)

let ir ?(mode = `Pool) ?(eliminate = true) ?(leaf_order = `Natural) ?bug
    ?name (config : Tree_config.t) =
  let config = Tree_config.validate config in
  let name =
    match name with
    | Some n -> n
    | None ->
        Printf.sprintf "etree-%s-%d"
          (match mode with `Pool -> "pool" | `Stack -> "stack")
          config.width
  in
  let net =
    Netverify.Ir.elim_tree ~name ~mode ~eliminate ~leaf_order ?bug
      ~levels:(levels config) ~width:config.width ()
  in
  Netverify.Passes.assert_well_formed ~what:"Elim_tree.ir" net;
  net

module Make (E : Engine.S) = struct
  module Balancer = Elim_balancer.Make (E)

  type 'v result = Leaf of int | Eliminated of 'v option

  type 'v t = {
    width : int;
    depth : int;
    leaf_index : int array; (* natural leaf position -> logical output *)
    balancers : 'v Balancer.t array; (* heap order; width-1 of them *)
    location : 'v Balancer.location;
  }

  let depth_of_index i =
    (* floor(log2 (i+1)): balancer i sits at this depth. *)
    let rec go d n = if n <= 1 then d else go (d + 1) (n / 2) in
    go 0 (i + 1)

  let create ?(mode = `Pool) ?(eliminate = true) ?(leaf_order = `Natural)
      ?bug ~capacity (config : Tree_config.t) =
    let config = Tree_config.validate config in
    if capacity < 1 then
      invalid_arg "Elim_tree.create: capacity must be positive";
    (* When created inside an engine context (a [Sim.run] body or a
       capacity-configured native engine), the announcement array must
       cover every processor that can traverse: [E.pid ()] indexes it
       directly.  Outside any context [E.nprocs] raises and the check
       is deferred to {!traverse}. *)
    (match try Some (E.nprocs ()) with Failure _ -> None with
    | Some nprocs when capacity < nprocs ->
        invalid_arg
          (Printf.sprintf
             "Elim_tree.create: capacity %d < %d participating processors \
              (raise ~capacity)"
             capacity nprocs)
    | _ -> ());
    (* Lower the configuration to the wiring IR (validated by the
       netverify well-formedness pass) and instantiate the runtime
       balancers and leaf numbering from its plan.  The plan is derived
       on the first construction of each distinct tree in the process
       and shared by the later ones: the model checker builds the same
       tree once per execution. *)
    let attrs, leaf_index =
      Netverify.Ir.cached_tree_plan ~mode ~eliminate ~leaf_order ?bug
        ~levels:(levels config) ~width:config.width (fun () ->
          ir ~mode ~eliminate ~leaf_order ?bug config)
    in
    let width = config.width in
    let location = Balancer.make_location ~capacity in
    let balancers =
      Array.init (Array.length attrs) (fun i ->
          match attrs.(i) with
          | Netverify.Ir.Elim { mode; eliminate; prism_widths; spin; bug } ->
              Balancer.create ~mode ~eliminate ~depth:(depth_of_index i) ?bug
                ~policy:config.policy ~id:i ~prism_widths ~spin ~location ()
          | Netverify.Ir.Toggle ->
              (* The tree builder never emits toggle balancers. *)
              assert false)
    in
    {
      width;
      depth = Tree_config.depth_of_width width;
      leaf_index;
      balancers;
      location;
    }

  let width t = t.width

  let traverse t ~(kind : Location.kind) ~(value : 'v option) : 'v result =
    let p = E.pid () in
    if p >= Balancer.location_capacity t.location then
      invalid_arg
        (Printf.sprintf
           "Elim_tree.traverse: processor %d exceeds tree capacity %d \
            (create with a larger ~capacity)"
           p
           (Balancer.location_capacity t.location));
    if Etrace.on Etrace.lv_ops then
      Etrace.emit
        (Etrace.Event.Op_begin
           { pid = p; time = E.now (); kind = Balancer.trace_kind kind });
    let result =
      if t.width = 1 then Leaf 0
      else begin
        (* Accumulate the natural (left-to-right) leaf position; the
           IR-derived [leaf_index] carries the `Natural/`Interleaved
           numbering. *)
        let rec go idx acc =
          match Balancer.traverse t.balancers.(idx) ~kind ~value with
          | Location.Eliminated v -> Eliminated v
          | Location.Exit wire ->
              let acc = (acc lsl 1) lor wire in
              let child = (2 * idx) + 1 + wire in
              if child >= t.width - 1 then Leaf t.leaf_index.(acc)
              else go child acc
        in
        go 0 0
      end
    in
    if Etrace.on Etrace.lv_ops then
      Etrace.emit
        (Etrace.Event.Op_end
           {
             pid = p;
             time = E.now ();
             kind = Balancer.trace_kind kind;
             leaf = (match result with Leaf i -> Some i | Eliminated _ -> None);
           });
    result

  (* The live per-balancer stats records grouped by depth, root level
     first — the attribution table joins these against trace-derived
     cycle budgets.  The inner lists alias the balancers' own records;
     [Elim_stats.merge] de-duplicates by physical identity, so passing
     overlapping groups (or the same record twice) cannot double-count. *)
  let balancer_stats_by_level t =
    let balancers = Array.to_list t.balancers in
    List.init t.depth (fun d ->
        balancers
        |> List.filteri (fun i _ -> depth_of_index i = d)
        |> List.map Balancer.stats)

  (* Statistics for Table 1: merged per depth, root first. *)
  let stats_by_level t =
    List.map Elim_stats.merge (balancer_stats_by_level t)

  let reset_stats t =
    Array.iter (fun b -> Elim_stats.reset (Balancer.stats b)) t.balancers

  (* Per-depth reactive state, root level first: each balancer's
     current [(spin, widths)].  Empty inner lists under `Static. *)
  let adapt_by_level t =
    let balancers = Array.to_list t.balancers in
    List.init t.depth (fun d ->
        balancers
        |> List.filteri (fun i _ -> depth_of_index i = d)
        |> List.filter_map Balancer.adapt_state)

  (* Expected number of balancers traversed per token (plus one leaf
     visit for non-eliminated ones), §2.5's "expected number of nodes". *)
  let expected_nodes_traversed t =
    let levels = stats_by_level t in
    let entered_root =
      match levels with [] -> 0 | s :: _ -> Elim_stats.entries s
    in
    if entered_root = 0 then 0.0
    else begin
      let visits =
        List.fold_left (fun acc s -> acc + Elim_stats.entries s) 0 levels
      in
      (* Tokens that exit the bottom level visit their leaf pool too. *)
      let reached_leaves =
        match List.rev levels with
        | [] -> 0
        | last :: _ ->
            Elim_stats.entries last - last.Elim_stats.eliminated
      in
      float_of_int (visits + reached_leaves) /. float_of_int entered_root
    end

  (* Fraction of root entries that eventually accessed a leaf pool. *)
  let leaf_access_fraction t =
    let levels = stats_by_level t in
    match (levels, List.rev levels) with
    | s :: _, last :: _ ->
        let entered = Elim_stats.entries s in
        if entered = 0 then 0.0
        else
          float_of_int (Elim_stats.entries last - last.Elim_stats.eliminated)
          /. float_of_int entered
    | _ -> 0.0
end

(** The wiring IR: a balancing network as a layered DAG of balancer
    nodes connected by single-writer/single-reader wires.  The
    canonical builders here are the single source of truth for every
    network shape the repo ships; the runtime structures instantiate
    themselves from these values and the passes in {!Passes} /
    {!Certify} verify them statically. *)

type mode = [ `Pool | `Stack ]
type leaf_order = [ `Natural | `Interleaved ]
type defect = [ `Skip_toggle_on_miss ]
type flavor = [ `Bitonic | `Periodic ]

type attrs =
  | Toggle
      (** bare-CAS toggle balancer (counting networks): 2-in/2-out *)
  | Elim of {
      mode : mode;
      eliminate : bool;
      prism_widths : int list;
      spin : int;
      bug : defect option;
    }  (** elimination/diffracting balancer (trees): 1-in/2-out *)

type node = {
  id : int;
  layer : int;
  attrs : attrs;
  ins : int array;
  outs : int array;  (** index = physical output wire 0 (top) / 1 *)
}

type net_kind =
  | Tree of { leaf_order : leaf_order }
  | Counting of { flavor : flavor }

type network = {
  name : string;
  kind : net_kind;
  width : int;
  inputs : int array;
  outputs : int array;  (** [outputs.(logical)] is a wire id *)
  nodes : node array;
  nwires : int;
}

val is_power_of_two : int -> bool
val log2 : int -> int
(** [floor(log2 w)] for [w >= 1]. *)

val bit_reverse : bits:int -> int -> int
(** Reverse the low [bits] bits — the [`Natural] / [`Interleaved]
    change of numbering. *)

val elim_tree :
  name:string ->
  mode:mode ->
  eliminate:bool ->
  leaf_order:leaf_order ->
  ?bug:defect ->
  levels:(int list * int) list ->
  width:int ->
  unit ->
  network
(** Elimination/diffracting tree: heap-ordered balancers, wire id =
    heap slot, [levels.(d)] = (prism_widths, spin) for depth [d].
    Raises [Invalid_argument] when [width] is not a power of two or
    [levels] does not cover every depth. *)

val bitonic : width:int -> network
val periodic : width:int -> network

type merger_rec = {
  half : int;  (** k: each input side of this Merger[2k] has k wires *)
  ins_a : int array;
  ins_b : int array;
  m_outs : int array;  (** output wires in logical order *)
}

val bitonic_mergers : width:int -> network * merger_rec list
(** The bitonic network together with every Merger instance of its
    recursive construction (nested ones included), for the numeric
    merger-lemma certification in {!Certify}. *)

type target = To_node of int * int | To_output of int

val consumers : network -> target option array
(** Who reads each wire; [None] marks an unread wire (reported by the
    well-formedness pass, not raised here). *)

val tree_plan : network -> attrs array * int array
(** Runtime plan for a well-formed tree: heap-ordered balancer
    attributes and the natural-position -> logical-output map, both
    reconstructed by walking the wires. *)

val cached_tree_plan :
  mode:mode ->
  eliminate:bool ->
  leaf_order:leaf_order ->
  ?bug:defect ->
  levels:(int list * int) list ->
  width:int ->
  (unit -> network) ->
  attrs array * int array
(** [tree_plan (build ())], where [build] lowers and checks the tree
    {!elim_tree} makes of these arguments (any name).  It is derived on
    the first call with equal arguments in this process and shared by
    every later one, so callers only read it.  If [build] or the plan
    raises, nothing is cached. *)

val counting_plan : network -> (int * int) list array * int array
(** Runtime plan for a well-formed counting network: per-layer
    (top, bottom) physical-wire pairs and the physical-wire ->
    logical-output map. *)

val same_structure : network -> network -> bool
(** Literal structural equality up to the name. *)

val describe_kind : net_kind -> string

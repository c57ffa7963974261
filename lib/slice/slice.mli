open Olfu_logic
open Olfu_netlist

(** Constant-severed cone-of-influence slicing.

    The paper's manipulation makes mission-mode constants explicit (tied
    scan/debug pins, software-held inputs); this module turns those
    constants into {e smaller machines}.  It builds a flop-level
    sequential dependency graph — input→flop, flop→flop and
    flop→output edges — where an edge is dropped ({e severed}) when the
    ternary constant of a select pin already decides the path: a mux
    whose select is tied reads only one branch, a scan flop whose
    scan-enable is tied never reads its scan-data pin, and a net that is
    itself constant carries no information at all.  Mission slices are
    therefore far smaller than the purely structural cone of influence.

    Two constant vectors drive the severing, and they are deliberately
    distinct:

    {ul
    {- {b hard} constants: [Ternary.run ~ff_mode:Cut] with reset-role
       inputs assumed inactive — exactly the constants that hold in
       {e every cycle of every BMC encoding} ({!Olfu_atpg.Bmc},
       {!Olfu_safety}, {!Olfu_invar} all hold reset inactive and leave
       flop initial state free).  Reduced machines are cut on hard
       constants only, which is what makes their verdicts bit-identical
       to the full machine's.  The one consumer of reduced machines is
       {!Olfu_invar.Invar.prove};}
    {- {b mission} constants: the steady-state fixpoint
       ([Ternary.run ~ff_mode:Steady_state], debug controls assumed at
       0) — the paper's reading.  It additionally claims flops the
       mission can never toggle, so it severs more; the SLICE lint
       rules and the condensation reason on these edges, but no
       machine is reduced with them (a free-init BMC state can sit
       outside the steady fixpoint).}}

    Each edge set costs one pass over the combinational nodes in
    topological order (a bitset of the live sources per node, dropped
    after the build) and one Tarjan condensation, kept with the edges:
    every closure and slice size is then a union or popcount of
    per-component reach sets.  The graph is memoized per netlist through
    {!Olfu_netlist.Analysis.add_cache}. *)

type scc = {
  comp_of : int array;  (** flop ordinal -> component id *)
  comps : int array array;  (** component id -> member flop ordinals *)
}
(** Tarjan condensation of a flop graph; component ids are a
    reverse-topological numbering of the condensation DAG (every
    dependency of a component has a smaller id). *)

type reach
(** Per-component backward and forward reach sets, derived from the
    condensation; read through {!backward_flops}, {!forward_flops} and
    {!backward_sizes}. *)

type edges = {
  supports : int array array;
      (** [supports.(f)]: sorted flop ordinals whose current value can
          still influence flop [f]'s next state once severed *)
  consumers : int array array;  (** transpose of [supports] *)
  in_deps : int array array;
      (** [in_deps.(f)]: sorted non-constant primary-input node ids that
          can still influence flop [f]'s next state *)
  out_deps : (int * int array) array;
      (** per [Output] marker (in {!Netlist.outputs} order): the marker
          node id and the sorted flop ordinals whose current value can
          still influence it combinationally *)
  cond : scc;  (** condensation of [supports] *)
  reach : reach;
}

type t = {
  nl : Netlist.t;
  hard : Logic4.t array;  (** per net; see above *)
  mission : Logic4.t array;  (** per net; steady-state fixpoint *)
  flops : int array;  (** = [Netlist.seq_nodes nl]; ordinals index it *)
  ford : int array;  (** node id -> flop ordinal, [-1] otherwise *)
  structural : edges;  (** no severing: the plain cone of influence *)
  hard_edges : edges;
  mission_edges : edges;
}

val build : ?assume:(int * Logic4.t) list -> Netlist.t -> t
(** [assume] strengthens the {e mission} fixpoint only (default: every
    [Debug_control] input at 0 — the mission hold).  Hard constants
    never take assumptions beyond reset inactivity: they must hold in
    any encoding. *)

val get : Netlist.t -> t
(** [build] with defaults, memoized on the netlist's {!Analysis}. *)

(** {1 Flop-level closures and statistics} *)

val backward_flops : edges -> int list -> bool array
(** Transitive closure over [supports] from the given flop ordinals
    (seeds included): the union of the seeds' component reach sets. *)

val forward_flops : edges -> int list -> bool array
(** Transitive closure over [consumers] (seeds included). *)

val backward_sizes : edges -> int array
(** Per flop ordinal: number of flops in its backward closure (itself
    included) — the slice-size distribution of the machine every
    BMC-backed verdict on that flop has to encode. *)

type dist = {
  count : int;
  min_ : int;
  max_ : int;
  mean : float;
  median : int;
  p90 : int;
}

val dist_of : int array -> dist

type regime = { label : string; edges : edges; sizes : dist }

val regimes : t -> regime list
(** The three edge sets in rendering order — structural, hard, mission
    — each with the distribution of its {!backward_sizes}. *)

val condensation_dot : t -> edges -> string
(** Graphviz digraph of the SCC condensation: one node per component
    (labelled with a representative flop name and the member count),
    one edge per inter-component dependency. *)

(** {1 Reduced machines} *)

type reduced = {
  rnl : Netlist.t;
  new_of_old : int array;  (** old node id -> new id, [-1] when dropped *)
  old_of_new : int array;
      (** new id -> old node id, [-1] for synthesized tie cells *)
}

val backward : t -> targets:int list -> reduced
(** The sub-machine that decides the targets (node ids: flops, [Output]
    markers, or any net): the backward closure under hard-constant
    severing.  Kept nodes keep their kind, name and roles; a severed or
    constant fanin is rewired to a tie cell of the constant (a fresh
    [Tiex] for the never-read branch of a decided select).  The old↔new
    index maps are certified (every kept node is re-checked kind-by-kind
    and pin-by-pin against the original before the machine is returned;
    a mismatch raises). *)

val certify : t -> reduced -> unit
(** Re-validates a reduced machine's index maps against the original
    netlist (raises [Failure] with a diagnostic on any mismatch).
    [backward] already calls this; exposed for tests. *)

val pp_stats : t -> regime list -> Format.formatter -> unit
(** Text rendering of edge counts and slice-size distributions, from
    regimes already computed by {!regimes}. *)

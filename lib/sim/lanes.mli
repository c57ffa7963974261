open Olfu_logic
open Olfu_netlist

(** The word-level simulation core: 64 lanes of dual-rail four-valued
    logic per node, compiled once per netlist, evaluated without
    allocating.

    Every 64-lane loop runs on it: combinational fault grading
    ({!Olfu_fsim.Comb_fsim.run}: lane [l] is pattern [base + l], the good
    machine and each faulty one in states of their own), sequential
    fault grading ({!Olfu_fsim.Seq_fsim.run}: lane 0 is the good machine,
    lanes 1–63 faulty), SEU replay (lanes carry bit-flips), the SBST
    testbench (all lanes equal, lane 0 read) and invariant mining (64
    random lanes).  A lane is [1] = (1,0), [0] = (0,1), [X] = (1,1) on
    the [(hi, lo)] rails; (0,0) is never produced (the mux turns it into
    X).  {!Comb_sim} and {!Seq_sim} stay the scalar oracles.

    A cycle is {!settle} (sources, then flops, then the combinational
    nodes in {!Netlist.topo} order) followed by {!clock}.  Stuck-at
    faults are per-lane masks: a stem fault is forced on the node's value
    wherever it is computed (sources and flops included), a branch fault
    on one fanin operand, and a clock-pin fault holds the pre-edge
    state. *)

type t
(** A netlist compiled for simulation: kinds, CSR fanin, evaluation
    order and flop slots.  Immutable; share it between domains. *)

type state
(** One simulator's words ([Bigarray] int64 rails): node values, driven
    inputs, flop state, fault masks and strobe accumulators.  Use one
    per domain. *)

type words = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

val compile : Netlist.t -> t
(** Memoized per netlist (an {!Analysis.cache} entry), so every caller
    of one netlist shares one compiled form. *)

val create : t -> state
(** Every mask and accumulator is clear; call {!reset} before a run. *)

(** {1 Driving} *)

val reset : state -> init:Logic4.t -> unit
(** Every flop to [init] in every lane, every input and [Tiex] word to
    X, the strobe accumulators to 0.  Fault masks are kept. *)

val set_input : state -> int -> Logic4.t -> unit
(** Drive an [Input] (or [Tiex]) node with the same value in every lane,
    from the next {!settle} on.  Raises [Invalid_argument] on other
    kinds. *)

val set_input_word : state -> int -> int64 -> unit
(** Drive an [Input] or [Tiex] node with a binary word: bit [k] is lane
    [k]'s value. *)

val set_state_word : state -> int -> int64 -> unit
(** Set a flop's current state to a binary word.  Raises
    [Invalid_argument] if the node is not sequential. *)

val set_state_lane : state -> int -> lane:int -> Logic4.t -> unit
(** Set one lane of a flop's current state. *)

val set_rails : state -> int -> hi:int64 -> lo:int64 -> unit
(** Drive an [Input] or [Tiex] node, or set a flop's current state, with
    raw rails, X lanes included.  No lane may be (0,0).  Raises
    [Invalid_argument] on other kinds. *)

val blit : src:state -> dst:state -> unit
(** Copy node values, driven inputs and flop state from [src] to [dst]
    (both of one {!t}).  Fault masks and accumulators are not copied. *)

(** {1 Faults} *)

val inject :
  state -> node:int -> Cell.Pin.t -> lanes:int64 -> stuck:bool -> unit
(** Add a stuck-at-[stuck] fault on one pin of [node] in every lane set
    in [lanes]: [Out] forces the stem, [In p] the operand on pin [p],
    [Clk] holds the flop ([stuck] is ignored).  A site no evaluation
    reads (the clock pin of a combinational cell, a pin past the arity)
    is ignored. *)

val clear : state -> node:int -> Cell.Pin.t -> unit
(** Remove every lane's fault on that site. *)

(** {1 Simulation} *)

val settle : state -> unit
val clock : state -> unit
(** Clock every flop from the settled values.  Afterwards a flop node
    reads its new state, as in {!Seq_sim.step}. *)

val step : state -> unit
(** {!settle} then {!clock}. *)

val eval : state -> int -> unit
(** Recompute one node as {!settle} does: a combinational node from its
    operands, a source from its driven word, constant or state, with its
    stem faults forced. *)

val capture : state -> int -> hi:words -> lo:words -> int -> unit
(** [capture st flop ~hi ~lo k] writes into [hi.{k}], [lo.{k}] the value
    [flop] captures at the next edge, from its operands with their
    branch faults.  Unlike {!clock}, the flop's own stem fault and clock
    freeze do not apply.  Raises [Invalid_argument] if the node is not
    sequential. *)

(** {1 Reading} *)

val get : state -> int -> int -> Logic4.t
(** [get st node lane]. *)

val hi : state -> words
val lo : state -> words
(** The node rails, indexed by node id, for callers that combine whole
    lanes (lane [k] is bit [k]). *)

val strobe : state -> int array -> into:int -> unit
(** [strobe st outs ~into] compares lane 0 with every lane on the
    observed operand of each [Output] marker in [outs] (its pin-0 driver,
    branch mask applied), where lane 0 is binary.  It accumulates, in
    accumulator [into] (0 or 1), the lanes holding the other binary value
    ({!differs}) and the lanes holding X ({!unknown}).  {!reset} clears
    both. *)

val differs : state -> into:int -> int -> bool
val unknown : state -> into:int -> int -> bool

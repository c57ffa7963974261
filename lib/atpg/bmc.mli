open Olfu_netlist
open Olfu_fault

(** Bounded sequential test generation (SAT-based BMC).

    Unrolls the mission machine [cycles] times through the mission
    frame below, from the post-reset state (reset-role inputs inactive,
    resettable flops at 0, plain flops at a solver-chosen power-up value
    shared by both copies; mission constants are the netlist's own
    ties), with the stuck-at fault permanently injected in the faulty
    copy, and asks for an input sequence making a counted output differ
    in some cycle.

    A [`Test] is a genuine {e functional} test — exactly what the paper
    says is hard to produce — and therefore a refutation of any
    untestability claim; [`No_test_within k] is a bounded guarantee only
    (the fault may still be testable in more cycles). *)

type stimulus = (int * bool) list array
(** One input assignment list per cycle (input node id, value). *)

type result =
  | Test of stimulus
  | No_test_within of int
  | Unknown

val run :
  ?cycles:int ->
  ?observable_output:(int -> bool) ->
  ?conflict_limit:int ->
  Netlist.t ->
  Fault.t ->
  result
(** Defaults: 8 cycles, all outputs, 200,000 conflicts.  Clock-pin faults
    are rejected ([Invalid_argument]). *)

val confirm_test :
  ?observable_output:(int -> bool) -> Netlist.t -> Fault.t -> stimulus -> bool
(** Replay the stimulus on the 4-valued sequential simulator with and
    without the fault and confirm an observed difference, independently
    of the SAT encoding.  Only output-pin (stem) faults are replayed: the
    simulator cannot inject a branch fault, so an input-pin or clock-pin
    fault returns [true] without any replay. *)

(** {1 The bounded mission frame}

    The one encoding of the mission machine behind every bounded query:
    {!run} here, the SEU bit-flip check ({!Olfu_safety.Seu}) and the
    invariant base and step queries ({!Olfu_invar.Invar}).  Mission
    constants are netlist ties: a tied input is a [Tie0]/[Tie1] cell and
    encodes as a constant, so the frame itself only fixes reset-role
    inputs (inactive). *)

type frame
(** One cycle's source literals: every reset-role input at 1, every
    other primary input and every [Tiex] node a fresh variable
    (allocated in that order). *)

type state
(** The literal of every sequential cell in one cycle. *)

val frames : Cnf.Builder.t -> Netlist.t -> int -> frame array
(** [frames b nl n] allocates the frames of cycles [0..n-1], in cycle
    order. *)

val reset_state : Cnf.Builder.t -> Netlist.t -> state
(** Power-up after reset: resettable flops ([Dffr], [Sdffr]) at 0, plain
    flops fresh. *)

val free_state : Cnf.Builder.t -> Netlist.t -> state
(** Every flop fresh: any state at all. *)

val state_lit : state -> int -> int
(** The literal of a sequential node, in O(1). *)

val flip : state -> int -> state
(** The same state with one flop inverted. *)

val unroll :
  Cnf.Builder.t -> Netlist.t -> init:state -> steps:int -> state array
(** One fault-free copy over [steps] transitions, allocating each
    cycle's frame just before its logic: the states of cycles
    [0..steps], [init] first. *)

val unroll2 :
  ?inject_stem:(int -> int -> int) ->
  ?inject_operand:(int -> int -> int -> int) ->
  Cnf.Builder.t ->
  Netlist.t ->
  frames:frame array ->
  good:state ->
  bad:state ->
  observe:((int -> int) -> (int -> int) -> unit) ->
  unit
(** Two copies over the given frames (shared inputs): a fault-free copy
    from [good] and a second copy from [bad] whose stem / operand
    literals [inject_stem i l] / [inject_operand i p l] may rewrite
    (identity by default; a flop's stem rewrite applies to its state
    literal every cycle).  Every cycle, [observe good_lit bad_lit]
    gets both copies' node lookups (which see through [Output]
    markers) before either captures its next state. *)

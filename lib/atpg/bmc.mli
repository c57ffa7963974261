open Olfu_netlist
open Olfu_fault

(** Bounded sequential test generation (SAT-based BMC).

    Unrolls the mission machine [cycles] times from the post-reset state
    (reset-role inputs held inactive, resettable flops starting at 0,
    plain flops at a solver-chosen power-up value), with the stuck-at
    fault permanently injected in the faulty copy, and asks for an input
    sequence making a counted output differ in some cycle.

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

(** {1 Unrolling primitives}

    The per-cycle encoding blocks behind {!run}, exported so other
    bounded checks (the {!Olfu_safety} SEU bit-flip analysis) unroll the
    same machine semantics instead of re-deriving them. *)

val eval_cycle :
  Cnf.Builder.t ->
  Netlist.t ->
  source:(int -> int) ->
  inject_stem:(int -> int -> int) ->
  inject_operand:(int -> int -> int -> int) ->
  int array * (int -> int)
(** One copy of the combinational logic for one cycle.  [source] supplies
    the literal of every source node (inputs, flop outputs, [Tiex]);
    [inject_stem i l] / [inject_operand i p l] may rewrite the stem or
    operand literal (identity for a fault-free copy).  Returns the
    per-node literal array and a lookup that sees through [Output]
    markers. *)

val next_state :
  Cnf.Builder.t ->
  Netlist.t ->
  (int -> int) ->
  inject_operand:(int -> int -> int -> int) ->
  (int * int) array
(** Captured next-state literal per sequential cell, from the cycle's
    [lit_of] lookup. *)

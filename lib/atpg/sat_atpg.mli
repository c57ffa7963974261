open Olfu_netlist
open Olfu_fault

(** SAT-based test generation and untestability proof.

    Builds the classic miter: a CNF of the good circuit, a faulty copy of
    the fault's output cone, and a disjunction of difference bits over the
    observation points (primary outputs and flip-flop captures, the same
    full-access view as {!Podem}).  Satisfiable ⟺ a test exists, so an
    UNSAT answer is a complete untestability proof — this is how modern
    commercial engines settle the faults branch-and-bound ATPG gives up
    on. *)

type result =
  | Test of Podem.assignment
  | Untestable
  | Unknown  (** conflict budget exhausted *)

val run :
  ?conflict_limit:int ->
  Netlist.t ->
  Fault.t ->
  result
(** Clock-pin faults are outside the combinational model
    ([Invalid_argument]).  [conflict_limit] defaults to 200,000. *)

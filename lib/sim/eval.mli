open Olfu_logic
open Olfu_netlist

(** Single-cell evaluation shared by all simulators. *)

val comb : Cell.kind -> Logic4.t array -> Logic4.t
(** Value of a combinational cell's output given its input-pin values.
    Raises [Invalid_argument] on sequential cells and [Input] (their values
    come from state or the environment, not from evaluation). *)

val comb5 : Cell.kind -> Logic5.t array -> Logic5.t
(** Five-valued variant for the ATPG. *)

val next_state :
  Cell.kind -> ins:Logic4.t array -> current:Logic4.t -> Logic4.t
(** Next flip-flop value at a clock edge.  [Dffr] treats an active (0)
    reset as dominant; [Sdff] selects SI when SE = 1.  Unknown controls
    yield [X] unless both alternatives agree. *)

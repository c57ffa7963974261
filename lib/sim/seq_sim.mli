open Olfu_logic
open Olfu_netlist

(** Cycle-based sequential simulation.

    State lives in the sequential cells; one {!step} is: settle the
    combinational logic, then clock every flip-flop.  Fault injection is
    available through an optional stem override, which is applied both
    during settling and when computing next state. *)

type t

val create : ?init:Logic4.t -> Netlist.t -> t
(** Flip-flops start at [?init] (default [X]). *)

val netlist : t -> Netlist.t

val set_input : t -> int -> Logic4.t -> unit
(** Drive a primary input (by node id). *)

val set_input_name : t -> string -> Logic4.t -> unit

val set_state : t -> int -> Logic4.t -> unit
(** Force a flip-flop value (by node id) — used for test setup. *)

val settle : ?override:(int -> Logic4.t option) -> t -> unit
(** Combinational settle without clocking. *)

val step : ?override:(int -> Logic4.t option) -> t -> unit
(** Settle then clock. *)

val run : ?override:(int -> Logic4.t option) -> t -> int -> unit
(** [run t n] performs [n] steps with the current input values. *)

val value : t -> int -> Logic4.t
(** Net value after the last settle. *)

val value_name : t -> string -> Logic4.t
val state : t -> (int * Logic4.t) array

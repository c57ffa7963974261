open Olfu_logic
open Olfu_netlist

(** Declarative, printable manipulation scripts.

    The paper's flow is "search for sources of untestability → circuit
    manipulation → structural screening"; a script is the middle step as a
    reviewable artifact, addressing cells by name so it survives netlist
    regeneration. *)

type op =
  | Tie_input of string * Logic4.t
  | Tie_net of string * Logic4.t
  | Tie_pin of { node : string; pin : int; value : Logic4.t }
  | Tie_flop of string * Logic4.t  (** ties both D and the output *)
  | Float_output of string

type t = op list

val apply : Netlist.t -> t -> Netlist.t
(** Raises [Invalid_argument] on unknown names or role mismatches. *)

val pp : Format.formatter -> t -> unit

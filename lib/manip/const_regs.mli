open Olfu_logic
open Olfu_netlist

(** The tie-the-flop manipulation of Sec. 3.3 (step 4a: "connect to
    ground or Vdd input and output of those flip flops showing a constant
    value") and the address forcing built on it. *)

val tie_flop : Tie.Batch.t -> int -> Logic4.t -> unit
(** Tie both the D input and the output of a flip-flop to the value —
    tying the output too lets tools that stop at flip-flop boundaries
    propagate the constant onward (the paper's Fig. 6 argument). *)

val tie_addresses : Netlist.t -> forced:(int -> Logic4.t option) -> Netlist.t
(** Tie every flip-flop carrying an {!Netlist.Address_reg} role whose bit
    the memory map forces ([forced bit = Some v]), then every net with
    the {!Netlist.Address_port} role (step 4b: inputs of the
    address-manipulation modules), in one {!Tie.edit}. *)

open Olfu_logic
open Olfu_netlist

(** Constant-register detection and the tie-the-flop manipulation of
    Sec. 3.3 (step 4a: "connect to ground or Vdd input and output of those
    flip flops showing a constant value"). *)

val constant_flops :
  ?ff_mode:Olfu_atpg.Ternary.ff_mode -> Netlist.t -> (int * Logic4.t) list
(** Flip-flops provably constant in mission mode, with their value
    (default mode: {!Olfu_atpg.Ternary.Steady_state}). *)

val tie_flop : Netlist.Builder.t -> int -> Logic4.t -> unit
(** Tie both the D input and the output of a flip-flop to the value —
    tying the output too lets tools that stop at flip-flop boundaries
    propagate the constant onward (the paper's Fig. 6 argument). *)

val tie_address_registers :
  Netlist.t -> forced:(int -> Logic4.t option) -> Netlist.t
(** Tie every flip-flop carrying an {!Netlist.Address_reg} role whose bit
    the memory map forces ([forced bit = Some v]). *)

val tie_address_ports :
  Netlist.t -> forced:(int -> Logic4.t option) -> Netlist.t
(** Tie nets with the {!Netlist.Address_port} role (step 4b: inputs of the
    address-manipulation modules). *)

open Olfu_netlist
open Olfu_manip

(** tcore System-on-Chip configurations and top-level generation.

    [tcore32] is the full-size stand-in for the paper's industrial 32-bit
    automotive SoC; [tcore16] is a scaled-down configuration used for the
    (much slower) sequential fault-simulation experiments. *)

type config = {
  name : string;
  xlen : int;  (** data/address width, >= 16 *)
  btb_entries : int;
  scan_chains : int;
  scan_link_buffers : int;
  debug : bool;
  bist : bool;  (** logic-BIST controller (mission-tied start pins) *)
  boundary_scan : bool;  (** boundary-scan cells on the bus-data pins *)
  rom : Memmap.region;  (** instruction space (word addresses) *)
  ram : Memmap.region;  (** data space (word addresses) *)
}

val tcore32 : config

val tcore32_dft : config
(** [tcore32] plus a logic-BIST controller and boundary-scan cells — the
    full DfT population of Sec. 3. *)

val tcore16 : config

val generate : config -> Netlist.t
(** Build the core, insert scan, freeze.  Ports:
    inputs [rstn], [bus_rdata\[\]], debug controls, [scan_en],
    [scan_in<i>]; outputs [bus_addr\[\]] (role [Address_port]),
    [bus_wdata\[\]], [bus_rd], [bus_wr], [halted], [gpr_obs\[\]]/
    [spr_obs\[\]] (role [Debug_observe]), [scan_out<i>]. *)

val memmap_regions : config -> Memmap.region list

val debug_control_inputs : config -> string list
(** Names of the mission-tied debug control ports (the paper's "17
    signals"). *)

val debug_observe_outputs : config -> Netlist.t -> string list

val pp_config : Format.formatter -> config -> unit

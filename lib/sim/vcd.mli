open Olfu_netlist

(** VCD (IEEE 1364 value-change dump) writer for cycle simulations, so
    recorded runs open in GTKWave and friends.

    Usage: create a recorder over the nets of interest, call {!sample}
    once per clock cycle after the simulator settles, then {!to_string} /
    {!to_file}. *)

type t

val create : ?nets:int list -> Netlist.t -> t
(** [nets] defaults to every named net plus all ports. *)

val sample : t -> Seq_sim.t -> unit
(** Record the current settled values as the next timestep. *)

val to_string : ?timescale:string -> ?modname:string -> t -> string
val to_file : ?timescale:string -> ?modname:string -> t -> string -> unit

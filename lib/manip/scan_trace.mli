open Olfu_netlist
open Olfu_fault

(** Scan-chain tracing and the scan pruning rule (Sec. 3.1).

    In mission mode the scan enable is tied to the functional value, so:
    {ul
    {- SI s\@0 and s\@1 of every mux-scan cell are untestable;}
    {- SE s\@0 (the functional-mode value) is untestable; {e only} SE s\@1
       must be kept — it can erroneously switch the cell into shift mode;}
    {- every fault of buffers/inverters living purely on the scan path
       (including the scan-in port and the scan-out pin) is untestable.}} *)

(** One shift-path hop: the mux-scan cell reached and the buffers or
    inverters crossed since the previous cell (or the scan-in port), in
    shift order. *)
type hop = { cell : int; path : int list }

type chain = {
  scan_in : int;  (** the scan-in input port *)
  hops : hop list;  (** cells in shift order, with their entry paths *)
  scan_out : int option;  (** output marker terminating the chain *)
  tail_path : int list;  (** buffers between the last cell and scan-out *)
}

val cells : chain -> int list
(** The chain's mux-scan cells in shift order. *)

val trace : Netlist.t -> chain list
(** Follows each {!Netlist.Scan_in} port through buffers/inverters and
    mux-scan SI pins up to a {!Netlist.Scan_out} port, taking the first
    match in fanout order at each net.  Cells not reached by any chain
    are simply absent from the result. *)

val scan_only_nodes : Netlist.t -> int list
(** Nodes (buffers, inverters, scan-in ports) whose every transitive
    fanout ends in SI pins or scan-out ports: the dedicated scan path. *)

val untestable_faults : Netlist.t -> Fault.t list
(** The fault set pruned by the rule, as listed above. *)

val prune : Netlist.t -> Flist.t -> int
(** Marks {!untestable_faults} as [Undetectable Unused] on faults not yet
    classified; returns the count. *)

val pp_chain : Netlist.t -> Format.formatter -> chain -> unit

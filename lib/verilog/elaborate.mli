open Olfu_netlist

(** Hierarchical elaboration: AST → flat {!Netlist.t}.

    Instance nets get hierarchical names ([inst/net]); undriven nets and
    unconnected pins elaborate to [Tiex] (a floating net reads as X).
    Multiple drivers on one net are an error. *)

exception Error of string

val to_netlist : ?roles:(string * Netlist.role) list -> Ast.design -> Netlist.t
(** Elaborates the last module of the design as the top.  [roles]
    attaches roles by flat net name after elaboration; unknown names are
    an error. *)

val roles_of_source : string -> (string * Netlist.role) list
(** Extracts role annotations from ["//@role <net> <tag>"] comment lines
    (the sidecar format {!Emit} writes). *)

val netlist_of_string : string -> Netlist.t
(** Parse, elaborate and apply embedded role annotations. *)

val netlist_of_file : string -> Netlist.t

open Olfu_logic

(** Flat gate-level netlist.

    The graph is stored as an array of single-output cells; a {e net} is
    identified with the id of the cell driving it, so "net [n]" and "output
    of node [n]" are the same thing.  Fanout branches are addressed as
    [(sink node, input pin)] pairs.

    A netlist is immutable once created; circuit manipulations (tying,
    floating, scan removal) build a modified copy through {!Builder}. *)

type node = {
  kind : Cell.kind;
  fanin : int array;  (** driving node id per input pin *)
  name : string option;  (** hierarchical name of the output net *)
}

(** Mission/test roles attached to nodes (ports, flip-flops). *)
type role =
  | Clock
  | Reset
  | Scan_enable
  | Scan_in
  | Scan_out
  | Debug_control  (** debug/test control input (DE, DI, JTAG-like pins) *)
  | Debug_observe  (** debug observation output (register dump buses) *)
  | Address_reg of int  (** flip-flop storing address bit [i] *)
  | Address_port of int  (** port carrying address bit [i] *)

type t

type error =
  | Bad_arity of { node : int; expected : int; got : int }
  | Dangling_fanin of { node : int; pin : int; target : int }
  | Duplicate_name of string
  | Combinational_loop of int list

val pp_error : Format.formatter -> error -> unit

val create :
  ?roles:(int * role) list -> node array -> (t, error list) result
(** Validates arities and references, resolves a topological order and
    detects combinational loops. *)

(** {1 Accessors} *)

val length : t -> int
val node : t -> int -> node
val kind : t -> int -> Cell.kind
val fanin : t -> int -> int array
val name : t -> int -> string option

val fanout : t -> int -> (int * int) array
(** [(sink, pin)] loads of the net driven by the node. *)

val find : t -> string -> int option
val find_exn : t -> string -> int

val inputs : t -> int array
(** Primary-input nodes, in creation order. *)

val outputs : t -> int array
(** [Output]-marker nodes, in creation order. *)

val seq_nodes : t -> int array
(** Sequential cells, in creation order. *)

val topo : t -> int array
(** All non-source nodes in combinational evaluation order (sources are
    inputs, tie cells and sequential-cell outputs). *)

val roles_of : t -> int -> role list
val nodes_with_role : t -> role -> int array
val has_role : t -> int -> role -> bool

val role_assignments : t -> (int * role) list

val level : t -> int -> int
(** Logic depth: 0 for sources, 1 + max fanin level otherwise. *)

val iter_nodes : (int -> node -> unit) -> t -> unit

val pp_summary : Format.formatter -> t -> unit

(** {1 Construction and editing} *)

module Builder : sig
  type netlist := t
  type t

  val create : unit -> t

  val input : ?roles:role list -> t -> string -> int
  val tie : t -> Logic4.t -> int
  (** Fresh tie cell of the given constant ([Z] maps to [Tiex]). *)

  val gate : ?name:string -> ?roles:role list -> t -> Cell.kind -> int list -> int
  (** Adds any non-port cell.  Raises [Invalid_argument] on arity errors
      caught early (full validation happens at {!freeze}). *)

  val output : ?roles:role list -> t -> string -> int -> int
  (** [output b name src] adds a primary-output marker. *)

  val buf : ?name:string -> t -> int -> int
  val not_ : ?name:string -> t -> int -> int
  val and2 : ?name:string -> t -> int -> int -> int
  val or2 : ?name:string -> t -> int -> int -> int
  val xor2 : ?name:string -> t -> int -> int -> int
  val nand2 : ?name:string -> t -> int -> int -> int
  val nor2 : ?name:string -> t -> int -> int -> int
  val xnor2 : ?name:string -> t -> int -> int -> int

  val mux2 : ?name:string -> t -> sel:int -> a:int -> b:int -> int
  val dff : ?name:string -> ?roles:role list -> t -> d:int -> int
  val dffr : ?name:string -> ?roles:role list -> t -> d:int -> rstn:int -> int
  val sdff :
    ?name:string -> ?roles:role list -> t -> d:int -> si:int -> se:int -> int

  val sdffr :
    ?name:string ->
    ?roles:role list ->
    t ->
    d:int ->
    si:int ->
    se:int ->
    rstn:int ->
    int

  val add_role : t -> int -> role -> unit
  val length : t -> int

  val node_kind : t -> int -> Cell.kind
  val node_fanin : t -> int -> int array

  val set_kind : t -> int -> Cell.kind -> unit
  (** Low-level edit used by circuit manipulation (e.g. turning a cell into
      a tie).  The fanin is cleared when the new kind is nullary. *)

  val set_fanin : t -> int -> int array -> unit

  val redirect : t -> int array -> unit
  (** [redirect b target]: every fanin [d] with [target.(d) >= 0] now
      reads [target.(d)] instead, in one pass over all nodes (deleted
      ones included); nets past the end of [target] are kept. *)

  val remove_node : t -> int -> unit
  (** Marks a node deleted; deleted nodes are dropped (and ids compacted)
      at {!freeze}.  Any surviving reference to it is a freeze error. *)

  val freeze : t -> (netlist, error list) result
  val freeze_exn : t -> netlist

  val of_netlist : netlist -> t
  (** Editable copy, preserving ids, names and roles. *)
end

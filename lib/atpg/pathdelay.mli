open Olfu_netlist

(** Functionally untestable path-delay fault identification — the
    companion technique of the authors' MTV'08 paper ([9] in the
    references), driven by the same mission constants.

    A path-delay fault needs every off-path (side) input of every gate on
    the path at a non-controlling value; if the mission configuration ties
    a side input to its controlling value — or holds any on-path net
    constant — the path cannot be (even non-robustly) sensitized, so both
    its rising and falling faults are on-line functionally untestable. *)

type path = {
  launch : int;  (** primary input or flip-flop output starting the path *)
  hops : (int * int) list;  (** (sink node, input pin) per stage, in order *)
}

val capture : path -> int
(** The node whose input ends the path (an output marker or flip-flop). *)

val enumerate : ?max_paths:int -> ?max_len:int -> Netlist.t -> path list
(** Depth-first structural path enumeration, bounded by [max_paths]
    (default 10,000) and [max_len] (default 256 hops).  Deterministic;
    with a cap the result is a prefix sample of the full path set. *)

val untestable : Untestable.t -> path -> bool
(** No static sensitization exists under the analysis' constants. *)

type census = {
  enumerated : int;
  untestable_paths : int;
  truncated : bool;  (** the [max_paths] cap was hit *)
}

val classify : ?max_paths:int -> ?max_len:int -> Untestable.t -> Netlist.t -> census
val pp_census : Format.formatter -> census -> unit

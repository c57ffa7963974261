open Olfu_netlist

(** Single stuck-at faults.

    A fault site is a cell pin: the cell output (the {e stem} of its net),
    one of its input pins (a {e fanout branch} of the driving net), or the
    clock pin of a flip-flop.  Counting two faults per pin over all pins
    reproduces the fault-universe accounting used in the paper (214,930
    faults for the industrial core). *)

type site = { node : int; pin : Cell.Pin.t }

type t = { site : site; stuck : bool }  (** [stuck = true] is stuck-at-1 *)

val equal : t -> t -> bool

val compare : t -> t -> int
(** By node, then pin rank ({!Cell.Pin.compare}), then polarity
    (stuck-at-0 first). *)

val hash : t -> int
(** A hash of node, pin and polarity, consistent with {!equal}. *)

val sa0 : int -> Cell.Pin.t -> t
val sa1 : int -> Cell.Pin.t -> t

val pp : Netlist.t -> Format.formatter -> t -> unit
val to_string : Netlist.t -> t -> string

val site_net : Netlist.t -> site -> int
(** The net (driving node id) the site electrically belongs to: the node
    itself for [Out], the fanin driver for [In i].  Raises
    [Invalid_argument] for [Clk] (the implicit clock is not a net). *)

val universe : ?include_ties:bool -> Netlist.t -> t array
(** Every stuck-at fault of the netlist: 2 faults per output pin, input pin
    and flip-flop clock pin.  [Output]-marker cells contribute only their
    input pin (the port branch); tie cells are excluded unless
    [include_ties].  Strictly increasing under {!compare}. *)

val universe_size : ?include_ties:bool -> Netlist.t -> int

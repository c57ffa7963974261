open Olfu_logic
open Olfu_netlist

(** Tying manipulations (Sec. 3.2.1 / 3.3 of the paper: "connect to ground
    or Vdd ... all CPU inputs related to debug and showing a constant
    value"; "input and output of those flip flops showing a constant
    value").

    Edits build a modified copy through {!edit}; the original is
    untouched.  The manipulated cells stay in the netlist so their
    faults remain in the universe — the structural engine then
    classifies them. *)

(** The edits of one {!edit}. *)
module Batch : sig
  type t

  val builder : t -> Netlist.Builder.t
  (** The editable copy, for edits other than ties. *)

  val input : t -> int -> Logic4.t -> unit
  (** Replace a primary input with a tie cell (the port is soldered to a
      rail).  Raises [Invalid_argument] if the node is not an input. *)

  val net : t -> int -> Logic4.t -> unit
  (** Redirect every fanout branch of the net to a fresh tie cell,
      keeping the driver in place (its cone becomes unobservable, which
      is the point).  The tie cell is created now; the fanins are
      rewritten when {!edit} ends, all nets in one pass, with the result
      of tying them one at a time.  The net must be a node of the netlist
      being edited. *)

  val pin : t -> node:int -> pin:int -> Logic4.t -> unit
  (** Tie a single input pin. *)
end

val edit : Netlist.t -> (Batch.t -> unit) -> Netlist.t
(** [edit nl f]: an editable copy of [nl] (node ids, names and roles
    kept; new tie cells appended in the order [f] creates them), with
    [f]'s edits applied, frozen. *)

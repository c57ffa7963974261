open Olfu_logic
open Olfu_netlist

(** X-path observability under a constant assignment.

    A net is {e observable} when some sensitizable path reaches an
    observation point (a primary output that is not floated, credited
    through flip-flops).  Side inputs holding a controlling constant block
    propagation: this is how tying debug enables or address bits converts
    on-line functional untestability into structural unobservability
    (Sec. 3 of the paper).

    The analysis is optimistic (it may call a net observable that a full
    search would prove dead), so the {e unobservable} verdict — the one
    used to classify faults — is sound. *)

type t

val run :
  ?observable_output:(int -> bool) -> Netlist.t -> consts:Logic4.t array -> t
(** [observable_output o] selects which [Output]-marker nodes count as
    observation points (default: all).  [consts] is
    {!Ternary.t.values}. *)

val net : t -> int -> bool
(** Is the net driven by this node observable? *)

val branch : t -> int -> int -> bool
(** [branch t node pin]: is the fanout branch feeding input [pin] of
    [node] observable? *)

val pin_allowed : Netlist.t -> Logic4.t array -> int -> int -> bool
(** [pin_allowed nl consts node pin]: can a change on that input pin
    propagate through the cell, given the constants on its side inputs?
    Exposed for the single-cell figures of the paper (Figs. 2, 4, 5). *)

val pin_allowed_exempt :
  exempt:(int -> bool) ->
  Netlist.t ->
  Logic4.t array ->
  int ->
  int ->
  bool
(** Like {!pin_allowed}, but a side input whose driving net satisfies
    [exempt] never blocks.  Used for sound {e stem}-fault analysis: a side
    input inside the fault's own fanout cone may change together with the
    faulty net, so its fault-free constant cannot be trusted (the
    reconvergence trap, e.g. [OR(x, x)] with [x] constant). *)

val pin_allowed_gen :
  exempt:(int -> bool) ->
  value:(int -> Logic4.t) ->
  Netlist.t ->
  int ->
  int ->
  bool
(** Generalization of {!pin_allowed_exempt} over an arbitrary value
    function.  Every rule only uses frame-local facts ("this value in the
    frame under analysis"), so [value] may be stronger than an all-frames
    constant vector — the implication engine passes the closure of the
    fault's necessary assignments to block propagation conditionally. *)

open Olfu_netlist

(** SCOAP testability measures (Goldstein).

    Controllabilities [cc0]/[cc1] count the effort to set a net to 0/1;
    observability [co] the effort to propagate it to an output.
    Sequential cells add one unit of (time-frame) depth.  [infinity] marks
    values unreachable structurally (e.g. [cc1] of a tied-0 net). *)

type t

val infinity : int

val run : Netlist.t -> t
(** The exact greatest fixpoint of the SCOAP equations (sequential loops
    make the measures recursive), with no round cap.  Two FIFO worklists
    reach it: controllability starts from the sources, then
    {!Netlist.topo}, then the flops, and re-queues a node's fanout sinks
    only when its [cc0] or [cc1] drops; observability starts from the
    output markers at 0, walks the reverse topological order, and
    re-queues a driver only when its [co] drops.  Every update lowers a
    non-negative int and an optimal derivation never repeats a node, so
    at most [n] passes over the queue are needed; on the generated cores
    a node is evaluated ~6 times for controllability and ~2 for
    observability, O(fanin) each (a few ms on tcore16). *)

val cc0 : t -> int -> int
val cc1 : t -> int -> int

val co : t -> int -> int
(** Stem observability of the net driven by the node. *)

val co_branch : t -> int -> int -> int
(** [co_branch t node pin]: observability of that fanout branch. *)

val hardest : t -> n:int -> (int * int) list
(** The [n] nets with the highest finite [cc0+cc1+co] score, descending —
    a quick profile of where test generation will struggle. *)

open Olfu_netlist

(** Fault-list container: the working set of faults with their
    classification, supporting the pruning and coverage arithmetic of the
    paper's flow.

    {b Status-update discipline (parallel engines).}  Statuses live in one
    plain array; there is no internal locking.  The engines that update a
    list from several domains ({!Olfu_fsim.Comb_fsim.run},
    {!Olfu_fsim.Seq_fsim.run}, [Olfu_atpg.Untestable.classify]) must
    follow — and do follow — this discipline:
    {ul
    {- during a parallel section, each fault index is {e owned} by exactly
       one worker; only the owner calls {!set_status} on it;}
    {- workers read only statuses of indices they own (plus any value
       written before the section started);}
    {- aggregate figures are accumulated per worker and summed after the
       section's barrier.}}
    Under this discipline results are bit-identical to a sequential run
    regardless of worker count or scheduling.  Readers from other domains
    must not call any accessor while a parallel section is running. *)

type t

val create : Netlist.t -> Fault.t array -> t
(** Duplicate faults are rejected ([Invalid_argument]). *)

val full : ?include_ties:bool -> Netlist.t -> t
(** The complete stuck-at universe of the netlist, all [Not_analyzed]. *)

val copy : t -> t
(** A fresh status array over the same faults: classifying the copy never
    touches the original.  The fault array and index are shared (they
    are never mutated after {!create}). *)

val netlist : t -> Netlist.t
val size : t -> int
val fault : t -> int -> Fault.t
val status : t -> int -> Status.t
val set_status : t -> int -> Status.t -> unit

val classify_if :
  t -> Status.t -> keep:(Status.t -> bool) -> (Fault.t -> bool) -> int
(** [classify_if t st ~keep p] sets status [st] on every fault satisfying
    [p] whose current status satisfies [keep]; returns how many changed.
    Mirrors "remove the identified faults from the fault list" — faults
    already classified are never reclassified. *)

val find : t -> Fault.t -> int option
val mem : t -> Fault.t -> bool
val iteri : (int -> Fault.t -> Status.t -> unit) -> t -> unit
val count : t -> f:(Status.t -> bool) -> int
val count_status : t -> Status.t -> int

val indices : t -> f:(Status.t -> bool) -> int list

(** {1 Coverage figures}

    All as fractions in [0, 1]. *)

val fault_coverage : t -> float
(** DT / total — the raw figure before untestable-fault pruning. *)

val testable_coverage : t -> float
(** DT / (total − undetectable) — the figure after pruning, the number the
    ISO 26262 targets apply to. *)

val prune_undetectable : t -> t
(** Fresh list containing only the faults not classified undetectable. *)

val pp_summary : Format.formatter -> t -> unit

open Olfu_netlist
open Olfu_fault

(** Five-valued PODEM on the full-access combinational view.

    Flip-flop outputs are treated as assignable pseudo-inputs and their
    captured next-state values as pseudo-outputs — the standard full-scan
    abstraction, which is also what a structural engine assumes when it
    classifies faults after circuit manipulation.  Tie cells remain
    constants and are never assignable, so a [Untestable] verdict proves
    the fault has no test {e in the manipulated configuration}.

    Clock-pin faults are outside the combinational model
    ([Invalid_argument]); {!Untestable.fault_verdict} covers them. *)

type assignment = (int * bool) list
(** Pseudo-input node id, assigned value. *)

type result =
  | Test of assignment  (** a detecting pattern (good-circuit values) *)
  | Proved_untestable  (** search space exhausted: no test exists *)
  | Aborted  (** backtrack limit hit *)

val run :
  ?backtrack_limit:int ->
  ?observable_output:(int -> bool) ->
  ?guide:Scoap.t ->
  Netlist.t ->
  Fault.t ->
  result
(** [backtrack_limit] defaults to 10,000.  Flip-flop capture values
    count as observation points.
    [guide] supplies SCOAP measures for backtrace ordering (computed on
    the fly when absent — pass it when running many faults on one
    netlist). *)

val check_test :
  ?observable_output:(int -> bool) ->
  Netlist.t ->
  Fault.t ->
  assignment ->
  bool
(** Independent validation that an assignment detects the fault (used by
    the property tests). *)

open Olfu_fault
open Olfu_soc

(** SBST grading: run the self-test suite against the fault universe with
    the sequential fault simulator, before/after untestable-fault pruning —
    the experiment behind the paper's "raises the fault coverage by ~13%"
    claim. *)

type program_result = {
  pname : string;
  cycles : int;
  newly_detected : int;
}

type summary = {
  programs : program_result list;
  total_faults : int;
  detected : int;
  raw_coverage : float;  (** DT / all faults *)
  pruned_coverage : float;  (** DT / (all − undetectable) *)
  undetectable : int;
}

val grade :
  ?jobs:int ->
  ?trace:Olfu_obs.Trace.sink ->
  Soc.config ->
  Olfu_netlist.Netlist.t ->
  Flist.t ->
  Programs.t list ->
  summary
(** Runs every program (each from reset), marking detections in the fault
    list.  Coverage figures are computed from the final list state, so
    pre-classifying OLFU faults before calling this yields the
    after-pruning figure.  [jobs] is passed to {!Olfu_fsim.Seq_fsim.run}
    (identical results for any value).  A recording [trace] attributes
    each program's good-machine recording to a ["testbench"] engine span
    and its grading to the simulator's ["fsim"] span. *)

val pp_summary : Format.formatter -> summary -> unit

open Olfu_netlist
open Olfu_fault

(** The unified safe-fault classifier.

    One run produces the whole safety story of a mission configuration:
    {ol
    {- the identification flow ({!Olfu.Flow.run}) assigns the structural
       and conflict verdicts exactly as Table I does;}
    {- the mission machine is re-analyzed with its ternary fixpoint
       strengthened by the software-proven constants
       ({!Olfu_absint.Absint.activation_facts}); every fault that proof
       newly closes is reclassified {!Olfu_fault.Status.Software}
       — safe {e relative to the analysed program set} (arXiv
       2009.11621's "new categories of safe faults");}
    {- the on-line machine (scan held functional) is re-analyzed with
       induction-proved state invariants ({!Olfu_invar}); every fault
       those certificates newly close is reclassified
       {!Olfu_fault.Status.Invariant} — safe relative to the proved
       reachable state over-approximation;}
    {- every flip-flop of a deterministic sample gets a transient
       verdict from the {!Seu} bounded model check, its pre-upset state
       constrained by the same proved invariants.}}

    The taxonomy is a partition by construction — classes are read off
    the final fault-list statuses — and the report carries an explicit
    [consistency] audit: the structural/conflict populations must be
    untouched by the software pass, no detected or previously classified
    fault may be rewritten, and the class counts must sum to the
    universe. *)

type config = {
  rc : Olfu.Run_config.t;  (** ff_mode / jobs / implic / trace *)
  window : int;  (** SEU latching window, cycles *)
  seu_limit : int;  (** flop sample size; [<= 0] checks every flop *)
  invariants : bool;
      (** run the {!Olfu_invar} engine and the invariant-safe pass
          (default [true]) *)
}

val default : config
(** {!Olfu.Run_config.default}, window 4, 64 flops, invariants on. *)

type report = {
  universe : int;
  flow : Olfu.Flow.report;  (** the underlying Table-I run *)
  classes : Taxonomy.safe_class array;  (** per fault index *)
  counts : (Taxonomy.safe_class * int) list;  (** partition sizes *)
  software_safe : int;  (** faults newly proved by the software pass *)
  software_by : (Status.undetectable * int) list;
      (** evidence behind the software-safe class: which engine closed
          the fault under the software assumptions (UT/UB/UC) *)
  assume_nodes : int;  (** resolved software assumptions on the machine *)
  facts : Olfu_absint.Absint.activation_facts;
  invariant_safe : int;
      (** faults newly proved by the invariant-strengthened pass *)
  invariant_by : (Status.undetectable * int) list;
      (** evidence behind the invariant-safe class (UT/UB/UC under the
          proved invariants) *)
  invariants : Olfu_invar.Invar.report option;
      (** the mine/filter/prove report ([None] when [config.invariants]
          is off) *)
  seu : Seu.report;
  bmc_netlist : Netlist.t;
      (** the machine the SEU axis was checked on (mission netlist with
          the scan interface held functional) — for external replay *)
  observable : int -> bool;  (** field-observable outputs of that machine *)
  consistency : string list;  (** violations; empty means consistent *)
  seconds : float;
}

val bmc_machine : Netlist.t -> Netlist.t
(** The on-line machine bounded model checks (and the invariant engine)
    run on: the mission netlist with the scan interface held functional
    ([scan_en] / [scan_in0] tied to 0 when present).  Only input kinds
    change, so node ids are stable — facts proved on this machine apply
    to the same ids of the mission netlist under the on-line
    assumption. *)

val run :
  ?config:config ->
  facts:Olfu_absint.Absint.activation_facts ->
  Netlist.t ->
  Olfu.Mission.t ->
  report
(** Classify the netlist under the given mission.  [facts] comes from
    {!Olfu_absint.Absint.activation_facts} over the analysed program
    set; with no resolvable facts the software pass is skipped (zero
    software-safe faults, never a claim).

    Each of the two safe-fault passes is one {!Olfu.Flow.step} over a
    {!Olfu.Flow.circuit} whose ternary fixpoint carries the assumptions.
    A recording trace (via [config.rc.trace]) gets the flow's spans plus
    the passes' ["Software safe"] and ["Invariant safe"] step spans, the
    {!Olfu_invar.Invar.run} and {!Seu.run} spans/counters, and the
    ["safety.software_safe"] / ["safety.invariant_safe"] /
    ["safety.unclassified"] counters. *)

val consistent : report -> bool

val pp : Format.formatter -> report -> unit
(** Human rendering: class table, software evidence split, SEU counts,
    consistency verdict. *)

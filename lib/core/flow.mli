open Olfu_netlist
open Olfu_fault

(** The paper's identification flow (Sec. 3–4):

    {ol
    {- {b Scan}: trace the chains and prune SI/SE/scan-path faults
       directly (Sec. 3.1);}
    {- {b Debug control}: tie the mission-constant debug inputs and let the
       structural engine classify (Sec. 3.2.1);}
    {- {b Debug observation}: additionally stop observing the debug output
       buses (Sec. 3.2.2);}
    {- {b Memory map}: tie the address registers/ports whose bits the
       populated memory ranges force, and classify again (Sec. 3.3).}}

    A {b Baseline} step between 1 and 2 classifies faults untestable in
    the un-manipulated mission circuit — mostly the reset network, which
    Sec. 2 of the paper names as inaccessible ("it may be impossible ...
    to activate the reset signal") but does not count in Table I.  Keeping
    it separate leaves the three paper rows comparable.

    Each step only touches faults not yet classified, so the per-source
    counts partition the on-line functionally untestable set the way
    Table I does. *)

type source = Scan | Baseline | Debug_control | Debug_observe | Memory

val source_name : source -> string

type step_report = {
  source : source;
  classified : int;
  by_verdict : (Olfu_fault.Status.undetectable * int) list;
      (** the step's newly classified faults split by verdict class
          (UT/UB/UC/...), attributing each proof to the engine that made
          it; only non-zero classes appear *)
  seconds : float;
}

type report = {
  universe : int;  (** total stuck-at faults of the original netlist *)
  collapsed : int;
      (** prime faults: equivalence classes of the universe under
          {!Olfu_fault.Collapse} — the count an ATPG tool reports; the
          paper's Table I counts the uncollapsed universe *)
  dominance_pruned : int;
      (** dominator faults a target list can additionally drop
          ({!Olfu_fault.Collapse.dominance_prune} on a scratch copy —
          the flow's own classification is never touched) *)
  steps : step_report list;
  prep : (string * float) list;
      (** named work attributed to no step: fault-universe construction,
          the netlist manipulations, the ternary fixpoint of the tied
          netlist (shared by the two Debug steps), the mission
          observability computation, and the per-step verdict tallies —
          step seconds plus prep seconds account for the flow's wall
          time (the [bench -- obs] gate checks within 5%) *)
  total_olfu : int;
  fraction : float;  (** [total_olfu / universe] *)
  flist : Flist.t;  (** final classification over the original universe *)
  closed_by : Bytes.t;
      (** one byte per fault of [flist]: the position in [steps] of the
          step that classified it, or 255 for a fault no step classified *)
  mission_netlist : Netlist.t;
      (** fully manipulated circuit, equal to {!mission_netlist} of the
          flow's inputs *)
  seconds : float;
}

val run : Run_config.t -> Netlist.t -> Mission.t -> report
(** [cfg.ff_mode] selects the ternary reading ([Steady_state] is the
    paper's mission default); [cfg.jobs] parallelizes each
    classification step over a domain pool (results are identical for
    any value); [cfg.implic] enables the static implication engine's UC
    verdicts inside every classification step (disabling it reproduces
    the pure UT+UB flow).  The scan step runs first, then the four
    engine steps: {!Baseline} (the netlist as is), {!Debug_control}
    (debug controls tied), {!Debug_observe} (the same tied netlist, debug
    buses and scan-outs unobserved) and {!Memory} (forced address
    registers and ports tied on top: the circuit of {!mission_netlist}).
    The two Debug steps share one ternary fixpoint, and {!Debug_observe}
    asks no conflict question: its implication database would be its
    predecessor's, which already asked every fault still open.

    A recording [cfg.trace] gets one ["step"]-category span per step
    (named by {!source_name}) with the engine attribution
    (["graph"] / ["ternary"] / ["observe"] / ["implic"] / ["classify"]
    spans) nested inside. *)

val mission_netlist : Netlist.t -> Mission.t -> Netlist.t
(** The fully manipulated (on-line mission) circuit alone: the
    mission's tie-controls script, then the address registers and ports
    its memory map forces.  {!run} builds its {!Memory} netlist with the
    same code, so this equals a {!run}'s [mission_netlist], digest for
    digest, without building a fault universe or classifying a fault. *)

val manifest_steps : report -> Olfu_obs.Manifest.step list
(** The report's steps as manifest entries (name, seconds, classified,
    verdict codes). *)

(** {1 One classification step}

    The step runner of {!run}, shared with the safe-fault passes of
    [Olfu_safety.Classify]. *)

type circuit = {
  netlist : Netlist.t;
  consts : Olfu_atpg.Ternary.t option;
      (** a ternary fixpoint of [netlist] shared between steps *)
  observable : (int -> bool) option;  (** [None]: every output observed *)
  edges : (int * int) list;
      (** proved implications for {!Olfu_atpg.Implic.build}'s
          [extra_edges]; [[]] in the paper's steps *)
}
(** What the structural engine reads for one step. *)

val step :
  Run_config.t ->
  string ->
  circuit ->
  Flist.t ->
  int * (Olfu_fault.Status.undetectable * int) list
(** [step cfg name c fl] classifies the still-open faults of [fl]
    against [c] inside a ["step"] span called [name]: the count of newly
    classified faults and their split by verdict class (non-zero classes
    only, in {!Olfu_fault.Status.undetectable} order).  The sweeps that
    mark the open faults and attribute the newly classified ones run
    outside the span, as ["tally"] engine records. *)

val paper_total : report -> int
(** Sum over the paper's three sources (scan + debug + memory), excluding
    the {!Baseline} extension row. *)

val step_count : report -> source -> int
val pp_table1 : ?paper:bool -> Format.formatter -> report -> unit
(** Table I: rows Scan / Debug / Memory / TOTAL with counts and
    percentages; [paper] adds the paper's reference numbers alongside. *)

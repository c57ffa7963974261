open Olfu_netlist
open Olfu_fault

(** Structural untestability classification — the Tetramax stand-in.

    Combines {!Ternary} constant propagation and {!Observe} X-path
    observability to classify each stuck-at fault:
    {ul
    {- UT ("untestable due to tied value"): the fault site is held at the
       stuck value, so the fault can never be excited;}
    {- UB (blocked): the fault effect cannot reach any observation point;}
    {- UC (conflict): the static implication engine ({!Implic}) proves
       that the assignments every test of the fault requires — excitation
       value, non-controlling side inputs of the immediate gate, side
       inputs of the stem's dominators — contradict each other, or that
       their implied closure blocks every propagation path;}
    {- flip-flop clock faults are untestable when the register provably
       never changes (Fig. 5 of the paper).}}

    Verdicts are sound: a fault classified here has {e no} test in the
    analyzed configuration.  Faults left unclassified may still be
    functionally untestable (that is what PODEM / fault simulation refine). *)

type walker
(** Per-domain walk state (cone scratch, affected marks, verdict memo).
    {!classify} gives each worker its own. *)

type t = {
  netlist : Netlist.t;
  consts : Ternary.t;
  obs : Observe.t;
  observable_output : int -> bool;
  stem_cache : (int, bool) Hashtbl.t;
      (** stem-observability memo of the analysis' own walker; only the
          calling domain of the sequential API touches it *)
  implic : Implic.t option;
      (** the static implication database behind UC verdicts (shared,
          immutable; [None] when the engine was disabled) *)
  walker : walker;
}

val analyze :
  ?ff_mode:Ternary.ff_mode ->
  ?observable_output:(int -> bool) ->
  ?consts:Ternary.t ->
  ?implic:bool ->
  ?learn_depth:int ->
  ?learn_budget:int ->
  ?extra_edges:(int * int) list ->
  ?trace:Olfu_obs.Trace.sink ->
  Netlist.t ->
  t
(** [consts], when given, must be the result of [Ternary.run] on the same
    netlist; it skips the constant-propagation fixpoint (the flow runs
    several analyses over one tied netlist that differ only in
    observability).  [ff_mode] is ignored when [consts] is supplied.
    [implic] (default [true]) builds the static implication database so
    {!fault_verdict} can return UC verdicts; [learn_depth] /
    [learn_budget] / [extra_edges] are passed to {!Implic.build}
    ([extra_edges] carries externally proved implications — in practice
    {!Olfu_invar} state invariants; every verdict of the resulting
    analysis is then conditional on those facts).

    A recording [trace] attributes each phase to an ["engine"]-category
    span: ["graph"] (analysis construction), ["ternary"] (skipped when
    [consts] is supplied), ["observe"], ["implic"]. *)

val fault_verdict : t -> Fault.t -> Status.t option
(** [Some (Undetectable _)] when provably untestable, [None] otherwise. *)

val implication_db : t -> Implic.t option
(** The database built by {!analyze} (for stats reporting). *)

val classify : ?jobs:int -> ?trace:Olfu_obs.Trace.sink -> t -> Flist.t -> int
(** Applies {!fault_verdict} to every [Not_analyzed] / [Not_detected]
    fault of the list; returns the number of faults newly classified
    undetectable.  [jobs] (default {!Olfu_pool.Pool.default_jobs}) shards
    the fault list across a domain pool with per-worker walkers; verdicts
    are pure per fault and indices are owned by single workers, so the
    result is identical for any [jobs].  Faults already classified are
    never asked again, so a second call on the same list with an
    analysis of the same netlist strengthened by assumed constants or
    proved invariants counts exactly the faults the first left open and
    the strengthened one proves — the software-safe or invariant
    delta.

    A recording [trace] gets one ["engine"]-category ["classify"] span
    and the jobs-invariant counters ["classify.faults"],
    ["classify.examined"] and ["classify.classified"]. *)

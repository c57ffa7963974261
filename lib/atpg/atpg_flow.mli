open Olfu_netlist
open Olfu_fault

(** Complete test-generation flow on the full-access (scan) view: random
    patterns with fault dropping until they stop paying off, then targeted
    PODEM for the survivors.  This is the classic two-phase ATPG a
    commercial tool runs after the untestable faults are pruned — the
    "reducing the test program generation effort" payoff the paper
    motivates.  A final SAT phase settles the faults branch-and-bound
    gives up on. *)

type config = {
  seed : int;  (** RNG seed for random patterns and X fill *)
  backtrack_limit : int;  (** PODEM backtrack budget per target *)
  trace : Olfu_obs.Trace.sink;
      (** observability sink; {!Olfu_obs.Trace.null} records nothing *)
}

val default : config
(** [seed = 1], [backtrack_limit = 2000], null trace.  Override with
    record update syntax: [{ Atpg_flow.default with seed = 5 }]. *)

type result = {
  patterns : Olfu_fsim.Comb_fsim.pattern list;  (** final compacted test set *)
  detected : int;
  static_pruned : int;
      (** classified untestable by the static engines (ternary constants,
          X-path blocking, implication conflicts) before any search ran *)
  proved_untestable : int;  (** search-exhausted: structurally redundant *)
  aborted : int;  (** unresolved after every phase *)
  random_patterns : int;  (** how many of the patterns came from phase 1 *)
  sat_settled : int;  (** PODEM aborts settled by the SAT prover *)
  seconds : float;
}

val run : config -> Netlist.t -> Flist.t -> result
(** A static phase 0 lets {!Untestable} (ternary constants, X-path
    blocking, and the {!Implic} conflict engine, under the per-frame
    [Cut] ff_mode matching the combinational pattern model) prune
    provably untestable faults before any search.  Then three search
    phases: random patterns with fault dropping, targeted PODEM, and the
    complete SAT prover (50,000 conflicts per target) for whatever PODEM
    aborted on.  Every phase observes every output and every flip-flop
    capture (full scan access).  Updates the fault list in place
    ([Detected] / [Undetectable _] / [Atpg_untestable]); faults already
    classified are skipped, so running the OLFU flow first shrinks the
    ATPG effort (see the bench).  Phase 1 stops after a batch of 64
    patterns detects nothing new, or after 32 batches.

    With a recording [config.trace], each phase gets a ["step"]-category
    span and engine time is attributed to ["scoap"], ["ternary"] /
    ["observe"] / ["implic"] / ["classify"] (phase 0), ["fsim"],
    ["podem"] and ["sat"] spans (PODEM and SAT per-target times are
    accumulated into one span each); phase 0 also counts
    {!Untestable.classify}'s ["classify.*"] counters. *)

val pp : Format.formatter -> result -> unit

val compact :
  Netlist.t ->
  Olfu_fsim.Comb_fsim.pattern list ->
  Olfu_fsim.Comb_fsim.pattern list
(** Classic reverse-order compaction: replay the patterns newest-first
    with fault dropping over a fresh universe and keep only the ones that
    still detect something.  Coverage is preserved exactly. *)

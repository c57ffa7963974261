open Olfu_logic
open Olfu_netlist
open Olfu_fault

(** Parallel-pattern single-fault (PPSFP) combinational fault simulation:
    64 patterns per gate evaluation, one fault at a time, with fault
    dropping, on the word-level core {!Olfu_sim.Lanes}.

    Patterns assign primary inputs {e and} flip-flop outputs (full-access
    view); detection is observed on primary outputs and flip-flop capture
    values, matching {!Olfu_atpg.Podem}'s model.  A capture is computed
    from the flop's operands: its own stem fault and clock pin play no
    part, and a tie's stem fault never acts. *)

type pattern = Logic4.t array
(** One value per entry of [Netlist.inputs nl] followed by one per entry
    of [Netlist.seq_nodes nl]. *)

val random_patterns : ?seed:int -> Netlist.t -> int -> pattern array

type report = {
  patterns : int;
  detected : int;  (** faults newly marked [Detected] *)
  possibly : int;  (** faults newly marked [Possibly_detected] *)
}

(** Per-fault evaluation strategy.  Both produce bit-identical fault
    statuses (a property-tested invariant); [Cone] is the production
    engine, [Full_settle] the reference and benchmark baseline. *)
type engine =
  | Cone
      (** settle the good circuit once per 64-pattern batch, then per
          fault re-evaluate only the levelized fanout cone of the fault
          site, up to the last position a live difference can reach *)
  | Full_settle  (** re-settle the entire netlist for every fault *)

val run :
  ?observe_captures:bool ->
  ?observable_output:(int -> bool) ->
  ?engine:engine ->
  ?jobs:int ->
  ?trace:Olfu_obs.Trace.sink ->
  Netlist.t ->
  Flist.t ->
  pattern array ->
  report
(** Marks fault statuses in place.  Faults already [Detected] or
    undetectable are skipped; clock-pin faults are left untouched (they
    have no combinational meaning).

    [engine] defaults to [Cone].  [jobs] (default {!Olfu_pool.Pool.
    default_jobs}, i.e. [OLFU_JOBS] or 1) shards the fault list across a
    domain pool per batch; each fault index is owned by exactly one
    worker, so statuses and counts are bit-identical to a sequential
    run regardless of [jobs].

    A recording [trace] gets one ["engine"]-category ["fsim"] span for
    the whole run and the jobs-invariant counters ["fsim.patterns"],
    ["fsim.batches"], ["fsim.fault_evals"], ["fsim.detected"] and
    ["fsim.possibly"] (fault dropping is batch-synchronous, so the
    evaluation count does not depend on scheduling). *)

val detects : Netlist.t -> Fault.t -> pattern -> bool
(** Single-pattern single-fault oracle, observing every output and
    flip-flop capture (slow; used by tests). *)

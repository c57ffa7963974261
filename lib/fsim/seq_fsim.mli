open Olfu_logic
open Olfu_netlist
open Olfu_fault

(** Fault-parallel sequential fault simulation.

    Lanes carry {e faults}, not patterns: lane 0 simulates the good
    circuit, lanes 1–63 each carry one faulty circuit over the same
    stimulus, so one pass grades 63 faults.  This is the engine used to
    grade SBST programs: detection is strobed on selected outputs (in the
    paper, only the system-bus values written to memory are observed).

    Both entry points run on the word-level core {!Olfu_sim.Lanes}: a
    batch writes its faults' masks into the core, replays the stimulus
    and clears exactly those masks, so nothing is allocated per gate or
    per cycle.

    Fault semantics: stem and branch stuck-ats are forced every cycle;
    clock-pin faults freeze the flip-flop at its pre-fault (initial)
    value. *)

type step = {
  assign : (int * Logic4.t) list;
      (** input-node (or [Tiex]) assignments applied from this cycle on *)
  strobe : bool;  (** compare observed outputs at the end of this cycle *)
}

type stimulus = step array

type report = {
  cycles : int;
  faults_simulated : int;
  detected : int;
  possibly : int;
}

val run :
  ?init:Logic4.t ->
  ?observe:(int -> bool) ->
  ?jobs:int ->
  ?trace:Olfu_obs.Trace.sink ->
  Netlist.t ->
  Flist.t ->
  stimulus ->
  report
(** Simulates every fault that is not already detected or undetectable and
    updates the fault list in place.  [observe] selects strobed [Output]
    markers (default: all).  [init] is the power-up flip-flop value
    (default X).  [jobs] (default {!Olfu_pool.Pool.default_jobs}) shards
    the 63-fault batches across a domain pool, one simulation core per
    worker; batches own disjoint fault indices, so results are identical
    for any [jobs].

    A recording [trace] gets one ["engine"]-category ["fsim"] span and
    the jobs-invariant counters ["fsim.seq_batches"], ["fsim.cycles"],
    ["fsim.fault_evals"], ["fsim.detected"], ["fsim.possibly"]. *)

(** {1 Transient (SEU) replay}

    The same 64-lane engine with lanes carrying {e bit-flips} instead of
    stuck-ats: lane 0 runs the undisturbed machine, each other lane
    starts from the same state with exactly one flip-flop's initial value
    inverted and is never forced again — the concrete counterpart of the
    {!Olfu_safety} bounded-model-checking classification, used to
    cross-check [Seu_masked] / [Seu_protected] verdicts on real
    windows. *)

type seu_obs = {
  seu_ff : int;  (** the flipped sequential node *)
  seu_diverged : bool;
      (** some functional (non-alarm) observed output took a binary value
          different from lane 0 at a strobed cycle *)
  seu_alarmed : bool;  (** same, over the alarm outputs *)
}

val run_seu :
  ?init:Olfu_logic.Logic4.t ->
  ?observe:(int -> bool) ->
  ?alarm:(int -> bool) ->
  Netlist.t ->
  ffs:int array ->
  stimulus ->
  seu_obs array
(** [run_seu nl ~ffs stimulus] replays the stimulus once per 63-flip
    batch and reports, per flipped flop, whether any strobed cycle showed
    a binary divergence on a functional output ([observe] minus [alarm])
    or an alarm output ([observe] and [alarm]).  [init] (default [L0]) is
    the pre-flip value of every flop; the flipped lane starts at its
    negation.  Raises [Invalid_argument] if some [ffs] entry is not a
    sequential node. *)

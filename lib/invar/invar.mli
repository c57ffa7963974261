open Olfu_logic
open Olfu_netlist

(** Sequential state-invariant engine: mine – filter – prove.

    The paper's untestability arguments all reduce to one move — prove a
    value combination functionally unreachable, then every fault that
    needs it is safe.  This module mines candidate invariants over the
    flip-flop state of a netlist, filters them with 64-lane random
    sequential simulation, and proves the survivors by strengthening-set
    k-induction (Houdini), unrolling the machine through the
    {!Olfu_atpg.Bmc} mission frame.

    {b Soundness rule}: only {e proved} invariants — those carrying an
    induction {!certificate} — are ever exported to downstream consumers
    ({!assume_facts}, {!edges}, {!state_literals}).
    Sim-surviving but unproved candidates are reported for inspection and
    nothing else.

    A proved invariant holds in {e every} state reachable from reset
    (resettable flops at 0, plain flops arbitrary, reset inactive) of the
    netlist it was proved on.  Mission constants are netlist ties: prove
    on the netlist with its mission inputs tied (as
    {!Olfu_safety.Classify.bmc_machine} ties the scan interface) and the
    invariants hold under the mission.  They are therefore valid for any
    analysis of the mission machine: extra implication edges for
    {!Olfu_atpg.Implic}, assumed constants for {!Olfu_atpg.Ternary}, and
    initial-state constraints for bounded model checks whose cycle-0
    state stands for "any reachable state". *)

(** A candidate state predicate.  All node ids are flip-flop outputs of
    the analyzed netlist; [Range] groups are least-significant bit
    first. *)
type candidate =
  | Const of { ff : int; value : bool }  (** the flop never leaves [value] *)
  | Implies of { a : int; av : bool; b : int; bv : bool }
      (** whenever [a = av], also [b = bv] *)
  | Mutex of int * int  (** never both 1 in the same cycle *)
  | At_most_one of int array  (** at most one member is 1 (one-hot or idle) *)
  | Range of { group : int array; reach : int list }
      (** the register's value is always one of [reach] (sorted) *)

type certificate = {
  cert_k : int;  (** induction depth the proof used *)
  cert_rounds : int;
      (** Houdini strengthening rounds until the set was inductive *)
}

type invariant = { form : candidate; cert : certificate }

type report = {
  total_ffs : int;
  mined : candidate list;  (** everything the miner proposed *)
  killed : candidate list;  (** violated by the random-simulation filter *)
  unproved : candidate list;
      (** survived simulation but not the induction proof — {e never}
          exported *)
  proved : invariant list;
  k : int;
  seconds : float;
}

val class_name : candidate -> string
(** ["const"], ["implies"], ["mutex"], ["at-most-one"] or ["range"]. *)

val is_const : candidate -> bool

val pp_candidate : Netlist.t -> Format.formatter -> candidate -> unit
val pp : Netlist.t -> Format.formatter -> report -> unit

val count_by_class : report -> (string * int * int) list
(** Per class name: (class, proved, unproved-or-killed). *)

val mine : ?seed:int -> Netlist.t -> candidate list
(** Propose at most 512 candidates from a 96-cycle random 64-lane
    simulation on the word-level core {!Olfu_sim.Lanes} (every input and
    [Tiex] gets a fresh random word per cycle, drawn in node-id order):
    per-flop constants, per-register value sets and at-most-one groups
    (registers are discovered by clustering flop names of the form
    [base[i]]), and mutex / implication literals over a bounded pairing
    set of one-bit and narrow-register flops.  Every candidate holds on
    the mining trace by construction.  Inputs with the
    {!Netlist.Reset} role are held inactive (1); tied inputs are tie
    cells, not inputs, and stay at their rail.  Resettable flops start
    at 0, plain flops random.  Deterministic in [seed]. *)

val filter : Netlist.t -> candidate list -> candidate list * candidate list
(** [(survivors, killed)] after a fresh 256-cycle random simulation
    under a fixed seed other than {!mine}'s default: cheap refutation
    so only plausible candidates reach the prover. *)

val prove :
  ?k:int ->
  ?jobs:int ->
  ?trace:Olfu_obs.Trace.sink ->
  ?sliced:bool ->
  Netlist.t ->
  candidate list ->
  invariant list * candidate list
(** [(proved, failed)] by strengthening-set k-induction (default [k] 1;
    [Invalid_argument] when [k < 1]): base case from the reset state
    (plain flops unconstrained), then Houdini rounds — every survivor
    is assumed at cycles [0..k-1], each is checked at cycle [k], and all
    failures of a round are removed together until the set is
    inductive.  The greatest inductive subset is unique, so the result
    is independent of [jobs] (each query runs on a fresh solver; a
    solver [Unknown] after 100,000 conflicts counts as a failure —
    sound, never unsound).  Sharded over {!Olfu_pool.Pool} with one
    candidate per chunk.

    [sliced] (default [true]) runs every query (when [k = 1]) on the
    candidate's certified cone-of-influence component machine
    ({!Olfu_slice.Slice.backward} over the hard-severed dependency
    graph): candidates whose support closures share a flop are grouped,
    one reduced machine is built per group, and survivor assumptions
    are filtered to the group.  Survivors of other groups constrain
    disjoint, jointly satisfiable variables, so the proved set, its
    certificates and the round count are bit-identical to the unsliced
    run.  With [k >= 2] the full machine is always used.  Slicing is the
    default because it pays: at [k = 1] on a 2-vCPU host, sliced proving
    took 0.03–0.24 s against 1.7–2.3 s on tcore16 and 0.4–1.7 s against
    4.6–6.4 s on tcore32. *)

val bounded_check : ?cycles:int -> Netlist.t -> candidate -> bool
(** Independent bounded oracle: SAT-check that no state within [cycles]
    (default 8; [Invalid_argument] when below 1) of the reset state
    violates the candidate.  [true] means
    no violation exists in the window (a solver [Unknown] also returns
    [false]).  Used by the bench gates to cross-check induction proofs
    with a proof mechanism that shares none of the induction
    structure. *)

val run :
  ?k:int ->
  ?jobs:int ->
  ?trace:Olfu_obs.Trace.sink ->
  ?no_prove:bool ->
  Netlist.t ->
  report
(** The full pipeline: {!mine}, {!filter}, then {!prove} at depth [k]
    ([Invalid_argument] when [k < 1]).  [no_prove] stops after the
    simulation filter (every survivor is reported as [unproved];
    nothing is proved).  A recording [trace] gets one
    ["engine"]-category ["invar"] span and the jobs-invariant counters
    ["invar.mined"], ["invar.killed"], ["invar.proved"],
    ["invar.unproved"]. *)

(** {2 Consumption — proved invariants only} *)

val assume_facts : report -> (int * Logic4.t) list
(** Proved constant flops, plus per-bit constants implied by proved
    [Range] invariants whose reachable values all agree on a bit, as a
    sorted, deduplicated [Ternary.run ~assume] / [Implic] constant list. *)

val edges : report -> (int * int) list
(** Proved pairwise facts as {!Olfu_atpg.Implic.lit} implication edges
    [(a, b)] meaning [a -> b] (contrapositives are added by the database
    builder): [Implies] directly, [Mutex] and [At_most_one] as pairwise
    exclusions, [Range] as the bit-pair implications its value set
    forces between non-constant bits. *)

val state_literals :
  Olfu_atpg.Cnf.Builder.t ->
  state_of:(int -> int) ->
  invariant list ->
  int list
(** CNF literals asserting each invariant on one state of an unrolled
    model, where [state_of] maps a flop node to its state literal for
    that cycle.  Used to constrain a BMC initial state to the proved
    reachable over-approximation ({!Olfu_safety.Seu}). *)

val lint_facts : report -> Olfu_lint.Ctx.invariants
(** The proved facts repackaged as the plain-data record the INV-* lint
    rules consume ({!Olfu_lint.Ctx.invariants}): proved constants
    (including {!Range}-derived agreed bits), pairwise mutex facts (from
    {!Mutex} and {!At_most_one}), and the reachable value sets.  Only
    certificate-carrying invariants contribute. *)

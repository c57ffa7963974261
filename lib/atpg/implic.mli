open Olfu_logic
open Olfu_netlist

(** Static implication database — FIRE-style fault-independent
    conflict-untestability proofs.

    For every literal [(net, value)] the database stores the single-literal
    implications that hold in {e any} consistent binary assignment of the
    circuit (any test frame of the full-access combinational model):
    {ul
    {- {e direct} implications read off the gate semantics, strengthened by
       the ternary constants ([AND] output 1 forces every input 1; a side
       input tied to 1 makes an [AND] behave as a buffer of the free one);}
    {- their {e contrapositives} (emitted pairwise, so the breadth-first
       closure is closed under contraposition);}
    {- {e indirect} implications found by bounded recursive learning
       (SOCRATES-style): when a closure forces a gate output to its
       controlled value without justifying it, each candidate justification
       is explored in its own nested closure — at most [learn_depth] levels
       deep, against a global [learn_budget] — and whatever {e every}
       surviving justification implies is learned as a new edge.}}

    A literal whose closure contradicts itself (both values of some net, or
    a value against a binary ternary constant) is {e impossible}: no test
    frame realizes it.  Any stuck-at fault whose excitation requirement is
    an impossible literal, or whose necessary assignments (excitation value,
    immediate-gate side pins, dominator side pins — see {!Untestable}) close
    into a contradiction, is untestable without search.

    Soundness of the contradiction rule: nets driven by [Tiex] (or any
    uncontrollable source) still carry {e some} binary value in a physical
    frame, so requiring one value of such a net is never by itself a
    conflict — only requiring both values, or contradicting a proven
    constant, is.

    Domain safety: a built database is immutable and may be shared across
    domains.  The impossible-literal cache is a shared byte table written
    racily but idempotently (every domain computes the same pure verdict
    under the same fixed query budget).  A {!Scratch.t} is single-owner. *)

type t

type stats = {
  literals : int;  (** two per node *)
  direct_edges : int;  (** gate-semantic edges incl. contrapositives *)
  learned_edges : int;  (** edges added by recursive learning *)
  impossible_learned : int;
      (** literals proved impossible during the build-time learning sweep
          (cached; query-time closures alone may not re-derive them) *)
  learn_depth : int;
  learn_budget : int;
  learn_spent : int;  (** closure-visit credits consumed by learning *)
  build_seconds : float;
}

val build :
  ?learn_depth:int ->
  ?learn_budget:int ->
  ?extra_edges:(int * int) list ->
  consts:Logic4.t array ->
  Netlist.t ->
  t
(** [consts] must be [Ternary.run] values on the same netlist (the
    constants participate in edge strengthening and in the contradiction
    rule, so the database is only valid together with them).
    [learn_depth] (default 2) bounds the recursive-learning case-split
    nesting; 0 disables learning.  [learn_budget] (default 200_000)
    caps the total closure visits the build-time learning sweep may
    spend; the sweep processes literals in node order until exhausted.

    [extra_edges] are caller-supplied implications [(a, b)] over
    {!lit}-encoded literals, added before learning with their
    contrapositives — the hook for externally proved facts such as
    induction-proved state invariants ({!Olfu_invar}).  The caller
    guarantees their soundness for the machine being analysed; the
    database (and every verdict derived from it) is only valid under the
    same assumptions. *)

val stats : t -> stats
val netlist : t -> Netlist.t

(** Per-domain query scratch (generation-stamped literal marks and the
    closure worklist).  Never share one between domains. *)
module Scratch : sig
  type db := t
  type t

  val create : db -> t
end

val lit : int -> bool -> int
(** [lit net v] — the literal index [2*net + (if v then 1 else 0)]. *)

val lit_value : int -> bool

val assume : ?budget:int -> t -> Scratch.t -> int list -> bool
(** Start a fresh closure from the given literals and saturate it over
    the implication graph.  Returns [false] on contradiction — the
    assumption set cannot hold in any test frame.  [budget] (default
    4096) caps the visited literals; on exhaustion the closure is left
    partial, which weakens but never unsounds the marks.  The marks stay
    valid in the scratch until the next [assume]. *)

val extend : t -> Scratch.t -> int list -> bool
(** Add further literals to the current closure (same generation,
    remaining budget) and re-saturate.  Returns [false] on
    contradiction. *)

val set_budget : Scratch.t -> int -> unit
(** Reset the remaining visit budget of the current closure (floored at
    0) without disturbing its marks. *)

type checkpoint
(** A snapshot of a drained closure (generation, visited length,
    remaining budget, contradiction flag).  Valid until the next
    [assume] on the same scratch. *)

val checkpoint : Scratch.t -> checkpoint

val rollback : Scratch.t -> checkpoint -> unit
(** Restore the closure to its checkpointed state: literals marked since
    are unmarked, the worklist truncated, and the remaining budget
    restored to its checkpointed value (so repeated extend/rollback
    cycles from one checkpoint all see the same budget — the basis of
    per-stem closure reuse in {!Untestable}).  Exact, because a drained
    closure is complete up to its budget — everything derivable from the
    pre-checkpoint seeds is already inside the checkpointed prefix.
    Raises [Invalid_argument] on a checkpoint from an older
    generation. *)

val implied : Scratch.t -> int -> Logic4.t
(** After {!assume}/{!extend}: the value the closure implies for a net
    ([X] when unconstrained).  Only meaningful when the last
    [assume]/[extend] returned [true]. *)

val impossible : t -> Scratch.t -> int -> bool -> bool
(** [impossible t s net v]: the literal provably holds in no test frame.
    Memoized in the shared byte cache; consults build-time learning
    results.  Sound, not complete (a budget-exhausted query answers
    [false]).  An answer [false] means {!assume} on the default budget
    found no contradiction from that one literal; {!assume} from it on
    any smaller budget marks a prefix of the same breadth-first closure,
    so it answers [true]. *)

val conflict_nets : ?limit:int -> t -> Scratch.t -> (int * bool) list
(** Nets that the ternary constants leave unknown but that still have an
    impossible value — the genuine conflict sets (a tied net's trivial
    opposite-value impossibility is excluded).  Scans every net, capped
    at [limit] (default [max_int]) findings, in node order. *)

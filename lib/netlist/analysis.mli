(** Memoized per-netlist structural analysis shared by the simulation and
    classification engines.

    One [Analysis.t] per netlist caches what every fault-oriented engine
    recomputes otherwise: the source-node vector (inputs followed by
    flip-flops), topological positions, and {e fanout-cone schedules} — for
    a stem [d], the topologically ordered array of combinational nodes its
    value can reach, with per-node last-sink positions enabling early exit
    when an event frontier dies out.  Cone schedules are memoized under a
    global entry budget (large netlists fall back to per-call builds using
    the caller's scratch, so memory stays bounded).

    Domain safety: an [Analysis.t] may be shared by concurrent domains; the
    cone memo is mutex-protected.  A {!Scratch.t} is single-owner state —
    create one per worker domain. *)

type t

val get : Netlist.t -> t
(** Memoized accessor (weak per-netlist cache, keyed by physical
    identity): repeated calls on the same netlist return the same
    analysis, from any domain. *)

type cache = ..
(** Extension point for downstream engines that want a derived structure
    memoized per netlist without a dependency from this library onto
    theirs (the slice graph of [Olfu_slice] is the canonical user): the
    engine declares [type Analysis.cache += My_thing of t'] and stores
    one value per analysis.  No [Obj.magic]: the extensible variant is
    the type-safe version of the same trick. *)

val find_cache : t -> (cache -> 'a option) -> 'a option
(** First cached entry the projection accepts, under the analysis lock.
    Entries are kept in publication order, so concurrent builders race
    benignly: the first published value of a constructor is the one
    every later call sees. *)

val add_cache : t -> cache -> unit
(** Appends a cache entry (never replaces — see {!find_cache}). *)

val digest : t -> string
(** Hex content digest of the netlist: cell kinds, fanin wiring, net
    names and role assignments in node order.  Netlists with equal
    digests are indistinguishable to every engine, so the digest is a
    sound memo key for derived artifacts — the analysis service keys its
    flow-report/implication/fixpoint caches on it.  Computed once per
    analysis (lazily, under the analysis lock). *)

val digest_of : Netlist.t -> string
(** [digest (get nl)]. *)

val netlist : t -> Netlist.t

val sources : t -> int array
(** Primary inputs followed by sequential cells — the pattern-assignment
    order of the fault simulators.  Computed once (hoists the
    [Array.append] out of hot loops). *)

val topo_pos : t -> int array
(** Topological evaluation position per node ([-1] for source nodes,
    which precede the combinational schedule).  A node [f] with
    [topo_pos.(f) < topo_pos.(d)] can never lie inside the fanout cone
    of stem [d] — the cheap membership pre-filter of the conflict
    engine. *)

(** Fanout-cone schedule of one stem. *)
type cone = {
  sched : int array;
      (** combinational (and output-marker) nodes strictly downstream of
          the stem, in topological evaluation order *)
  last_sink : int array;
      (** [last_sink.(k)]: greatest schedule position with [sched.(k)] as
          a fanin, [-1] when nothing in the schedule consumes it *)
  stem_last : int;
      (** greatest schedule position with the stem itself as a fanin *)
  outs : int array;
      (** [Output]-marker nodes in the cone (including the stem when the
          stem is an output marker) *)
  seqs : int array;
      (** sequential nodes with at least one fanin in the cone or driven
          by the stem — the capture observation points of the cone *)
}

(** Per-worker mutable scratch: the cone builder's visit marks and
    one-entry cone and dominator-chain caches.  Never share a scratch
    between domains. *)
module Scratch : sig
  type analysis := t
  type t

  val create : analysis -> t
end

val cone : t -> Scratch.t -> int -> cone
(** [cone t scratch d]: the fanout-cone schedule of stem [d], from the
    scratch's one-entry cache, the shared memo, or built on the fly
    (memoized while the entry budget lasts). *)

val order_by_cost : t -> site:(int -> int) -> int -> int array
(** [order_by_cost t ~site n]: a permutation of [0, n) sorted by
    descending fanout-cone cost estimate of [site k], ascending index on
    ties.  The estimate of a node is [1 +] the summed estimates of its
    combinational fanout sinks (sequential sinks count 1), saturated at
    [2^20] and memoized on the analysis; reconvergent fanout
    double-counts, which only exaggerates genuinely large cones.  The
    stable tiebreak keeps same-site runs contiguous (preserving the
    engines' one-entry cone/dominator caches); heavy-first draw puts the
    big cones in the pool's large early claims, so the shrinking tail
    claims balance skewed cone sizes instead of serializing them behind
    one worker.  Linear in [n]: the saturation bounds the key, so a
    stable radix sort gives the comparison sort's permutation. *)

val stem_dominators : t -> Scratch.t -> int -> int array
(** [stem_dominators t scratch d]: the cone nodes every path from stem
    [d] to any structural observation exit (output marker or flip-flop
    capture pin) passes through — the unique-sensitization gates of the
    stem — in topological order, stem excluded.  A fault effect on [d]
    can only be observed by propagating through every one of them, so
    their side inputs are {e necessary} assignments for any test.
    Purely structural (observation exits are not filtered by mission
    observability, which under-approximates the dominator set and keeps
    the necessity reading sound).  Extracted as a chain walk over a
    global immediate post-dominator tree built once per analysis, so the
    per-stem cost is proportional to the chain length. *)

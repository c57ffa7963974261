open Olfu_logic
open Olfu_netlist

(** Shared analysis context for the lint rule registry.

    Every expensive whole-netlist analysis a rule may want (ternary
    implication, SCOAP, X-path observability, dead-cone reachability,
    scan-path tracing) is computed lazily and memoized here, so a run of
    the full registry performs each analysis at most once no matter how
    many rules consume it.

    The scan chains are {!Olfu_manip.Scan_trace.trace}'s, whose hops
    record the buffers/inverters crossed on the shift path; they feed the
    polarity, census and loop rules. *)

(** Tunable limits consumed by the structural rules. *)
type thresholds = {
  max_fanout : int;  (** STRUCT-001: data-fanout ceiling per net *)
  max_depth : int;  (** STRUCT-002: combinational depth ceiling *)
  chain_imbalance : int;
      (** SCAN-007: max/min chain length, in percent (300 = 3x) *)
  scoap_top : int;  (** TEST-001: how many SCOAP hotspots to report *)
}

val default_thresholds : thresholds

(** Result of walking a net backward through buffers/inverters. *)
type trace = {
  origin : int;  (** first non-buffer node reached *)
  inverted : bool;  (** odd number of inverters crossed *)
  through : int list;  (** crossed buffers/inverters, origin side first *)
}

(** Facts proven about the mission software by an external analysis
    (in practice {!Olfu_absint} over the SBST suite; this library stays
    below [olfu_absint] in the dependency order, so the facts arrive as
    plain data).  Consumed by the SW-* rules and folded into
    {!mission_ternary}. *)
type software = {
  sw_label : string;  (** provenance, e.g. ["sbst-suite"] *)
  sw_width : int;  (** address width the bit indices refer to *)
  sw_const_addr_bits : (int * bool) list;
      (** address bits never toggled by any analysed program *)
  sw_assume : (int * Logic4.t) list;
      (** netlist nodes (address-register flops, constant [bus_rdata]
          input bits) forced by the software, for [Ternary.run ?assume] *)
  sw_dead_code : (string * int list) list;
      (** per program: instruction word addresses proven unreachable *)
  sw_store_total : int;  (** store sites across the analysed programs *)
  sw_ram_stores : bool;
      (** some store provably lands in data RAM (the on-line observation
          point of the paper) *)
  sw_unmapped : string list;
      (** accesses that may escape every mapped region *)
}

(** Facts proven about the reachable state space by an external
    invariant engine (in practice {!Olfu_invar} mine/filter/prove over
    the mission-held machine; this library stays below [olfu_invar] in
    the dependency order, so — exactly like {!software} — the proofs
    arrive as plain data).  Consumed by the INV-* rules.  Soundness is
    the producer's responsibility: only certificate-carrying proved
    invariants may be handed over. *)
type invariants = {
  inv_label : string;  (** provenance, e.g. ["invar k=1"] *)
  inv_consts : (int * bool) list;
      (** flops proved constant in every reachable state *)
  inv_mutex : (int * int) list;
      (** flop pairs proved never simultaneously 1 *)
  inv_ranges : (int array * int list) list;
      (** register bit-groups (LSB first) with their proved reachable
          value sets — gaps are unreachable encodings *)
}

type t

val create :
  ?thresholds:thresholds ->
  ?software:software ->
  ?invariants:invariants ->
  Netlist.t ->
  t
val nl : t -> Netlist.t
val limits : t -> thresholds

val software : t -> software option

val invariants : t -> invariants option

val assumptions : t -> (int * Logic4.t) list
(** Everything {!mission_ternary} assumes: the §3.2 tie script (every
    [Debug_control] input still present as a free input, tied to 0) plus
    the software [sw_assume] facts when present. *)

val node_label : Netlist.t -> int -> string
(** Hierarchical name of the net, or ["n<id>"]. *)

val name : t -> int -> string

val back_trace : Netlist.t -> int -> trace
(** Walk a net backward through [Buf]/[Not] cells to its origin. *)

val reset_roots : Netlist.t -> int -> int list
(** Reset-role inputs backward-reachable from the net through the reset
    gating idioms (buffers, inverters, and/nand/or/nor gates), sorted.
    Empty = an orphan reset; more than one = mixed domains; a non-trivial
    path through gates = a gated reset. *)

val ternary : t -> Olfu_atpg.Ternary.t
(** Steady-state ternary implication on the netlist as given. *)

val mission_ternary : t -> Olfu_atpg.Ternary.t
(** Ternary implication with {!assumptions} applied. *)

val scoap : t -> Olfu_atpg.Scoap.t
val observe : t -> Olfu_atpg.Observe.t

val dead_nodes : t -> int list
(** Nodes with no structural path to any output marker (inputs exempt). *)

val chains : t -> Olfu_manip.Scan_trace.chain list
val chain_cells : t -> (int, unit) Hashtbl.t
(** The set of mux-scan cells reached by some chain. *)

val slice : t -> Olfu_slice.Slice.t
(** Constant-severed flop dependency graph, with the mission edges
    strengthened by {!assumptions} (so software-held constants sever
    too).  Feeds the SLICE-* rules. *)

val si_cycles : t -> int list list
(** Shift-path cycles: each is the full cycle path in shift order (scan
    cells and the buffers between them).  A cycle is never reachable from
    a scan-in port (an SI pin has a single driver), so these are exactly
    the closed shift loops a chain tracer would never terminate on. *)

val data_fanout : Netlist.t -> int -> int
(** Fanout branches excluding scan/reset wiring pins (SI/SE of scan
    cells, rstn of resettable cells): the mission-logic load of a net. *)

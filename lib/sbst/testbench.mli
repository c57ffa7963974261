open Olfu_netlist
open Olfu_fsim
open Olfu_soc

(** Gate-level testbench: runs a program on the good SoC with a
    behavioural memory model, and records the bus dialogue as a replayable
    {!Seq_fsim.stimulus}.

    Observation follows the paper's on-line constraint: a cycle is strobed
    only when the {e good} machine performs a bus write, so a fault is
    detected exactly when it corrupts the memory-content trace (address,
    data or write strobe at those cycles). *)

type run = {
  stimulus : Seq_fsim.stimulus;
  cycles : int;
  writes : (int * int) list;  (** bus writes of the good machine *)
  halted : bool;  (** the good machine reached HALT before the bound *)
}

val observed_outputs : Netlist.t -> int -> bool
(** The on-line observation set: bus address, write data, write strobe,
    the halted flag and the functional signature pins (MISR, performance
    tick) — not the scan or debug outputs. *)

val record :
  ?data:(int * int) list ->
  Soc.config ->
  Netlist.t ->
  program:int array ->
  run
(** Loads [program] at the ROM base and [data] words into memory, applies
    one reset cycle, then runs until HALT or 20,000 cycles.  The good
    machine runs on the word-level core {!Olfu_sim.Lanes} with every lane
    equal and lane 0 read; each cycle settles once to see the bus request
    and, when the response changes the driven inputs, once more before
    the clock edge. *)

val replay_matches : Soc.config -> Netlist.t -> run -> bool
(** Sanity check: replaying the stimulus on the scalar {!Olfu_sim.Seq_sim}
    oracle reproduces the recorded writes (used by tests). *)

open Olfu_netlist

(** Per-flip-flop SEU classification by bounded model checking
    (OpenSEA-style, arXiv 1712.04291).

    Two copies of the mission machine are unrolled over a bounded
    latching window through the {!Olfu_atpg.Bmc} mission frame — shared
    inputs with reset held inactive, resettable flops starting at 0,
    plain flops at a solver-chosen but equal power-up value; mission
    constants are the netlist's ties — except that the target flop
    starts {e inverted} in the second copy: a single-event upset latched
    just before cycle 0.
    Three outcomes:
    {ul
    {- no input sequence makes a functional output diverge within the
       window: the upset is {e masked};}
    {- divergence is possible but every diverging trace also diverges on
       an alarm output within the window: the upset is {e protected} —
       the checker circuitry flags it;}
    {- some trace diverges with every alarm silent: {e vulnerable}.}}

    All claims are bounded: "masked"/"protected" hold for the window
    only (the concrete cross-check, {!Olfu_fsim.Seq_fsim.run_seu},
    replays the same window).  A solver [Unknown] is never narrowed —
    the class stays {!Taxonomy.Seu_unknown}. *)

type ff_result = {
  ff : int;  (** the sequential node *)
  cls : Taxonomy.seu_class;
  structural : bool;
      (** masked by bounded reachability alone (no path from the flop to
          a functional observation within the window) — no SAT call *)
}

type report = {
  window : int;
  total_ffs : int;  (** sequential cells in the netlist *)
  results : ff_result array;  (** one per checked flop (the sample) *)
  masked : int;
  protected_ : int;
  vulnerable : int;
  unknown : int;
}

val default_alarm : Netlist.t -> int -> bool
(** Name-based alarm-output recognition: the output net name contains
    ["alarm"], ["parity"], ["err"] or ["chk"] (case-insensitive). *)

val classify_ff :
  ?window:int ->
  ?observable_output:(int -> bool) ->
  ?alarm:(int -> bool) ->
  ?invariants:Olfu_invar.Invar.invariant list ->
  Netlist.t ->
  int ->
  ff_result
(** Classify one flop.  [window] (default 4) is the latching window in
    cycles; each SAT query stops after 50,000 conflicts (an
    {!Taxonomy.Seu_unknown} verdict).
    [observable_output] selects the outputs the field can check;
    [alarm] (default {!default_alarm}) splits them into functional and
    alarm outputs.  [invariants] (proved on this machine — see
    {!Olfu_invar}) constrain the pre-upset cycle-0 state to the proved
    reachable over-approximation: a sound strengthening that prunes
    upset states no mission run can reach and typically speeds the
    queries up.  Raises [Invalid_argument] on a non-sequential node or a
    [window] below 1. *)

val run :
  ?window:int ->
  ?limit:int ->
  ?jobs:int ->
  ?trace:Olfu_obs.Trace.sink ->
  ?observable_output:(int -> bool) ->
  ?alarm:(int -> bool) ->
  ?invariants:Olfu_invar.Invar.invariant list ->
  Netlist.t ->
  report
(** Classify a deterministic, evenly strided sample of [limit] flops,
    sharded one flop per chunk over a {!Olfu_pool.Pool} of [jobs]
    workers; each flop's verdict is independent, so the report is
    identical for any [jobs].  Raises [Invalid_argument] on a [window]
    below 1.

    Sampling: [limit <= 0] (or [limit >= total]) checks {e every} flop;
    otherwise flop [k] of the sample is sequential node
    [seqs.(k * total / limit)] — a fixed even stride over the netlist's
    sequential-node order, so the same netlist and limit always select
    the same flops (no randomness anywhere).

    A recording [trace] gets an ["engine"]-category ["seu"] span and the
    jobs-invariant counters ["seu.checked"], ["seu.masked"],
    ["seu.protected"], ["seu.vulnerable"], ["seu.unknown"]. *)

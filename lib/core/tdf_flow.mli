open Olfu_netlist

(** The identification flow replayed for transition-delay faults — the
    fault-model extension the paper's conclusion announces.

    Attribution mirrors {!Flow}: scan rule (for transitions the whole SE
    net is dead, so {e all} scan-pin transition faults fall, including SE
    slow-to-rise), then baseline, tied debug controls, floated
    observation, memory map. *)

type report = {
  universe : int;
  scan : int;
  baseline : int;
  debug_control : int;
  debug_observe : int;
  memory : int;
  total : int;
  fraction : float;
  seconds : float;
}

val run : Run_config.t -> Netlist.t -> Mission.t -> report
(** [cfg.jobs] shards each classification step over a domain pool; the
    report is identical for any value.  After the scan step, each of
    {!Flow.stages}' circuits is analyzed through {!Flow.analyses} and
    claims the transition faults it proves.  A recording [cfg.trace]
    gets one ["step"]-category span per step (named by
    {!Flow.source_name}) with the engine spans nested inside. *)

val pp : Format.formatter -> report -> unit

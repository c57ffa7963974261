(** The identification flow read for transition-delay faults — the
    fault-model extension the paper's conclusion announces.

    A transition fault needs its pin launched to both values and the late
    transition propagated, so it is untestable whenever either same-site
    stuck-at fault is: a tied pin cannot launch, a blocked pin cannot
    capture ({!Olfu_fault.Tdf.untestable}).  The transition faults of a
    site therefore fall at the earlier of the steps that closed its two
    stuck-at faults.  Attribution mirrors {!Flow}: scan rule (the SE net
    never toggles, so {e all} scan-pin transition faults fall, SE
    slow-to-rise included, although the stuck-at flow keeps SE s\@1),
    then baseline, tied debug controls, floated observation, memory
    map. *)

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
      (** the stuck-at flow's seconds plus the projection's *)
}

val of_flow : Flow.report -> report
(** The projection of a stuck-at flow: each site's two transition faults
    count under the step that closed the first of its stuck-at faults
    ([closed_by]).  [flist] follows {!Olfu_fault.Fault.universe}, which
    is in {!Olfu_fault.Fault.compare} order, so its indices [2j] and
    [2j+1] are the stuck-at-0 and stuck-at-1 faults of one site. *)

val pp : Format.formatter -> report -> unit

(** One record for the knobs every flow shares.

    The flow entrypoints ({!Flow.run}, whose report {!Tdf_flow.of_flow}
    reads, and — with its own extended record —
    {!Olfu_atpg.Atpg_flow.run}) take their common configuration as a
    value of this type instead of a sprawl of optional arguments, so
    defaults live in exactly one place and adding a knob does not ripple
    through every signature.  Build one with record update syntax:
    [{ Run_config.default with jobs = 4 }]. *)

type t = {
  ff_mode : Olfu_atpg.Ternary.ff_mode;
      (** flip-flop treatment of the ternary fixpoint; [Steady_state] is
          the paper's mission reading *)
  jobs : int;  (** domain-pool width for the classification steps *)
  implic : bool;  (** enable the static implication engine (UC verdicts) *)
  trace : Olfu_obs.Trace.sink;
      (** observability sink; {!Olfu_obs.Trace.null} records nothing and
          costs one branch per probe *)
}

val default : t
(** [Steady_state], [jobs = 1], [implic = true], null trace. *)

val ff_mode_of_string : string -> Olfu_atpg.Ternary.ff_mode option
val ff_mode_name : Olfu_atpg.Ternary.ff_mode -> string

val to_json : t -> Olfu_obs.Json.t
(** The record as a manifest [config] object (the sink itself renders as
    whether it records). *)

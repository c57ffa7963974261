(** Renderers for a lint {!Lint.outcome}. *)

val text : Format.formatter -> Lint.outcome -> unit
(** Human-readable listing: one line per finding, then waiver/baseline
    accounting, unused-waiver warnings and totals. *)

val summary : Format.formatter -> Lint.outcome -> unit
(** Per-rule summary table (code, severity, category, count, title) over
    the rules that fired, plus a totals line. *)

val json : Lint.outcome -> Olfu_obs.Json.t
(** Machine-readable SARIF-flavoured JSON: one run with full rule
    metadata ([tool.driver.rules]) and one result per finding with
    logical node locations; waiver/baseline accounting under
    [runs[0].properties].  A value, printed by the one
    {!Olfu_obs.Json} emitter as every other op's JSON is. *)

val rules_catalogue : Format.formatter -> Rule.t list -> unit
(** The [--rules] listing: code, default severity, category, title. *)

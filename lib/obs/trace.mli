(** Structured observability: monotonic-clock spans with parent nesting,
    named counters and gauges, behind a sink that costs one branch when
    disabled.

    A {!sink} is threaded through the flow ({!Olfu.Flow}), the engines
    ({!Olfu_atpg.Untestable}, {!Olfu_atpg.Atpg_flow},
    {!Olfu_fsim.Comb_fsim}, {!Olfu_fsim.Seq_fsim}) and the domain pool
    ({!Olfu_pool.Pool.parallel_chunks}).  The default {!null} sink makes
    every probe a no-op — the instrumented hot paths stay within the
    noise floor of the uninstrumented ones (the [bench -- fsim] gate
    asserts < 2%).

    {b Spans} measure wall time on a monotonic clock (never runs
    backwards even if the system clock steps) and nest: each domain keeps
    a stack of open spans, so a span started inside another records it as
    its parent.  Span categories partition the attribution:
    ["engine"] spans are the per-engine time accounting (they must never
    nest inside each other — {!Manifest} sums them against wall time),
    ["step"]/["flow"] spans group them, ["pool"]/["worker"] spans expose
    the scheduler.

    {b Counters} are per-worker sharded (one atomic cell per worker id,
    merged at read time) so parallel increments never contend or lose
    updates, and — by the pool's exactly-once chunk discipline — their
    totals are identical for any [jobs] value.  Only deterministic
    quantities may be counters; scheduling-dependent measurements (idle
    time, per-worker busy time) are recorded as spans or gauges. *)

type sink

type span = {
  id : int;
  parent : int;  (** id of the enclosing span on the same domain, or -1 *)
  name : string;
  cat : string;
  tid : int;  (** thread lane for the Chrome exporter (0 = caller) *)
  t0 : float;  (** seconds since the sink was created, monotonic *)
  dur : float;  (** seconds *)
}

val null : sink
(** The no-op sink: every probe returns immediately. *)

val create : unit -> sink
(** A recording sink.  Thread-safe: spans and counters may be recorded
    from any domain. *)

val enabled : sink -> bool

val span : sink -> ?cat:string -> ?tid:int -> string -> (unit -> 'a) -> 'a
(** [span sink ~cat name f] times [f ()] and records a completed span,
    parented under the innermost open span of the calling domain.  The
    span is recorded (and the nesting stack unwound) even when [f]
    raises.  Default [cat] is ["span"], default [tid] is [0]. *)

val record :
  sink -> ?cat:string -> ?tid:int -> ?t0:float -> dur:float -> string -> unit
(** Record an already-measured span (no nesting bookkeeping).  Used for
    accumulated attributions, e.g. the summed PODEM time of a search
    phase.  [t0] defaults to the current monotonic offset minus [dur]. *)

val add : sink -> ?worker:int -> string -> int -> unit
(** [add sink ~worker name n] increments counter [name] by [n] on the
    worker's shard.  Counters are created on first use. *)

val gauge : sink -> string -> float -> unit
(** Set gauge [name] (last write wins). *)

val now : sink -> float
(** Monotonic seconds since the sink was created ([0.] on {!null}). *)

(** {2 Reading — used by the exporters and the test gates} *)

val spans : sink -> span list
(** All completed spans, ordered by start time. *)

val counters : sink -> (string * int) list
(** Merged shard totals, sorted by name. *)

val gauges : sink -> (string * float) list

val engine_seconds : sink -> (string * float) list
(** Total duration of ["engine"]-category spans grouped by span name,
    sorted by name — the per-engine time attribution. *)

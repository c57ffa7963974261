(** Small stdlib-only domain pool ([Domain] + [Mutex]/[Condition]) whose
    workers claim guided chunks off one shared atomic cursor.

    A pool owns [effective - 1] worker domains (the caller is the
    remaining worker), where [effective] is the requested [jobs] clamped
    to the hardware parallelism reported by
    [Domain.recommended_domain_count].  Oversubscribing domains is a
    pessimization in OCaml 5 — minor collections are stop-the-world
    across all domains — and every pool consumer is jobs-invariant by
    contract, so the clamp changes timing only, never results.  Tests
    that need more domains than cores pass [~oversubscribe:true].

    Work is submitted as an index range [0, n).  Every worker claims its
    next chunk off one shared cursor, taking [remaining / (2 * jobs)]
    items capped by a quantum: early claims are large and cheap, tail
    claims shrink towards one item.  No item is assigned before a worker
    asks for it, so an item with a pathological cost (a huge fanout
    cone, say) holds up only the worker running it.

    Determinism contract: {!parallel_chunks} guarantees every index in
    [0, n) is processed by exactly one worker, but the assignment of
    indices to workers and their interleaving is scheduling-dependent.
    Callers that need deterministic results must make each index's result
    independent of the others (write to per-index slots, merge by index
    order, or reduce with a commutative/associative operation), which is
    the discipline used by the fault-simulation engines. *)

type t

val default_jobs : unit -> int
(** Worker count from the [OLFU_JOBS] environment variable, clamped to
    [1, 64]; [1] when unset.  An unparsable value also yields [1] but
    prints a one-line warning to stderr (once per process) so a
    misconfigured CI run is diagnosable.  The CLI [--jobs] flag
    overrides it. *)

val hardware_jobs : unit -> int
(** [Domain.recommended_domain_count ()] clamped to [1, 64]: the largest
    worker count {!create} will actually spawn without
    [~oversubscribe]. *)

val create : ?oversubscribe:bool -> jobs:int -> unit -> t
(** Spawns [min jobs (hardware_jobs ()) - 1] worker domains ([jobs] is
    clamped to [1, 64]); with [~oversubscribe:true] the hardware clamp is
    skipped.  A pool with an effective size of 1 spawns nothing and runs
    everything inline. *)

val jobs : t -> int
(** Effective worker count (after the hardware clamp). *)

val parallel_chunks :
  t ->
  n:int ->
  ?chunk:int ->
  ?trace:Olfu_obs.Trace.sink ->
  ?label:string ->
  (worker:int -> lo:int -> hi:int -> unit) ->
  unit
(** [parallel_chunks t ~n f] applies [f ~worker ~lo ~hi] over disjoint
    chunks covering [0, n), in parallel over the pool, and returns once
    every index has been processed (a barrier).  [worker] is a stable id
    in [0, jobs t), usable to index per-worker scratch.  [chunk] caps the
    number of items per claim (the quantum; default
    [min 1024 (n / (16 * jobs))], at least 1); a claim takes
    [remaining / (2 * jobs)] items within that cap, at least one, so the
    chunk schedule is scheduling-dependent.  The first exception raised
    by any worker is re-raised in the caller after the barrier;
    remaining items are abandoned.

    With a recording [trace], every dispatch bumps the
    ["pool.dispatches"]/["pool.items"] counters (jobs-invariant totals;
    per-claim counts are scheduling-dependent and are deliberately not
    counted), each worker records one ["worker"]-category span named
    [label], and the dispatch records a ["pool"]-category span plus
    ["pool.last_idle_seconds"] and ["pool.last_utilization"] gauges
    (scheduling-dependent, so gauges rather than counters;
    utilization is [sum busy / (jobs * region)]). *)

val shutdown : t -> unit
(** Joins the worker domains.  The pool must be idle; using it after
    shutdown raises [Invalid_argument].  Idempotent. *)

val with_pool : ?oversubscribe:bool -> jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] on a pool of the requested size.  Pools
    with an effective size > 1 are leased from a process-global registry
    and kept alive for reuse (domain spawn/join is a stop-the-world per
    domain, and flows dispatch through the pool many times), shutting
    down at process exit; size-1 and oversubscribed pools are private to
    the call and shut down on exit, including on exception.

    Safe under concurrency: overlapping calls from different domains —
    the analysis daemon serving simultaneous requests with equal or
    different [jobs] values — each lease a distinct pool (the registry
    keeps a short list per size, spilling to private pools beyond it),
    and the registry lock is never held across pool creation or [f], so
    nested or concurrent leases cannot deadlock.  Results remain
    jobs-invariant by the consumers' contract regardless of which pool a
    request lands on. *)

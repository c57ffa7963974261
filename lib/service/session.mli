(** Per-daemon artifact cache.

    A session owns everything the service remembers between requests:
    loaded netlists (with their missions and content digests), flow
    reports, and finished per-operation outcomes.  Entries are keyed by
    strings built from the netlist content digest
    ({!Olfu_netlist.Analysis.digest}) plus an operation fingerprint
    ({!Request.fingerprint}), so a cache hit is sound across requests,
    connections and clients — two keys collide only when the work is
    interchangeable.

    A session with a byte budget evicts LRU entries past it, measuring
    each entry with [Obj.reachable_words] at insertion time.  The most
    recently added entry is never evicted (a single oversized artifact
    still completes its request; the budget re-asserts itself on the
    next insert).  A session without a budget (the one-shot CLI's)
    never evicts and never pays for the size walk.

    All operations are thread-safe (one mutex around the table);
    {!memo} runs its build function {e outside} the lock so concurrent
    requests never serialize behind each other's engines.  Duplicate
    concurrent builds of the same key are possible and benign — every
    flow is deterministic, so whichever result publishes first wins and
    the values are interchangeable. *)

type outcome = {
  json : string;
      (** [--format json] rendering; deterministic — no wall-clock
          fields, so a cache hit is byte-identical to a fresh run *)
  text : string;  (** [--format text] rendering *)
  summary : string;  (** [--format summary] rendering *)
  status : Response.status;
  aux : (string * string) list;
      (** side artifacts that are not part of any rendering: a DOT
          graph, baseline fingerprint lines *)
}

type loaded = {
  nl : Olfu_netlist.Netlist.t;
  mission : Olfu.Mission.t;
  digest : string;  (** {!Olfu_netlist.Analysis.digest} of [nl] *)
  cfg : Olfu_soc.Soc.config option;  (** [None] for file targets *)
}

type value =
  | Loaded of loaded
  | Flow of Olfu.Flow.report
  | Outcome of outcome

type stats = {
  entries : int;
  bytes : int;
      (** sum of the sizes measured at insertion; [0] when unbounded *)
  budget : int option;  (** [None]: unbounded *)
  hits : int;
  misses : int;
  evictions : int;
}

type t

val create : ?byte_budget:int -> unit -> t
(** Without [byte_budget] the session is unbounded. *)

val find : t -> string -> value option
(** Counts as a hit/miss and refreshes recency on hit. *)

val add : t -> string -> value -> unit
(** Insert (replacing any previous binding), then, under a budget, evict
    least-recently-used entries — never the one just added — until the
    budget holds again. *)

val memo : t -> string -> (unit -> value) -> value * bool
(** [memo t key build] is [find]-or-[build]-and-[add]; the boolean is
    [true] on a cache hit.  [build] runs outside the session lock. *)

val stats : t -> stats
val stats_json : stats -> Olfu_obs.Json.t

(** The analysis daemon: a Unix-domain-socket server speaking
    line-delimited JSON ({!Request} in, {!Response} out, one compact
    object per line).

    [workers] accept-loop domains share one listening socket and one
    {!Session}, so every connection sees the same artifact cache and
    concurrent requests run in parallel (each flow additionally fans out
    over its own domain pool per the request's [jobs]).  A malformed
    line gets a [Bad_input] response and the connection stays open; a
    [shutdown] request is answered, then the listening socket closes,
    sibling accept loops unblock, in-flight requests finish, and
    {!serve} returns.

    With [audit] set, every run request appends one compact
    {!Olfu_obs.Manifest} line to the audit file: the request's config
    fields plus [cache_hit], the engines' spans and counters recorded
    during that request, and its wall seconds — the daemon's flight
    recorder. *)

type config = {
  socket : string;  (** path of the Unix-domain socket to bind *)
  workers : int;  (** accept-loop domains (clamped to at least 1) *)
  byte_budget : int;  (** session cache budget, bytes *)
  audit : string option;  (** per-request manifest log, JSON lines *)
}

val default : socket:string -> config
(** [workers = 2], a 1 GiB budget, no audit log. *)

val serve : config -> unit
(** Bind, accept and serve until a [shutdown] request arrives.  Replaces
    any stale socket file at the path; removes it on exit.  [SIGPIPE]
    is ignored for the whole process (a client hanging up mid-response
    must not kill the daemon). *)

(** The dispatcher: one code path behind both the one-shot CLI and the
    daemon.

    {!execute} takes a typed {!Request.t}, resolves the netlist through
    the session cache, runs (or replays from cache) the requested
    operation, and returns a {!Response.t} whose [output] field holds
    the finished rendering — exactly the bytes the CLI prints.  JSON
    renderings are deterministic (no wall-clock fields; timing lives in
    the response envelope), so a daemon answer is byte-identical to a
    one-shot run of the same request.

    Failures of the {e request} — unknown config, unreadable netlist or
    waiver file, unknown program name — come back as a [Bad_input]
    response, never as an exception: a daemon must survive any line a
    client sends. *)

(** Observability by-products of one execution, for the caller's
    manifest ([--manifest] in the CLI, the audit log in the daemon).
    Never serialized to the client. *)
type meta = {
  steps : Olfu_obs.Manifest.step list;
      (** flow step attributions; empty on a cache hit *)
  prep : (string * float) list;
      (** named setup phases, including a ["service"] entry covering
          render and dispatch time so steps + prep still account for the
          response's wall time *)
  extras : (string * Olfu_obs.Json.t) list;  (** manifest top-level *)
  aux : (string * string) list;
      (** side artifacts from the outcome: ["dot"], ["baseline"], ... *)
}

val soc_of_name : string -> Olfu_soc.Soc.config option
(** ["tcore32"], ["tcore32_dft"], ["tcore16"]. *)

val resolve :
  Request.target ->
  ( Olfu_netlist.Netlist.t * Olfu.Mission.t * Olfu_soc.Soc.config option,
    string )
  result
(** How a target becomes a netlist and its mission, as {!execute} loads
    it: a generated configuration (returned with it), or an elaborated
    Verilog file whose [//\@role] annotations give the mission under the
    paper's memory map and 32-bit addresses.  [Error] carries the
    one-line message of an unknown configuration or an unreadable or
    malformed file. *)

val config_fields : Request.run -> (string * Olfu_obs.Json.t) list
(** Manifest [config] fields describing a run request: the flow knobs,
    the target, the op name and its parameter object. *)

val execute :
  Session.t -> ?sink:Olfu_obs.Trace.sink -> Request.t -> Response.t * meta
(** Serve one request.  [sink] receives the engines' spans and counters
    when recording (cache hits record nothing — no engine runs).
    Control requests ([Ping]/[Stats]/[Shutdown]) are answered locally;
    acting on [Shutdown] is the server's business.  Raises nothing: an
    exception out of an engine is answered [Bad_input] with the message
    ["internal error: "] and the exception. *)

(** Typed responses of the analysis service.

    A response carries the finished rendering ([output], exactly the
    bytes the one-shot CLI would print for the same request) plus an
    envelope: the request [id], an exit status, whether the session
    cache satisfied the request, and the server-side wall time.  Wall
    time lives {e only} in the envelope — the payload is deterministic,
    which is what makes daemon and one-shot output byte-identical. *)

(** Maps one-to-one onto the CLI exit-code convention (see
    {!exit_code}): [Success] = 0, [Findings] = 1 (the analysis ran and
    reported violations — lint fails, degraded abstract states, an
    inconsistent safety report), [Bad_input] = 2 (the request itself was
    unusable: unknown config, unreadable file, malformed JSON). *)
type status = Success | Findings | Bad_input

val exit_code : status -> int

type t = {
  id : int;  (** echoed from the request *)
  status : status;
  cache_hit : bool;
      (** the outcome came from the session cache; no engine ran *)
  seconds : float;  (** server-side wall time for the operation *)
  output : string;
      (** rendered result in the request's format; print verbatim *)
  error : string option;  (** diagnostic for [Bad_input] *)
}

val make :
  ?cache_hit:bool ->
  ?seconds:float ->
  ?error:string ->
  id:int ->
  status:status ->
  string ->
  t

val fail : id:int -> string -> t
(** A [Bad_input] response with empty output and the given
    diagnostic. *)

val to_json : t -> Olfu_obs.Json.t
val of_json : Olfu_obs.Json.t -> (t, string) result
val of_string : string -> (t, string) result
val to_line : t -> string

val output_line : out_channel -> t -> unit
(** [to_line] and a newline, streamed to the channel: the server's
    answer, which for a large cached rendering is written without first
    copying it into a line of its own. *)

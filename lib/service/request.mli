(** Typed requests of the analysis service.

    One request value describes one unit of work — which netlist, which
    flow knobs, which operation, which rendering — independently of how
    it reaches the dispatcher: the one-shot CLI builds a value directly,
    the daemon decodes one from a line of JSON.  Both paths execute the
    same {!Service.execute}, which is what makes the CLI and the daemon
    byte-identical for the same request.

    The wire encoding is one compact JSON object per line on the
    in-house {!Olfu_obs.Json} AST.  Decoding is tolerant: every field
    except ["op"] has a default, unknown fields are ignored, and a
    malformed request yields [Error _] (a structured [Bad_input]
    response at the server), never an exception. *)

type target =
  | Config of string  (** a generated SoC configuration, by name *)
  | File of string  (** a structural-Verilog netlist on the server *)

type fmt = Text | Json | Summary  (** the CLI's [--format] choices *)

type fail_on = Never | Fail_on of Olfu_lint.Rule.severity

(** Operation-specific options.  Field defaults mirror the CLI flags. *)
type op =
  | Analyze of { paper : bool }
  | Lint of {
      waivers : string option;  (** waiver file path, server-side *)
      baseline : string option;  (** baseline file path, server-side *)
      disabled : string list;  (** rule codes to disable *)
      software : bool;  (** enable SW dataflow rules *)
      invariants : bool;  (** enable INV invariant rules *)
      fail_on : fail_on;
    }
  | Implic of { learn_depth : int; learn_budget : int; invariants : bool }
  | Absint of { programs : string list; asm : string option }
  | Invar of { k : int; no_prove : bool }
  | Safety of { window : int; seu_limit : int }
  | Slice of { dot : bool }
  | Coverage of { sample : int }

type run = {
  target : target;
  ff_mode : Olfu_atpg.Ternary.ff_mode;
  jobs : int;
  implic : bool;
  fmt : fmt;
  op : op;
}

type body =
  | Ping  (** liveness probe; answered without touching the session *)
  | Stats  (** session-cache and server counters *)
  | Shutdown  (** reply, then stop accepting and drain *)
  | Run of run

type t = { id : int; body : body }
(** [id] is echoed verbatim in the response so a client multiplexing
    requests on one connection can match replies. *)

val op_name : op -> string
(** The subcommand name: ["analyze"], ["lint"], ... *)

val params_json : op -> Olfu_obs.Json.t
(** The op's parameter object (always complete), as sent on the wire —
    also used for manifest [config] echo and {!fingerprint}. *)

val default_run : run
(** [Analyze { paper = false }] of config ["tcore32"], steady-state,
    [jobs = 1], implications on, text format — the defaults every
    decoded field falls back to. *)

val run : ?id:int -> ?fmt:fmt -> ?jobs:int -> ?ff_mode:Olfu_atpg.Ternary.ff_mode -> ?implic:bool -> target -> op -> t
(** Convenience constructor over {!default_run}. *)

val check : op -> (op, string) result
(** Range check of the op's parameters: [Error] naming the field when
    [Invar]'s [k] or [Safety]'s [window] is below 1 (a vacuous
    verdict).  {!of_json} applies it, and so does {!Service.execute} for
    requests built without decoding. *)

val to_json : t -> Olfu_obs.Json.t
val of_json : Olfu_obs.Json.t -> (t, string) result

val of_string : string -> (t, string) result
(** Strict JSON parse followed by {!of_json}. *)

val to_line : t -> string
(** Compact one-line wire form (no trailing newline). *)

val fingerprint : run -> string
(** Deterministic key fragment identifying the work a run denotes,
    {e excluding} the netlist (callers prefix the netlist digest),
    [jobs] (all flows are jobs-invariant by contract) and [fmt] (a
    cached outcome carries every rendering).  Includes the flow knobs
    ([ff_mode], [implic]) and every op parameter, so two runs with equal
    prefixed fingerprints are interchangeable. *)

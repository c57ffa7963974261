(** First-class lint rules.

    A rule is a value: stable code, default severity, category, one-line
    title, documentation, and a run function over the shared analysis
    context.  The engine ({!Lint.run}) attaches code and effective
    severity to the raw findings a rule emits. *)

type severity = Error | Warning | Info

val severity_name : severity -> string
val severity_of_name : string -> severity option

val severity_rank : severity -> int
(** [Error] = 3, [Warning] = 2, [Info] = 1 — used by [--fail-on]. *)

type category =
  | Scan
  | Reset
  | Clock
  | Net
  | Observability
  | Debug
  | Structure
  | Testability
  | Software  (** facts proven about the mission software (SW rules) *)
  | Invariant
      (** facts proven about the reachable state space (INV rules) *)

val category_name : category -> string

(** A finding as reported to the user. *)
type finding = {
  code : string;
  severity : severity;
  message : string;
  node : int option;  (** primary location (a node id), if any *)
  path : int list;  (** supporting nodes: cycle path, dead cone, ... *)
}

(** A finding as emitted by a rule, before the engine attaches code and
    effective severity. *)
type raw = { r_message : string; r_node : int option; r_path : int list }

val raw : ?node:int -> ?path:int list -> string -> raw

type t = {
  code : string;
  category : category;
  severity : severity;  (** default severity; config may override *)
  title : string;
  doc : string;
  run : Ctx.t -> raw list;
}

val make :
  code:string ->
  category:category ->
  severity:severity ->
  title:string ->
  doc:string ->
  (Ctx.t -> raw list) ->
  t

(** Minimal JSON: a value type, a compact printer, and a strict parser.

    The observability exporters ({!Export}, {!Manifest}) build values of
    this type, the CLI renders structured [--format json] output through
    it, and the test/bench gates round-trip emitted documents through
    {!parse} so every byte the tools write is machine-checked.  Strings
    are emitted with full control-character escaping; floats always carry
    a decimal point or exponent so consumers never reparse them as
    integers. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:bool -> t -> string
(** Compact by default; [~indent:true] pretty-prints with two-space
    indentation (the form written to [--manifest] files). *)

val to_channel : ?indent:bool -> out_channel -> t -> unit
(** The bytes of {!to_string}, written to the channel in chunks of
    about 64 KB as they are produced, so the document is not built in
    memory first. *)

val to_file : ?indent:bool -> string -> t -> unit

val parse : string -> (t, string) result
(** Strict parser: exactly one JSON value, nothing but whitespace around
    it, no trailing commas, no comments, [\uXXXX] escapes validated.
    Numbers with a fraction or exponent parse as [Float], others as
    [Int] (falling back to [Float] on overflow).  Errors carry a byte
    offset. *)

(** Accessors used by the validation gates; all total. *)

val member : string -> t -> t option
(** First binding of the key in an [Obj]; [None] otherwise. *)

val to_float_opt : t -> float option
(** [Int] and [Float] both convert. *)

val to_int_opt : t -> int option
val to_string_opt : t -> string option
val to_list_opt : t -> t list option

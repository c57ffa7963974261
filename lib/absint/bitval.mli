open Olfu_logic

(** Bitwise three-valued abstract domain: every bit of a [width]-bit
    machine word is known-0, known-1 or unknown ([X]).  The concretisation
    of a value is the set of words agreeing with it on every known bit. *)

type t

val make : int -> known:int -> value:int -> t
(** [make w ~known ~value]: bits of [known] are decided, their values
    taken from [value].  Both masked to [w] bits; [value] is clipped to
    [known]. *)

val exact : int -> int -> t
val top : int -> t
val width : t -> int
val to_exact : t -> int option
val equal : t -> t -> bool

val bit : t -> int -> Logic4.t
(** [L0]/[L1] for a known bit, [X] for an unknown one.  Bits at or above
    [width] read [L0]. *)

val contains : t -> int -> bool
(** Is the concrete word (masked to [width]) inside the concretisation? *)

val min_val : t -> int
(** Smallest word in the concretisation (unknown bits at 0). *)

val max_val : t -> int
(** Largest word in the concretisation (unknown bits at 1). *)

val join : t -> t -> t
(** Per-bit least upper bound: disagreeing or unknown bits go to [X]. *)

val meet : t -> t -> t option
(** Per-bit intersection; [None] when two known bits conflict (empty). *)

val of_values : int -> int list -> t
(** Join of exact values.  Raises [Invalid_argument] on an empty list. *)

(** {1 Transfer functions} — all sound over the masked [width]-bit
    two's-complement semantics of {!Olfu_sbst.Isa_sim}. *)

val lognot : t -> t
val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t

val add : ?cin:Logic4.t -> t -> t -> t
(** Ripple-carry addition over {!Logic4} bits; a sum bit is known exactly
    while the carry chain into it stays binary. *)

val sub : t -> t -> t
val shift_left : t -> int -> t
val shift_right : t -> int -> t

val mul : t -> t -> t
(** Exact when both operands are; otherwise only the product's low
    known-zero bits (from operand trailing zeros) are retained. *)

val pp : Format.formatter -> t -> unit
(** MSB-first characters [0], [1], [x]. *)

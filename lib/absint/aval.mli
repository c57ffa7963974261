open Olfu_logic

(** Abstract machine word: reduced product of {!Bitval} (per-bit 0/1/X)
    and {!Vset} (value set / interval).  A concrete word is in the
    concretisation iff both components admit it.  All transfer functions
    mirror {!Olfu_sbst.Isa_sim}'s masked two's-complement semantics
    bit-exactly on singleton inputs. *)

type t

val width : t -> int
val bot : int -> t
val top : int -> t
val exact : int -> int -> t
val of_values : int -> int list -> t

val reduce : t -> t
(** Exchange information between components: filter sets through the bit
    view (rebuilding exact bits for small sets) and clip intervals to the
    bit view's hull.  Sound and idempotent. *)

val join : t -> t -> t
val widen : t -> t -> t
(** Like [join] but with {!Vset.widen} on the set component — use at
    program-point merges to guarantee fixpoint termination. *)

val equal : t -> t -> bool
val contains : t -> int -> bool
val to_exact : t -> int option
val values : t -> int list option
(** Exact finite enumeration if available ([Some []] for bottom). *)

val bit : t -> int -> Logic4.t
val bounds : t -> (int * int) option

val add : t -> t -> t
val sub : t -> t -> t
val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val shift_left : t -> int -> t
val shift_right : t -> int -> t
val mul : t -> t -> t
val mulh : t -> t -> t
val div : t -> t -> t
val rem_ : t -> t -> t

val refine_eq : t -> int -> t option
(** Branch refinement on "= x": [None] when the path is infeasible. *)

val refine_ne : t -> int -> t option
(** Branch refinement on "<> x" (sound, may keep [x] for intervals). *)

val pp : Format.formatter -> t -> unit

open Olfu_logic

(** 64-way bit-parallel four-valued words for pattern-parallel simulation.

    Each of the 64 lanes carries one pattern.  A lane encodes a value on two
    rails [(hi, lo)]:
    {ul
    {- [1] = (1, 0)}
    {- [0] = (0, 1)}
    {- [X] = (1, 1)}
    {- the (0, 0) code is unused and never produced.}}

    Gate evaluation is two or three 64-bit word operations, so simulating a
    gate processes 64 patterns at once. *)

type t = private { hi : int64; lo : int64 }

val width : int
(** Number of lanes, 64. *)

val zero : t
val one : t
val unknown : t

val make : hi:int64 -> lo:int64 -> t
(** Lanes where both rails are 0 are coerced to X. *)

val const : Logic4.t -> t
(** All 64 lanes set to the given scalar. *)

val get : t -> int -> Logic4.t
val set : t -> int -> Logic4.t -> t

val of_lanes : Logic4.t array -> t
(** [of_lanes a] packs up to 64 scalars; missing lanes are X. *)

val to_lanes : ?n:int -> t -> Logic4.t array

val equal : t -> t -> bool

val not_ : t -> t
val and2 : t -> t -> t
val or2 : t -> t -> t
val xor2 : t -> t -> t
val nand2 : t -> t -> t
val nor2 : t -> t -> t
val xnor2 : t -> t -> t
val mux : sel:t -> a:t -> b:t -> t

val force_mask : t -> m0:int64 -> m1:int64 -> t
(** Force lanes in [m0] to 0 and lanes in [m1] to 1 (per-lane stuck-at
    injection for fault-parallel simulation).  Overlapping masks leave the
    [m1] forcing winning on [hi] and [m0] on [lo] — callers keep them
    disjoint. *)

val select_mask : t -> t -> int64 -> t
(** [select_mask a b m]: lanes from [b] where [m] is set, else from [a]. *)

val diff_mask : t -> t -> int64
(** [diff_mask a b] has bit [i] set when lane [i] of [a] and [b] hold
    distinct {e binary} values (X never differs from anything) — the
    detection test of a pattern-parallel fault simulator. *)

val binary_mask : t -> int64
(** Lanes holding 0 or 1 (not X). *)

val pp : Format.formatter -> t -> unit

(** Cell library of the gate-level netlist IR.

    Every cell has exactly one output.  Sequential cells (the [Dff] family)
    are clocked by an implicit global clock; the clock pin still exists as a
    fault site ({!Pin.Clk}).  Input pin order is fixed per kind and
    documented below. *)

type kind =
  | Input  (** primary input; no fanin *)
  | Output  (** primary-output marker; fanin [[src]]; output echoes input *)
  | Tie0  (** constant 0 *)
  | Tie1  (** constant 1 *)
  | Tiex  (** constant unknown (a cut net) *)
  | Buf
  | Not
  | And
  | Nand
  | Or
  | Nor
  | Xor
  | Xnor  (** [And]..[Xnor]: n-input, n >= 1 *)
  | Mux2  (** fanin [[sel; a; b]]; output [a] when [sel]=0, [b] when 1 *)
  | Dff  (** fanin [[d]] *)
  | Dffr  (** fanin [[d; rstn]]; async active-low reset to 0 *)
  | Sdff  (** scan cell; fanin [[d; si; se]]; captures [si] when [se]=1 *)
  | Sdffr
      (** resettable scan cell; fanin [[d; si; se; rstn]]; async active-low
          reset to 0 dominates the scan path *)

val equal_kind : kind -> kind -> bool
val kind_name : kind -> string
val kind_of_name : string -> kind option

val arity : kind -> int option
(** Required fanin count; [None] for the variadic gates ([And]..[Xnor]). *)

val min_arity : kind -> int
val is_seq : kind -> bool
val is_tie : kind -> bool

val input_pin_name : kind -> int -> string
(** Conventional pin name, e.g. [Sdff] pins 0..2 are "D", "SI", "SE". *)

(** Pin designators used by fault sites and manipulations. *)
module Pin : sig
  type t =
    | Out  (** the cell output (the stem of its net) *)
    | In of int  (** fanin pin [i] (a fanout branch of the driving net) *)
    | Clk  (** clock pin of a sequential cell *)

  val equal : t -> t -> bool
  val compare : t -> t -> int

  val rank : t -> int
  (** The key of {!compare}: [Out] -2, [Clk] -1, [In i] [i] — the order
      {!pins} lists them in. *)

  val pp : Format.formatter -> t -> unit
  val to_string : t -> string
end

val pins : kind -> fanin_count:int -> Pin.t list
(** All fault-site pins of a cell of this kind, output first. *)

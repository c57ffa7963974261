open Olfu_netlist

(** Tseitin encoding of netlist cells into SAT clauses (shared by the
    {!Sat_atpg} miter and the {!Equiv} checker).  Operands and outputs are
    signed DIMACS-style literals. *)

val xor2_gate : Olfu_sat.Solver.t -> int -> int -> int -> unit
val equal_gate : Olfu_sat.Solver.t -> int -> int -> unit

val encode_cell :
  Olfu_sat.Solver.t -> (unit -> int) -> Cell.kind -> int -> int list -> unit
(** [encode_cell s fresh kind y ins]: clauses forcing [y] to equal the
    cell function of [ins]; [fresh] allocates helper variables.  Raises
    [Invalid_argument] on non-combinational kinds. *)

val encode_capture :
  Olfu_sat.Solver.t -> (unit -> int) -> Cell.kind -> int list -> int
(** Literal holding a flip-flop's captured next-state value. *)

(** Folding, hash-consing circuit construction over solver literals:
    structurally identical subterms share one variable and constants fold
    through — the workhorse of {!Equiv} and {!Bmc}. *)
module Builder : sig
  type t

  val create : Olfu_sat.Solver.t -> t
  (** Allocates the constant-true variable. *)

  val fresh : t -> int
  val vtrue : t -> int
  val is_true : t -> int -> bool
  val is_false : t -> int -> bool
  val of_bool : t -> bool -> int
  val mk_and : t -> int list -> int
  val mk_or : t -> int list -> int
  val mk_xor2 : t -> int -> int -> int

  val cell : t -> Cell.kind -> int list -> int
  val capture : t -> Cell.kind -> int list -> int
end

(** A small CDCL SAT solver: two-watched-literal propagation, first-UIP
    clause learning with backjumping, VSIDS-style activities with phase
    saving, and geometric restarts.  Built for the netlist miters of
    {!Olfu_atpg.Sat_atpg}; complete on the sizes this repository
    produces.

    Variables are positive integers from {!new_var}; literals are signed
    variables DIMACS-style ([-v] is the negation of [v]). *)

type t

val create : unit -> t

val new_var : t -> int
(** Allocates the next variable (1, 2, 3, ...). *)

val add_clause : t -> int list -> unit
(** Add a clause over existing variables.  The empty clause makes the
    instance trivially unsatisfiable.  Raises [Invalid_argument] on
    literals whose variable was never allocated. *)

type result =
  | Sat of (int -> bool)  (** model: value of each variable *)
  | Unsat
  | Unknown  (** conflict budget exhausted *)

val solve : ?assumptions:int list -> ?conflict_limit:int -> t -> result
(** [assumptions] are temporary unit decisions for this call only.
    [conflict_limit] (default unlimited) bounds the search.  The solver
    can be re-solved with different assumptions; learned clauses are
    kept. *)

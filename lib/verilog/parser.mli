(** Recursive-descent parser for the structural-Verilog subset. *)

exception Error of { line : int; message : string }

val design_of_string : string -> Ast.design

open Olfu_soc

(** SBST routine library for tcore — the "mature self-test suite" role of
    Sec. 4.  Every routine ends by storing result signatures to RAM and
    halting, because memory content is the only on-line observation
    point. *)

type t = {
  pname : string;
  items : Asm.item list;
}

val register_march : Soc.config -> t
(** March-style walk of the register file with inverted data backgrounds. *)

val alu_patterns : Soc.config -> t
(** ALU ops over checkerboard/walking operands, accumulated signatures. *)

val suite : Soc.config -> t list
val assemble : t -> int array

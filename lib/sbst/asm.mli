open Olfu_soc

(** Two-pass assembler for tcore programs with symbolic branch targets. *)

type item =
  | I of Isa.instr
  | L of string  (** label at the next instruction *)
  | Beqz of Isa.reg * string
  | Bnez of Isa.reg * string

val assemble : ?origin:int -> item list -> int array
(** Encoded instruction words.  [origin] is the word address of the first
    instruction (labels are PC-relative so it only matters for bounds
    checks).  Raises [Invalid_argument] on unknown/duplicate labels or
    branch offsets outside the signed 8-bit range. *)

val load_const : Isa.reg -> int -> item list
(** Instruction sequence building an arbitrary [xlen]-bit constant in a
    register (LI of the top byte, then shift-and-add nibbles). *)

val load_const_fixed : Isa.reg -> int -> nibbles:int -> item list
(** Fixed-length variant ([1 + 2*(nibbles-1)] instructions regardless of
    the value) so surrounding label arithmetic stays stable. *)

val label_addresses : item list -> (string * int) list
(** Word offset of each label from the start of the program. *)

exception Parse_error of { line : int; message : string }

val parse : string -> item list
(** Textual assembly, one statement per line: comments with [;] or [#],
    labels ending in [:], mnemonics [nop li addi add sub and or xor mul
    mulh div rem sll srl lw sw beqz bnez jr halt].  Register operands are
    [r0]..[r15]; memory operands are [\[rN\]]; branch targets are label
    names; immediates accept decimal and hex. *)

val parse_file : string -> item list

val pp_items : Format.formatter -> item list -> unit
(** Round-trip printer for {!parse}. *)

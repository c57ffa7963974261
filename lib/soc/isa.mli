(** The tcore instruction set: 16-bit fixed-width instructions, 16
    registers, word addressing.

    Layout: [op\[15:12\] | rd\[11:8\] | low\[7:0\]] where [low] is an 8-bit
    immediate, or [rs\[7:4\] | imm4\[3:0\]] for register/shift forms.  Shared
    by the gate-level decoder generator, the assembler and the behavioural
    simulator, so the three cannot drift apart. *)

type reg = int  (** 0..15 *)

type instr =
  | Nop
  | Mul of reg * reg  (** rd := low half of rd * rs (op 0, funct 1) *)
  | Mulh of reg * reg  (** rd := high half of rd * rs (op 0, funct 2) *)
  | Div of reg * reg  (** rd := rd / rs, restoring semantics (funct 3) *)
  | Rem of reg * reg  (** rd := rd mod rs, restoring semantics (funct 4) *)
  | Li of reg * int  (** rd := zext imm8 *)
  | Addi of reg * int  (** rd := rd + sext imm8 *)
  | Add of reg * reg  (** rd := rd + rs *)
  | Sub of reg * reg
  | And_ of reg * reg
  | Or_ of reg * reg
  | Xor_ of reg * reg
  | Sll of reg * int  (** rd := rd << imm4 *)
  | Srl of reg * int  (** logical *)
  | Lw of reg * reg  (** rd := mem\[rs\] *)
  | Sw of reg * reg  (** mem\[rs\] := rd *)
  | Beqz of reg * int  (** if rs = 0 then pc := pc + 1 + sext imm8 *)
  | Bnez of reg * int
  | Jr of reg  (** pc := rs *)
  | Halt

val encode : instr -> int

val decode : int -> instr
(** Total: every 16-bit word decodes (unused encodings normalize). *)

val pp : Format.formatter -> instr -> unit

(** Opcode numbers used by the gate-level decoder. *)
module Op : sig
  val nop : int
  val li : int
  val addi : int
  val add : int
  val sub : int
  val and_ : int
  val or_ : int
  val xor : int
  val sll : int
  val srl : int
  val lw : int
  val sw : int
  val beqz : int
  val bnez : int
  val jr : int
  val halt : int
end

type reg = int

type instr =
  | Nop
  | Mul of reg * reg
  | Mulh of reg * reg
  | Div of reg * reg
  | Rem of reg * reg
  | Li of reg * int
  | Addi of reg * int
  | Add of reg * reg
  | Sub of reg * reg
  | And_ of reg * reg
  | Or_ of reg * reg
  | Xor_ of reg * reg
  | Sll of reg * int
  | Srl of reg * int
  | Lw of reg * reg
  | Sw of reg * reg
  | Beqz of reg * int
  | Bnez of reg * int
  | Jr of reg
  | Halt

module Op = struct
  let nop = 0
  let li = 1
  let addi = 2
  let add = 3
  let sub = 4
  let and_ = 5
  let or_ = 6
  let xor = 7
  let sll = 8
  let srl = 9
  let lw = 10
  let sw = 11
  let beqz = 12
  let bnez = 13
  let jr = 14
  let halt = 15
end

let check_reg r = if r < 0 || r > 15 then invalid_arg "Isa: register 0..15"
let check_imm8 v = if v < -128 || v > 255 then invalid_arg "Isa: imm8 range"
let check_imm4 v = if v < 0 || v > 15 then invalid_arg "Isa: imm4 range"

let enc_ri op rd imm =
  check_reg rd;
  check_imm8 imm;
  (op lsl 12) lor (rd lsl 8) lor (imm land 0xFF)

let enc_rr op rd rs =
  check_reg rd;
  check_reg rs;
  (op lsl 12) lor (rd lsl 8) lor (rs lsl 4)

let enc_sh op rd sh =
  check_reg rd;
  check_imm4 sh;
  (op lsl 12) lor (rd lsl 8) lor sh

let encode = function
  | Nop -> 0
  | Mul (rd, rs) -> enc_rr Op.nop rd rs lor 1
  | Mulh (rd, rs) -> enc_rr Op.nop rd rs lor 2
  | Div (rd, rs) -> enc_rr Op.nop rd rs lor 3
  | Rem (rd, rs) -> enc_rr Op.nop rd rs lor 4
  | Li (rd, v) -> enc_ri Op.li rd v
  | Addi (rd, v) -> enc_ri Op.addi rd v
  | Add (rd, rs) -> enc_rr Op.add rd rs
  | Sub (rd, rs) -> enc_rr Op.sub rd rs
  | And_ (rd, rs) -> enc_rr Op.and_ rd rs
  | Or_ (rd, rs) -> enc_rr Op.or_ rd rs
  | Xor_ (rd, rs) -> enc_rr Op.xor rd rs
  | Sll (rd, sh) -> enc_sh Op.sll rd sh
  | Srl (rd, sh) -> enc_sh Op.srl rd sh
  | Lw (rd, rs) -> enc_rr Op.lw rd rs
  | Sw (rd, rs) -> enc_rr Op.sw rd rs
  | Beqz (rs, off) -> enc_ri Op.beqz rs off
  | Bnez (rs, off) -> enc_ri Op.bnez rs off
  | Jr (rs) -> enc_rr Op.jr rs 0
  | Halt -> Op.halt lsl 12

let decode w =
  let op = (w lsr 12) land 0xF in
  let rd = (w lsr 8) land 0xF in
  let rs = (w lsr 4) land 0xF in
  let imm8 = w land 0xFF in
  let imm4 = w land 0xF in
  if op = Op.nop then
    if imm4 = 1 then Mul (rd, rs)
    else if imm4 = 2 then Mulh (rd, rs)
    else if imm4 = 3 then Div (rd, rs)
    else if imm4 = 4 then Rem (rd, rs)
    else Nop
  else if op = Op.li then Li (rd, imm8)
  else if op = Op.addi then Addi (rd, imm8)
  else if op = Op.add then Add (rd, rs)
  else if op = Op.sub then Sub (rd, rs)
  else if op = Op.and_ then And_ (rd, rs)
  else if op = Op.or_ then Or_ (rd, rs)
  else if op = Op.xor then Xor_ (rd, rs)
  else if op = Op.sll then Sll (rd, imm4)
  else if op = Op.srl then Srl (rd, imm4)
  else if op = Op.lw then Lw (rd, rs)
  else if op = Op.sw then Sw (rd, rs)
  else if op = Op.beqz then Beqz (rd, imm8)
  else if op = Op.bnez then Bnez (rd, imm8)
  else if op = Op.jr then Jr rd
  else Halt

let pp ppf = function
  | Nop -> Format.pp_print_string ppf "nop"
  | Mul (rd, rs) -> Format.fprintf ppf "mul r%d, r%d" rd rs
  | Mulh (rd, rs) -> Format.fprintf ppf "mulh r%d, r%d" rd rs
  | Div (rd, rs) -> Format.fprintf ppf "div r%d, r%d" rd rs
  | Rem (rd, rs) -> Format.fprintf ppf "rem r%d, r%d" rd rs
  | Li (rd, v) -> Format.fprintf ppf "li r%d, %d" rd v
  | Addi (rd, v) -> Format.fprintf ppf "addi r%d, %d" rd v
  | Add (rd, rs) -> Format.fprintf ppf "add r%d, r%d" rd rs
  | Sub (rd, rs) -> Format.fprintf ppf "sub r%d, r%d" rd rs
  | And_ (rd, rs) -> Format.fprintf ppf "and r%d, r%d" rd rs
  | Or_ (rd, rs) -> Format.fprintf ppf "or r%d, r%d" rd rs
  | Xor_ (rd, rs) -> Format.fprintf ppf "xor r%d, r%d" rd rs
  | Sll (rd, sh) -> Format.fprintf ppf "sll r%d, %d" rd sh
  | Srl (rd, sh) -> Format.fprintf ppf "srl r%d, %d" rd sh
  | Lw (rd, rs) -> Format.fprintf ppf "lw r%d, [r%d]" rd rs
  | Sw (rd, rs) -> Format.fprintf ppf "sw r%d, [r%d]" rd rs
  | Beqz (rs, off) -> Format.fprintf ppf "beqz r%d, %d" rs off
  | Bnez (rs, off) -> Format.fprintf ppf "bnez r%d, %d" rs off
  | Jr rs -> Format.fprintf ppf "jr r%d" rs
  | Halt -> Format.pp_print_string ppf "halt"

open Olfu_soc

type item =
  | I of Isa.instr
  | L of string
  | Beqz of Isa.reg * string
  | Bnez of Isa.reg * string

let assemble ?(origin = 0) items =
  ignore origin;
  (* pass 1: label addresses *)
  let labels = Hashtbl.create 17 in
  let pc = ref 0 in
  List.iter
    (fun item ->
      match item with
      | L name ->
        if Hashtbl.mem labels name then
          invalid_arg (Printf.sprintf "Asm: duplicate label %s" name);
        Hashtbl.add labels name !pc
      | I _ | Beqz _ | Bnez _ -> incr pc)
    items;
  let target name =
    match Hashtbl.find_opt labels name with
    | Some a -> a
    | None -> invalid_arg (Printf.sprintf "Asm: unknown label %s" name)
  in
  (* pass 2 *)
  let words = ref [] in
  let pc = ref 0 in
  let offset name =
    let off = target name - (!pc + 1) in
    if off < -128 || off > 127 then
      invalid_arg (Printf.sprintf "Asm: branch to %s out of range" name);
    off land 0xFF
  in
  List.iter
    (fun item ->
      match item with
      | L _ -> ()
      | I i ->
        words := Isa.encode i :: !words;
        incr pc
      | Beqz (r, name) ->
        words := Isa.encode (Isa.Beqz (r, offset name)) :: !words;
        incr pc
      | Bnez (r, name) ->
        words := Isa.encode (Isa.Bnez (r, offset name)) :: !words;
        incr pc)
    items;
  Array.of_list (List.rev !words)

let load_const rd value =
  if value < 0 then invalid_arg "Asm.load_const: negative";
  (* collect nibbles, most significant first, dropping leading zeros *)
  let rec nibbles v acc = if v = 0 then acc else nibbles (v lsr 4) ((v land 0xF) :: acc) in
  match nibbles value [] with
  | [] -> [ I (Isa.Li (rd, 0)) ]
  | top :: rest ->
    I (Isa.Li (rd, top))
    :: List.concat_map
         (fun nib ->
           I (Isa.Sll (rd, 4))
           :: (if nib = 0 then [] else [ I (Isa.Addi (rd, nib)) ]))
         rest

let load_const_fixed rd value ~nibbles =
  if nibbles < 1 then invalid_arg "Asm.load_const_fixed: nibbles >= 1";
  if value lsr (4 * nibbles) <> 0 then
    invalid_arg "Asm.load_const_fixed: value does not fit";
  let nib k = (value lsr (4 * k)) land 0xF in
  I (Isa.Li (rd, nib (nibbles - 1)))
  :: List.concat
       (List.init (nibbles - 1) (fun j ->
            let k = nibbles - 2 - j in
            [ I (Isa.Sll (rd, 4)); I (Isa.Addi (rd, nib k)) ]))

let label_addresses items =
  let pc = ref 0 in
  List.filter_map
    (fun item ->
      match item with
      | L name -> Some (name, !pc)
      | I _ | Beqz _ | Bnez _ ->
        incr pc;
        None)
    items

(* ---- textual assembly ---- *)

exception Parse_error of { line : int; message : string }

let fail line fmt =
  Format.kasprintf (fun message -> raise (Parse_error { line; message })) fmt

let strip_comment s =
  let cut c s =
    match String.index_opt s c with
    | Some i -> String.sub s 0 i
    | None -> s
  in
  String.trim (cut '#' (cut ';' s))

let split_operands s =
  String.split_on_char ',' s
  |> List.map String.trim
  |> List.filter (fun x -> x <> "")

let parse_reg line s =
  let s = String.lowercase_ascii s in
  if String.length s >= 2 && s.[0] = 'r' then
    match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
    | Some r when r >= 0 && r <= 15 -> r
    | _ -> fail line "bad register %S" s
  else fail line "expected register, got %S" s

let parse_mem line s =
  let n = String.length s in
  if n >= 4 && s.[0] = '[' && s.[n - 1] = ']' then
    parse_reg line (String.trim (String.sub s 1 (n - 2)))
  else fail line "expected [rN], got %S" s

let parse_imm line s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> fail line "bad immediate %S" s

let parse_line lineno text =
  let text = strip_comment text in
  if text = "" then []
  else if String.length text > 1 && text.[String.length text - 1] = ':' then
    [ L (String.trim (String.sub text 0 (String.length text - 1))) ]
  else begin
    let mnemonic, rest =
      match String.index_opt text ' ' with
      | None -> (text, "")
      | Some i ->
        ( String.sub text 0 i,
          String.sub text (i + 1) (String.length text - i - 1) )
    in
    let ops = split_operands rest in
    let reg k = parse_reg lineno (List.nth ops k) in
    let imm k = parse_imm lineno (List.nth ops k) in
    let mem k = parse_mem lineno (List.nth ops k) in
    let need n =
      if List.length ops <> n then
        fail lineno "%s expects %d operands, got %d" mnemonic n
          (List.length ops)
    in
    let rr mk =
      need 2;
      [ I (mk (reg 0) (reg 1)) ]
    in
    let ri mk =
      need 2;
      [ I (mk (reg 0) (imm 1)) ]
    in
    match String.lowercase_ascii mnemonic with
    | "nop" ->
      need 0;
      [ I Isa.Nop ]
    | "halt" ->
      need 0;
      [ I Isa.Halt ]
    | "li" -> ri (fun r v -> Isa.Li (r, v))
    | "addi" -> ri (fun r v -> Isa.Addi (r, v land 0xFF))
    | "add" -> rr (fun a b -> Isa.Add (a, b))
    | "sub" -> rr (fun a b -> Isa.Sub (a, b))
    | "and" -> rr (fun a b -> Isa.And_ (a, b))
    | "or" -> rr (fun a b -> Isa.Or_ (a, b))
    | "xor" -> rr (fun a b -> Isa.Xor_ (a, b))
    | "mul" -> rr (fun a b -> Isa.Mul (a, b))
    | "mulh" -> rr (fun a b -> Isa.Mulh (a, b))
    | "div" -> rr (fun a b -> Isa.Div (a, b))
    | "rem" -> rr (fun a b -> Isa.Rem (a, b))
    | "sll" -> ri (fun r v -> Isa.Sll (r, v))
    | "srl" -> ri (fun r v -> Isa.Srl (r, v))
    | "lw" ->
      need 2;
      [ I (Isa.Lw (reg 0, mem 1)) ]
    | "sw" ->
      need 2;
      [ I (Isa.Sw (reg 0, mem 1)) ]
    | "jr" ->
      need 1;
      [ I (Isa.Jr (reg 0)) ]
    | "beqz" ->
      need 2;
      [ Beqz (reg 0, List.nth ops 1) ]
    | "bnez" ->
      need 2;
      [ Bnez (reg 0, List.nth ops 1) ]
    | m -> fail lineno "unknown mnemonic %S" m
  end

let parse src =
  String.split_on_char '\n' src
  |> List.mapi (fun i line -> parse_line (i + 1) line)
  |> List.concat

let parse_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  parse src

let pp_items ppf items =
  List.iter
    (fun item ->
      match item with
      | L name -> Format.fprintf ppf "%s:@." name
      | I i -> Format.fprintf ppf "    %a@." Isa.pp i
      | Beqz (r, l) -> Format.fprintf ppf "    beqz r%d, %s@." r l
      | Bnez (r, l) -> Format.fprintf ppf "    bnez r%d, %s@." r l)
    items

exception Error of { line : int; message : string }

let fail lx message = raise (Error { line = Lexer.line lx; message })

let expect lx tok label =
  let got = Lexer.next lx in
  if got <> tok then
    fail lx
      (Format.asprintf "expected %s, got %a" label Lexer.pp_token got)

let ident lx =
  match Lexer.next lx with
  | Lexer.Ident s -> s
  | got -> fail lx (Format.asprintf "expected identifier, got %a" Lexer.pp_token got)

let number lx =
  match Lexer.next lx with
  | Lexer.Number n -> n
  | got -> fail lx (Format.asprintf "expected number, got %a" Lexer.pp_token got)

(* [ msb : lsb ] *)
let range_opt lx =
  match Lexer.peek lx with
  | Lexer.Lbracket ->
    ignore (Lexer.next lx : Lexer.token);
    let msb = number lx in
    expect lx Lexer.Colon "':'";
    let lsb = number lx in
    expect lx Lexer.Rbracket "']'";
    Some { Ast.msb; lsb }
  | _ -> None

let decl_list lx =
  let drange = range_opt lx in
  let rec more acc =
    let d = { Ast.dname = ident lx; drange } in
    match Lexer.peek lx with
    | Lexer.Comma ->
      ignore (Lexer.next lx : Lexer.token);
      more (d :: acc)
    | _ ->
      expect lx Lexer.Semi "';'";
      List.rev (d :: acc)
  in
  more []

let expr lx =
  match Lexer.next lx with
  | Lexer.Literal v -> Ast.Lit v
  | Lexer.Ident s -> (
    match Lexer.peek lx with
    | Lexer.Lbracket ->
      ignore (Lexer.next lx : Lexer.token);
      let i = number lx in
      expect lx Lexer.Rbracket "']'";
      Ast.Bit (s, i)
    | _ -> Ast.Ref s)
  | got -> fail lx (Format.asprintf "expected net expression, got %a" Lexer.pp_token got)

let connection lx =
  match Lexer.peek lx with
  | Lexer.Dot ->
    ignore (Lexer.next lx : Lexer.token);
    let pin = ident lx in
    expect lx Lexer.Lparen "'('";
    (* allow unconnected pins: .RSTN() *)
    let e =
      match Lexer.peek lx with
      | Lexer.Rparen -> Ast.Lit Olfu_logic.Logic4.Z
      | _ -> expr lx
    in
    expect lx Lexer.Rparen "')'";
    Ast.Named (pin, e)
  | _ -> Ast.Pos (expr lx)

let connections lx =
  expect lx Lexer.Lparen "'('";
  match Lexer.peek lx with
  | Lexer.Rparen ->
    ignore (Lexer.next lx : Lexer.token);
    []
  | _ ->
    let rec more acc =
      let c = connection lx in
      match Lexer.next lx with
      | Lexer.Comma -> more (c :: acc)
      | Lexer.Rparen -> List.rev (c :: acc)
      | got ->
        fail lx (Format.asprintf "expected ',' or ')', got %a" Lexer.pp_token got)
    in
    more []

let item lx =
  match Lexer.next lx with
  | Lexer.Kw_input -> Ast.Input (decl_list lx)
  | Lexer.Kw_output -> Ast.Output (decl_list lx)
  | Lexer.Kw_wire -> Ast.Wire (decl_list lx)
  | Lexer.Ident master ->
    let iname = ident lx in
    let conns = connections lx in
    expect lx Lexer.Semi "';'";
    Ast.Instance { master; iname; conns }
  | got -> fail lx (Format.asprintf "expected module item, got %a" Lexer.pp_token got)

let port_list lx =
  match Lexer.peek lx with
  | Lexer.Lparen ->
    ignore (Lexer.next lx : Lexer.token);
    (match Lexer.peek lx with
    | Lexer.Rparen ->
      ignore (Lexer.next lx : Lexer.token);
      []
    | _ ->
      let rec more acc =
        let p = ident lx in
        match Lexer.next lx with
        | Lexer.Comma -> more (p :: acc)
        | Lexer.Rparen -> List.rev (p :: acc)
        | got ->
          fail lx
            (Format.asprintf "expected ',' or ')', got %a" Lexer.pp_token got)
      in
      more [])
  | _ -> []

let modul lx =
  expect lx Lexer.Kw_module "'module'";
  let mname = ident lx in
  let ports = port_list lx in
  expect lx Lexer.Semi "';'";
  let rec items acc =
    match Lexer.peek lx with
    | Lexer.Kw_endmodule ->
      ignore (Lexer.next lx : Lexer.token);
      List.rev acc
    | Lexer.Eof -> fail lx "missing endmodule"
    | _ -> items (item lx :: acc)
  in
  { Ast.mname; ports; items = items [] }

let design_of_string src =
  let lx = Lexer.of_string src in
  try
    let rec mods acc =
      match Lexer.peek lx with
      | Lexer.Eof -> List.rev acc
      | _ -> mods (modul lx :: acc)
    in
    mods []
  with Lexer.Error { line; message } -> raise (Error { line; message })

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing                                                           *)
(* ------------------------------------------------------------------ *)

(* The printer appends to [buf] and calls [spill] between pieces, so one
   emitter builds a string ([to_string]) or streams to a channel in
   bounded chunks ([to_channel]): a daemon answer can be megabytes. *)
type out = { buf : Buffer.t; spill : unit -> unit }

(* The characters a string literal must escape, by code. *)
let must_escape =
  Array.init 256 (fun k -> k < 32 || k = Char.code '"' || k = Char.code '\\')

(* Runs of characters that need no escape are found by one table lookup
   per character and copied in one piece.  This scan is the hot loop of
   a daemon cache hit. *)
let escape_to o s =
  let b = o.buf in
  Buffer.add_char b '"';
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    let start = !i in
    (* a char code is below 256, the table's length *)
    while
      !i < n
      && not (Array.unsafe_get must_escape (Char.code (String.unsafe_get s !i)))
    do
      incr i
    done;
    Buffer.add_substring b s start (!i - start);
    if !i < n then begin
      Buffer.add_string b
        (match String.unsafe_get s !i with
        | '"' -> "\\\""
        | '\\' -> "\\\\"
        | '\n' -> "\\n"
        | '\r' -> "\\r"
        | '\t' -> "\\t"
        | c -> Printf.sprintf "\\u%04x" (Char.code c));
      o.spill ();
      incr i
    end
  done;
  Buffer.add_char b '"'

let float_to buf f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.1f" f)
  else if Float.is_finite f then
    Buffer.add_string buf (Printf.sprintf "%.12g" f)
  else Buffer.add_string buf "null" (* nan/inf have no JSON form *)

let rec emit o ~indent ~level v =
  let buf = o.buf in
  let pad n = if indent then Buffer.add_string buf (String.make (2 * n) ' ') in
  let sep () = if indent then Buffer.add_char buf '\n' in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> float_to buf f
  | Str s -> escape_to o s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
    Buffer.add_char buf '[';
    sep ();
    List.iteri
      (fun k item ->
        if k > 0 then begin
          Buffer.add_char buf ',';
          sep ()
        end;
        pad (level + 1);
        emit o ~indent ~level:(level + 1) item;
        o.spill ())
      items;
    sep ();
    pad level;
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
    Buffer.add_char buf '{';
    sep ();
    List.iteri
      (fun k (key, item) ->
        if k > 0 then begin
          Buffer.add_char buf ',';
          sep ()
        end;
        pad (level + 1);
        escape_to o key;
        Buffer.add_string buf (if indent then ": " else ":");
        emit o ~indent ~level:(level + 1) item;
        o.spill ())
      fields;
    sep ();
    pad level;
    Buffer.add_char buf '}'

let output o ~indent v =
  emit o ~indent ~level:0 v;
  if indent then Buffer.add_char o.buf '\n'

let to_string ?(indent = false) v =
  let buf = Buffer.create 1024 in
  output { buf; spill = ignore } ~indent v;
  Buffer.contents buf

let chunk = 65536

(* the buffer starts small: most answers are a few hundred bytes *)
let to_channel ?(indent = false) oc v =
  let buf = Buffer.create 1024 in
  let spill () =
    if Buffer.length buf >= chunk then begin
      Buffer.output_buffer oc buf;
      Buffer.clear buf
    end
  in
  output { buf; spill } ~indent v;
  Buffer.output_buffer oc buf

let to_file ?indent path v =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> to_channel ?indent oc v)

(* ------------------------------------------------------------------ *)
(* Strict parsing                                                     *)
(* ------------------------------------------------------------------ *)

exception Bad of string * int

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail m = raise (Bad (m, !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let next () =
    if !pos >= n then fail "unexpected end of input"
    else begin
      let c = s.[!pos] in
      incr pos;
      c
    end
  in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    let g = next () in
    if g <> c then fail (Printf.sprintf "expected %C, got %C" c g)
  in
  let literal word v =
    String.iter (fun c -> expect c) word;
    v
  in
  let hex4 () =
    let d = ref 0 in
    for _ = 1 to 4 do
      let c = next () in
      let v =
        match c with
        | '0' .. '9' -> Char.code c - Char.code '0'
        | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad \\u escape"
      in
      d := (!d * 16) + v
    done;
    !d
  in
  (* A literal is runs of plain characters, each copied in one piece,
     with every escape decoded where it stands; a literal without
     escapes is one [String.sub].  The plain characters are those the
     printer copies unescaped, found by the same table.  Escaped
     literals decode into one buffer, made at the first escape as large
     as the rest of the input: no literal decodes to more bytes than its
     source, so it never grows. *)
  let scratch = ref None in
  let parse_string () =
    expect '"';
    let rec run start escaped =
      (* a local index, kept in a register *)
      let i = ref start in
      while
        !i < n
        && not (Array.unsafe_get must_escape (Char.code (String.unsafe_get s !i)))
      do
        incr i
      done;
      pos := !i;
      let len = !i - start in
      match next () with
      | '"' -> (
        match !scratch with
        | Some buf when escaped ->
          Buffer.add_substring buf s start len;
          Buffer.contents buf
        | _ -> String.sub s start len)
      | '\\' ->
        let buf =
          match !scratch with
          | Some buf ->
            if not escaped then Buffer.clear buf;
            buf
          | None ->
            let buf = Buffer.create (n - start) in
            scratch := Some buf;
            buf
        in
        Buffer.add_substring buf s start len;
        (match next () with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          (* decode to UTF-8; surrogate pairs accepted *)
          let cp = hex4 () in
          let cp =
            if cp >= 0xD800 && cp <= 0xDBFF then begin
              expect '\\';
              expect 'u';
              let lo = hex4 () in
              if lo < 0xDC00 || lo > 0xDFFF then fail "unpaired surrogate";
              0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
            end
            else if cp >= 0xDC00 && cp <= 0xDFFF then
              fail "unpaired surrogate"
            else cp
          in
          Buffer.add_utf_8_uchar buf (Uchar.of_int cp)
        | c -> fail (Printf.sprintf "bad escape \\%C" c));
        run !pos true
      | _ -> fail "raw control character in string"
    in
    run !pos false
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then incr pos;
    let digits () =
      let d0 = !pos in
      while
        !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false
      do
        incr pos
      done;
      if !pos = d0 then fail "expected digit"
    in
    (* leading zero rule: 0 or [1-9][0-9]* *)
    (match peek () with
    | Some '0' ->
      incr pos;
      (match peek () with
      | Some '0' .. '9' -> fail "leading zero"
      | _ -> ())
    | Some '1' .. '9' -> digits ()
    | _ -> fail "expected digit");
    let is_float = ref false in
    if peek () = Some '.' then begin
      is_float := true;
      incr pos;
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      is_float := true;
      incr pos;
      (match peek () with
      | Some ('+' | '-') -> incr pos
      | _ -> ());
      digits ()
    | _ -> ());
    let text = String.sub s start (!pos - start) in
    if !is_float then Float (float_of_string text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> Float (float_of_string text)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '{' ->
      incr pos;
      skip_ws ();
      if peek () = Some '}' then begin
        incr pos;
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          fields := (key, v) :: !fields;
          skip_ws ();
          match next () with
          | ',' -> members ()
          | '}' -> ()
          | c -> fail (Printf.sprintf "expected ',' or '}', got %C" c)
        in
        members ();
        Obj (List.rev !fields)
      end
    | Some '[' ->
      incr pos;
      skip_ws ();
      if peek () = Some ']' then begin
        incr pos;
        List []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value () in
          items := v :: !items;
          skip_ws ();
          match next () with
          | ',' -> elements ()
          | ']' -> ()
          | c -> fail (Printf.sprintf "expected ',' or ']', got %C" c)
        in
        elements ();
        List (List.rev !items)
      end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected %C" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad (m, p) -> Error (Printf.sprintf "%s at offset %d" m p)

(* ------------------------------------------------------------------ *)
(* Accessors                                                          *)
(* ------------------------------------------------------------------ *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let to_float_opt = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None

let to_int_opt = function Int i -> Some i | _ -> None
let to_string_opt = function Str s -> Some s | _ -> None
let to_list_opt = function List l -> Some l | _ -> None

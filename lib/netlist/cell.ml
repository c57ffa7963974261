type kind =
  | Input
  | Output
  | Tie0
  | Tie1
  | Tiex
  | Buf
  | Not
  | And
  | Nand
  | Or
  | Nor
  | Xor
  | Xnor
  | Mux2
  | Dff
  | Dffr
  | Sdff
  | Sdffr

let equal_kind (a : kind) b = a = b

let kind_name = function
  | Input -> "INPUT"
  | Output -> "OUTPUT"
  | Tie0 -> "TIE0"
  | Tie1 -> "TIE1"
  | Tiex -> "TIEX"
  | Buf -> "BUF"
  | Not -> "NOT"
  | And -> "AND"
  | Nand -> "NAND"
  | Or -> "OR"
  | Nor -> "NOR"
  | Xor -> "XOR"
  | Xnor -> "XNOR"
  | Mux2 -> "MUX2"
  | Dff -> "DFF"
  | Dffr -> "DFFR"
  | Sdff -> "SDFF"
  | Sdffr -> "SDFFR"

let all_kinds =
  [ Input; Output; Tie0; Tie1; Tiex; Buf; Not; And; Nand; Or; Nor; Xor; Xnor;
    Mux2; Dff; Dffr; Sdff; Sdffr ]

let kind_of_name s =
  let s = String.uppercase_ascii s in
  List.find_opt (fun k -> kind_name k = s) all_kinds

let arity = function
  | Input | Tie0 | Tie1 | Tiex -> Some 0
  | Output | Buf | Not | Dff -> Some 1
  | Dffr -> Some 2
  | Mux2 | Sdff -> Some 3
  | Sdffr -> Some 4
  | And | Nand | Or | Nor | Xor | Xnor -> None

let min_arity k = match arity k with Some n -> n | None -> 1
let is_seq = function Dff | Dffr | Sdff | Sdffr -> true | _ -> false
let is_tie = function Tie0 | Tie1 | Tiex -> true | _ -> false
let has_clock = is_seq

let input_pin_name k i =
  match k, i with
  | Output, 0 -> "A"
  | (Buf | Not), 0 -> "A"
  | Mux2, 0 -> "S"
  | Mux2, 1 -> "A"
  | Mux2, 2 -> "B"
  | (Dff | Dffr | Sdff | Sdffr), 0 -> "D"
  | Dffr, 1 -> "RSTN"
  | (Sdff | Sdffr), 1 -> "SI"
  | (Sdff | Sdffr), 2 -> "SE"
  | Sdffr, 3 -> "RSTN"
  | _ -> Printf.sprintf "I%d" i

module Pin = struct
  type t = Out | In of int | Clk

  let equal a b =
    match a, b with
    | Out, Out | Clk, Clk -> true
    | In i, In j -> Int.equal i j
    | (Out | Clk | In _), _ -> false

  let rank = function Out -> -2 | Clk -> -1 | In i -> i
  let compare a b = Int.compare (rank a) (rank b)

  let to_string = function
    | Out -> "OUT"
    | Clk -> "CLK"
    | In i -> Printf.sprintf "IN%d" i

  let pp ppf p = Format.pp_print_string ppf (to_string p)
end

let pins k ~fanin_count =
  let ins = List.init fanin_count (fun i -> Pin.In i) in
  let clk = if has_clock k then [ Pin.Clk ] else [] in
  (Pin.Out :: clk) @ ins

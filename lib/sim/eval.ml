open Olfu_logic
open Olfu_netlist

let bad k =
  invalid_arg
    (Printf.sprintf "Eval: %s is not combinational" (Cell.kind_name k))

let fold1 f init ins = Array.fold_left f init ins

let comb (k : Cell.kind) (ins : Logic4.t array) : Logic4.t =
  match k with
  | Output | Buf -> ins.(0)
  | Not -> Logic4.not_ ins.(0)
  | And -> fold1 Logic4.and2 Logic4.L1 ins
  | Nand -> Logic4.not_ (fold1 Logic4.and2 Logic4.L1 ins)
  | Or -> fold1 Logic4.or2 Logic4.L0 ins
  | Nor -> Logic4.not_ (fold1 Logic4.or2 Logic4.L0 ins)
  | Xor -> fold1 Logic4.xor2 Logic4.L0 ins
  | Xnor -> Logic4.not_ (fold1 Logic4.xor2 Logic4.L0 ins)
  | Mux2 -> Logic4.mux ~sel:ins.(0) ~a:ins.(1) ~b:ins.(2)
  | Tie0 -> Logic4.L0
  | Tie1 -> Logic4.L1
  | Tiex -> Logic4.X
  | Input | Dff | Dffr | Sdff | Sdffr -> bad k

let comb5 (k : Cell.kind) (ins : Logic5.t array) : Logic5.t =
  match k with
  | Output | Buf -> ins.(0)
  | Not -> Logic5.not_ ins.(0)
  | And -> fold1 Logic5.and2 Logic5.One ins
  | Nand -> Logic5.not_ (fold1 Logic5.and2 Logic5.One ins)
  | Or -> fold1 Logic5.or2 Logic5.Zero ins
  | Nor -> Logic5.not_ (fold1 Logic5.or2 Logic5.Zero ins)
  | Xor -> fold1 Logic5.xor2 Logic5.Zero ins
  | Xnor -> Logic5.not_ (fold1 Logic5.xor2 Logic5.Zero ins)
  | Mux2 -> Logic5.mux ~sel:ins.(0) ~a:ins.(1) ~b:ins.(2)
  | Tie0 -> Logic5.Zero
  | Tie1 -> Logic5.One
  | Tiex -> Logic5.X
  | Input | Dff | Dffr | Sdff | Sdffr -> bad k

let next_state (k : Cell.kind) ~(ins : Logic4.t array) ~current =
  match k with
  | Dff -> ins.(0)
  | Dffr -> (
    match ins.(1) with
    | Logic4.L0 -> Logic4.L0
    | Logic4.L1 -> ins.(0)
    | Logic4.X | Logic4.Z ->
      if Logic4.equal ins.(0) Logic4.L0 then Logic4.L0 else Logic4.X)
  | Sdff -> Logic4.mux ~sel:ins.(2) ~a:ins.(0) ~b:ins.(1)
  | Sdffr -> (
    let captured = Logic4.mux ~sel:ins.(2) ~a:ins.(0) ~b:ins.(1) in
    match ins.(3) with
    | Logic4.L0 -> Logic4.L0
    | Logic4.L1 -> captured
    | Logic4.X | Logic4.Z ->
      if Logic4.equal captured Logic4.L0 then Logic4.L0 else Logic4.X)
  | _ -> ignore current; bad k

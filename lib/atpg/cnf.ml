open Olfu_netlist
module S = Olfu_sat.Solver

(* ---- gate CNF helpers: operands and outputs are signed literals ---- *)

let and_gate s y ins =
  (* y <-> AND ins *)
  List.iter (fun a -> S.add_clause s [ -y; a ]) ins;
  S.add_clause s (y :: List.map (fun a -> -a) ins)

let or_gate s y ins =
  List.iter (fun a -> S.add_clause s [ y; -a ]) ins;
  S.add_clause s (-y :: ins)

let xor2_gate s y a b =
  S.add_clause s [ -y; a; b ];
  S.add_clause s [ -y; -a; -b ];
  S.add_clause s [ y; -a; b ];
  S.add_clause s [ y; a; -b ]

let equal_gate s y a =
  S.add_clause s [ -y; a ];
  S.add_clause s [ y; -a ]

let mux_gate s y sel a b =
  (* y = sel ? b : a *)
  S.add_clause s [ sel; -a; y ];
  S.add_clause s [ sel; a; -y ];
  S.add_clause s [ -sel; -b; y ];
  S.add_clause s [ -sel; b; -y ]

let rec xor_chain s fresh y = function
  | [] -> invalid_arg "xor_chain: empty"
  | [ a ] -> equal_gate s y a
  | [ a; b ] -> xor2_gate s y a b
  | a :: b :: rest ->
    let t = fresh () in
    xor2_gate s t a b;
    xor_chain s fresh y (t :: rest)

(* Encode one cell: [y] is the output literal, [ins] the operand
   literals. *)
let encode_cell s fresh (k : Cell.kind) y ins =
  match k with
  | Cell.Buf | Cell.Output -> equal_gate s y (List.hd ins)
  | Cell.Not -> equal_gate s y (- List.hd ins)
  | Cell.And -> and_gate s y ins
  | Cell.Nand -> and_gate s (-y) ins
  | Cell.Or -> or_gate s y ins
  | Cell.Nor -> or_gate s (-y) ins
  | Cell.Xor -> xor_chain s fresh y ins
  | Cell.Xnor -> xor_chain s fresh (-y) ins
  | Cell.Mux2 -> (
    match ins with
    | [ sel; a; b ] -> mux_gate s y sel a b
    | _ -> assert false)
  | Cell.Input | Cell.Tie0 | Cell.Tie1 | Cell.Tiex | Cell.Dff | Cell.Dffr
  | Cell.Sdff | Cell.Sdffr ->
    invalid_arg "Sat_atpg.encode_cell: not a combinational cell"

(* Capture value of a flip-flop as a literal built over operand
   literals. *)
let encode_capture s fresh (k : Cell.kind) ins =
  match k, ins with
  | Cell.Dff, [ d ] -> d
  | Cell.Dffr, [ d; rstn ] ->
    let y = fresh () in
    and_gate s y [ d; rstn ];
    y
  | Cell.Sdff, [ d; si; se ] ->
    let y = fresh () in
    mux_gate s y se d si;
    y
  | Cell.Sdffr, [ d; si; se; rstn ] ->
    let m = fresh () in
    mux_gate s m se d si;
    let y = fresh () in
    and_gate s y [ m; rstn ];
    y
  | _ -> invalid_arg "Sat_atpg.encode_capture"


(* ---- folding, hash-consing circuit builder over solver literals ---- *)

(* A hash-consing key: a gate tag followed by the gate's operand
   literals. *)
module Key = Hashtbl.Make (struct
  type t = int list

  let equal = List.equal Int.equal
  let hash l = Hashtbl.hash (List.fold_left (fun h x -> (31 * h) + x) 0 l)
end)

module Builder = struct
  type t = {
    s : S.t;
    vtrue : int;
    cons : int Key.t;
  }

  let create s =
    let vtrue = S.new_var s in
    S.add_clause s [ vtrue ];
    { s; vtrue; cons = Key.create 9973 }

  let fresh b = S.new_var b.s
  let vtrue b = b.vtrue
  let is_true b l = l = b.vtrue
  let is_false b l = l = -b.vtrue
  let of_bool b v = if v then b.vtrue else -b.vtrue

  let tag_and = 0
  let tag_xor = 1
  let tag_mux = 2

  let hashcons b tag lits build =
    let k = tag :: lits in
    match Key.find_opt b.cons k with
    | Some l -> l
    | None ->
      let l = build () in
      Key.replace b.cons k l;
      l

  let rec mk_and b lits =
    let lits = List.sort_uniq Int.compare lits in
    if List.exists (is_false b) lits then -b.vtrue
    else
      let lits = List.filter (fun l -> not (is_true b l)) lits in
      if List.exists (fun l -> List.exists (Int.equal (-l)) lits) lits then
        -b.vtrue
      else
        match lits with
        | [] -> b.vtrue
        | [ l ] -> l
        | _ ->
          hashcons b tag_and lits (fun () ->
              let y = fresh b in
              and_gate b.s y lits;
              y)

  and mk_or b lits = -mk_and b (List.map (fun l -> -l) lits)

  let mk_xor2 b x y =
    if is_false b x then y
    else if is_false b y then x
    else if is_true b x then -y
    else if is_true b y then -x
    else if x = y then -b.vtrue
    else if x = -y then b.vtrue
    else begin
      let sign = (if x < 0 then 1 else 0) + (if y < 0 then 1 else 0) in
      let x = abs x and y = abs y in
      let x, y = (min x y, max x y) in
      let v =
        hashcons b tag_xor [ x; y ] (fun () ->
            let v = fresh b in
            xor2_gate b.s v x y;
            v)
      in
      if sign land 1 = 1 then -v else v
    end

  let mk_xor b lits = List.fold_left (mk_xor2 b) (-b.vtrue) lits

  let mk_mux b sel x y =
    (* sel ? y : x *)
    if is_false b sel then x
    else if is_true b sel then y
    else if x = y then x
    else
      hashcons b tag_mux [ sel; x; y ] (fun () ->
          let v = fresh b in
          mux_gate b.s v sel x y;
          v)

  let cell b (k : Cell.kind) ins =
    match k with
    | Cell.Buf | Cell.Output -> List.hd ins
    | Cell.Not -> -List.hd ins
    | Cell.And -> mk_and b ins
    | Cell.Nand -> -mk_and b ins
    | Cell.Or -> mk_or b ins
    | Cell.Nor -> -mk_or b ins
    | Cell.Xor -> mk_xor b ins
    | Cell.Xnor -> -mk_xor b ins
    | Cell.Mux2 -> (
      match ins with
      | [ sel; x; y ] -> mk_mux b sel x y
      | _ -> assert false)
    | Cell.Input | Cell.Tie0 | Cell.Tie1 | Cell.Tiex | Cell.Dff | Cell.Dffr
    | Cell.Sdff | Cell.Sdffr ->
      invalid_arg "Cnf.Builder.cell"

  let capture b (k : Cell.kind) ins =
    match k, ins with
    | Cell.Dff, [ d ] -> d
    | Cell.Dffr, [ d; rstn ] -> mk_and b [ d; rstn ]
    | Cell.Sdff, [ d; si; se ] -> mk_mux b se d si
    | Cell.Sdffr, [ d; si; se; rstn ] -> mk_and b [ mk_mux b se d si; rstn ]
    | _ -> invalid_arg "Cnf.Builder.capture"
end

open Olfu_logic

type t = { hi : int64; lo : int64 }

let width = 64

let ( &. ) = Int64.logand
let ( |. ) = Int64.logor
let ( ^. ) = Int64.logxor
let lnot64 = Int64.lognot

let zero = { hi = 0L; lo = -1L }
let one = { hi = -1L; lo = 0L }
let unknown = { hi = -1L; lo = -1L }

(* Invariant: no lane is (0,0).  Coerce such lanes to X. *)
let norm v =
  let dead = lnot64 (v.hi |. v.lo) in
  if dead = 0L then v else { hi = v.hi |. dead; lo = v.lo |. dead }

let make ~hi ~lo = norm { hi; lo }

let const = function
  | Logic4.L0 -> zero
  | Logic4.L1 -> one
  | Logic4.X | Logic4.Z -> unknown

let bit w i = Int64.logand (Int64.shift_right_logical w i) 1L <> 0L

let get v i =
  match bit v.hi i, bit v.lo i with
  | true, false -> Logic4.L1
  | false, true -> Logic4.L0
  | _ -> Logic4.X

let set v i x =
  let m = Int64.shift_left 1L i in
  let clear w = w &. lnot64 m in
  match (x : Logic4.t) with
  | L0 -> { hi = clear v.hi; lo = v.lo |. m }
  | L1 -> { hi = v.hi |. m; lo = clear v.lo }
  | X | Z -> { hi = v.hi |. m; lo = v.lo |. m }

let of_lanes a =
  let v = ref unknown in
  Array.iteri (fun i x -> if i < width then v := set !v i x) a;
  !v

let to_lanes ?(n = width) v = Array.init n (get v)

let equal a b = a.hi = b.hi && a.lo = b.lo

let not_ v = { hi = v.lo; lo = v.hi }
let and2 a b = { hi = a.hi &. b.hi; lo = a.lo |. b.lo }
let or2 a b = { hi = a.hi |. b.hi; lo = a.lo &. b.lo }
let nand2 a b = not_ (and2 a b)
let nor2 a b = not_ (or2 a b)

let xor2 a b =
  (* Result is binary only where both operands are binary. *)
  let ax = a.hi &. a.lo and bx = b.hi &. b.lo in
  let x = ax |. bx in
  let v = (a.hi &. lnot64 a.lo) ^. (b.hi &. lnot64 b.lo) in
  { hi = v |. x; lo = lnot64 v |. x }

let xnor2 a b = not_ (xor2 a b)

let mux ~sel ~a ~b =
  (* sel=0 -> a; sel=1 -> b; sel=X -> a if lanes agree (binary), else X. *)
  let pick0 = sel.lo &. lnot64 sel.hi and pick1 = sel.hi &. lnot64 sel.lo in
  let selx = sel.hi &. sel.lo in
  let agree1 = a.hi &. b.hi &. lnot64 a.lo &. lnot64 b.lo in
  let agree0 = a.lo &. b.lo &. lnot64 a.hi &. lnot64 b.hi in
  let hi =
    (pick0 &. a.hi) |. (pick1 &. b.hi)
    |. (selx &. (agree1 |. lnot64 agree0))
  in
  let lo =
    (pick0 &. a.lo) |. (pick1 &. b.lo)
    |. (selx &. (agree0 |. lnot64 agree1))
  in
  norm { hi; lo }

let force_mask v ~m0 ~m1 =
  { hi = (v.hi &. lnot64 m0) |. m1; lo = (v.lo &. lnot64 m1) |. m0 }

let select_mask a b m =
  { hi = (a.hi &. lnot64 m) |. (b.hi &. m);
    lo = (a.lo &. lnot64 m) |. (b.lo &. m) }

let binary_mask v = lnot64 (v.hi &. v.lo)

let diff_mask a b =
  binary_mask a &. binary_mask b &. ((a.hi ^. b.hi) |. (a.lo ^. b.lo))

let pp ppf v =
  for i = width - 1 downto 0 do
    Format.pp_print_char ppf (Logic4.to_char (get v i))
  done

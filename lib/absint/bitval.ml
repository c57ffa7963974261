open Olfu_logic

(* Each of the [width] bits of a machine word is known-0, known-1 or
   unknown.  Two masks over the native int: [known] flags the decided
   bits, [value] carries their values and is kept a subset of [known].
   This is the per-bit three-valued domain of the netlist side
   (Logic4 restricted to {0,1,X}) transplanted onto program words. *)

type t = { width : int; known : int; value : int }

let full w = (1 lsl w) - 1

let make w ~known ~value =
  let m = full w in
  let known = known land m in
  { width = w; known; value = value land known }

let exact w x = make w ~known:(full w) ~value:x
let top w = make w ~known:0 ~value:0
let width t = t.width
let is_exact t = t.known = full t.width
let to_exact t = if is_exact t then Some t.value else None

let equal a b = a.width = b.width && a.known = b.known && a.value = b.value

let bit t i =
  if i < 0 || i >= t.width then Logic4.L0
  else if t.known land (1 lsl i) = 0 then Logic4.X
  else if t.value land (1 lsl i) <> 0 then Logic4.L1
  else Logic4.L0

let contains t x =
  let x = x land full t.width in
  x land t.known = t.value

let min_val t = t.value
let max_val t = t.value lor (full t.width land lnot t.known)

let join a b =
  let agree = lnot (a.value lxor b.value) in
  let known = a.known land b.known land agree in
  make a.width ~known ~value:(a.value land known)

let meet a b =
  if a.known land b.known land (a.value lxor b.value) <> 0 then None
  else Some (make a.width ~known:(a.known lor b.known) ~value:(a.value lor b.value))

let of_values w = function
  | [] -> invalid_arg "Bitval.of_values: empty"
  | v :: vs -> List.fold_left (fun acc v -> join acc (exact w v)) (exact w v) vs

let lognot a = make a.width ~known:a.known ~value:(lnot a.value)

let logand a b =
  let ones = a.value land b.value in
  let zeros = (a.known land lnot a.value) lor (b.known land lnot b.value) in
  make a.width ~known:(ones lor zeros) ~value:ones

let logor a b =
  let ones = a.value lor b.value in
  let zeros = a.known land lnot a.value land (b.known land lnot b.value) in
  make a.width ~known:(ones lor zeros) ~value:ones

let logxor a b =
  let known = a.known land b.known in
  make a.width ~known ~value:(a.value lxor b.value)

(* Ripple-carry over Logic4 bits: the sum bit is binary only while the
   incoming carry chain stays binary, which is exactly the adder's
   information flow in the gate-level datapath. *)
let add ?(cin = Logic4.L0) a b =
  let w = a.width in
  let known = ref 0 and value = ref 0 and carry = ref cin in
  for i = 0 to w - 1 do
    let ai = bit a i and bi = bit b i in
    (match Logic4.xor2 (Logic4.xor2 ai bi) !carry with
    | Logic4.L0 -> known := !known lor (1 lsl i)
    | Logic4.L1 ->
      known := !known lor (1 lsl i);
      value := !value lor (1 lsl i)
    | _ -> ());
    carry :=
      Logic4.or2 (Logic4.and2 ai bi) (Logic4.and2 !carry (Logic4.or2 ai bi))
  done;
  make w ~known:!known ~value:!value

let sub a b = add ~cin:Logic4.L1 a (lognot b)

let shift_left a k =
  if k <= 0 then a
  else if k >= a.width then exact a.width 0
  else make a.width ~known:((a.known lsl k) lor full k) ~value:(a.value lsl k)

let shift_right a k =
  if k <= 0 then a
  else if k >= a.width then exact a.width 0
  else
    let high = full k lsl (a.width - k) in
    make a.width ~known:((a.known lsr k) lor high) ~value:(a.value lsr k)

let trailing_zeros t =
  let rec go i =
    if i < t.width && t.known land (1 lsl i) <> 0 && t.value land (1 lsl i) = 0
    then go (i + 1)
    else i
  in
  go 0

let mul a b =
  match (to_exact a, to_exact b) with
  | Some x, Some y -> exact a.width (x * y)
  | _ ->
    if to_exact a = Some 0 || to_exact b = Some 0 then exact a.width 0
    else
      let z = min a.width (trailing_zeros a + trailing_zeros b) in
      make a.width ~known:(full z) ~value:0

let pp ppf t =
  for i = t.width - 1 downto 0 do
    Format.pp_print_char ppf (Logic4.to_char (bit t i))
  done

open Olfu_logic
open Olfu_netlist
module B = Netlist.Builder

type bus = int array

let width = Array.length
let no_roles _ = ([] : Netlist.role list)

let bit_name name i = Printf.sprintf "%s[%d]" name i

let input_bus ?(roles = no_roles) b name w =
  Array.init w (fun i -> B.input b ~roles:(roles i) (bit_name name i))

let output_bus ?(roles = no_roles) b name v =
  Array.iteri
    (fun i n -> ignore (B.output b ~roles:(roles i) (bit_name name i) n : int))
    v

let const b ~width:w value =
  Array.init w (fun i ->
      B.tie b (Logic4.of_bool ((value lsr i) land 1 = 1)))

let slice v lo len = Array.sub v lo len
let concat parts = Array.concat parts

let zero_extend b v w =
  if width v >= w then Array.sub v 0 w
  else concat [ v; const b ~width:(w - width v) 0 ]

let sign_extend b v w =
  if width v >= w then Array.sub v 0 w
  else begin
    let msb = v.(width v - 1) in
    let ext = Array.make (w - width v) msb in
    ignore (b : B.t);
    concat [ v; ext ]
  end

let map_named ?name b f v =
  Array.mapi
    (fun i x ->
      let name = Option.map (fun n -> bit_name n i) name in
      f ?name b x)
    v

let not_ ?name b v = map_named ?name b (fun ?name b x -> B.not_ ?name b x) v

let map2_named ?name b f x y =
  if width x <> width y then invalid_arg "Rtl: width mismatch";
  Array.init (width x) (fun i ->
      let name = Option.map (fun n -> bit_name n i) name in
      f ?name b x.(i) y.(i))

let and_ ?name b x y = map2_named ?name b (fun ?name b p q -> B.and2 ?name b p q) x y
let or_ ?name b x y = map2_named ?name b (fun ?name b p q -> B.or2 ?name b p q) x y
let xor_ ?name b x y = map2_named ?name b (fun ?name b p q -> B.xor2 ?name b p q) x y

let and_bit b en v = Array.map (fun x -> B.and2 b en x) v

let mux ?name b ~sel ~a ~b:bb =
  if width a <> width bb then invalid_arg "Rtl.mux: width mismatch";
  Array.init (width a) (fun i ->
      let name = Option.map (fun n -> bit_name n i) name in
      B.mux2 ?name b ~sel ~a:a.(i) ~b:bb.(i))

let rec mux_tree b ~sel inputs =
  match width sel, inputs with
  | 0, [ x ] -> x
  | 0, _ -> invalid_arg "Rtl.mux_tree: input count"
  | _, _ ->
    let n = List.length inputs in
    if n <> 1 lsl width sel then invalid_arg "Rtl.mux_tree: input count";
    let rec split k l =
      if k = 0 then ([], l)
      else
        match l with
        | x :: tl ->
          let a, rest = split (k - 1) tl in
          (x :: a, rest)
        | [] -> assert false
    in
    let low, high = split (n / 2) inputs in
    let sel_hi = sel.(width sel - 1) in
    let sub_sel = Array.sub sel 0 (width sel - 1) in
    let a = mux_tree b ~sel:sub_sel low in
    let c = mux_tree b ~sel:sub_sel high in
    mux b ~sel:sel_hi ~a ~b:c

let reduce gate b v =
  match Array.to_list v with
  | [] -> invalid_arg "Rtl.reduce: empty bus"
  | [ x ] -> B.buf b x
  | x :: rest -> List.fold_left (fun acc y -> gate b acc y) x rest

let reduce_or b v = reduce (fun b x y -> B.or2 b x y) b v
let reduce_and b v = reduce (fun b x y -> B.and2 b x y) b v

let eq_const b v k =
  let bits =
    Array.mapi
      (fun i x -> if (k lsr i) land 1 = 1 then x else B.not_ b x)
      v
  in
  reduce_and b bits

let eq b x y =
  let diffs = xor_ b x y in
  B.not_ b (reduce_or b diffs)

(* Ripple addition where the second operand and the carry may be absent
   per bit: emits half adders instead of gates fed by constants. *)
let add_sparse ?name b x yopt ~cin =
  let carry = ref cin in
  (* explicit loop: carry threading needs ascending order, which
     Array.init does not guarantee *)
  let sum = Array.make (Array.length x) 0 in
  for i = 0 to Array.length x - 1 do
    sum.(i) <-
      (let a = x.(i) in
        let name = Option.map (fun n -> bit_name n i) name in
        match yopt i, !carry with
        | None, None -> (match name with Some n -> B.buf ~name:n b a | None -> a)
        | Some y, None ->
          let s = B.xor2 ?name b a y in
          carry := Some (B.and2 b a y);
          s
        | None, Some c ->
          let s = B.xor2 ?name b a c in
          carry := Some (B.and2 b a c);
          s
        | Some y, Some c ->
          let axy = B.xor2 b a y in
          let s = B.xor2 ?name b axy c in
          carry := Some (B.or2 b (B.and2 b a y) (B.and2 b axy c));
          s)
  done;
  (sum, !carry)

let adder ?name b ?cin x y =
  if width x <> width y then invalid_arg "Rtl.adder: width mismatch";
  let sum, carry = add_sparse ?name b x (fun i -> Some y.(i)) ~cin in
  let carry =
    match carry with Some c -> c | None -> B.tie b Logic4.L0
  in
  (sum, carry)

let increment b v =
  let one = const b ~width:(width v) 1 in
  fst (adder b v one)

let decoder b sel =
  let w = width sel in
  let nsel = Array.map (fun s -> B.not_ b s) sel in
  Array.init (1 lsl w) (fun k ->
      let bits =
        Array.init w (fun i -> if (k lsr i) land 1 = 1 then sel.(i) else nsel.(i))
      in
      reduce_and b bits)

(* Shift-add array multiplier.  Row i adds partial product (x & y.(i)) at
   offset i; the accumulator stays [width x] wide, the low bit finalizing
   each row, the row carry re-entering at the top of the next row.  No
   constant padding, so the structure contains no redundant logic. *)
let multiplier b x y =
  let wx = width x and wy = width y in
  if wx = 0 || wy = 0 then invalid_arg "Rtl.multiplier: empty operand";
  let pp i = and_bit b y.(i) x in
  let acc = ref (pp 0) in
  let row_carry = ref None in
  let low = ref [] in
  for i = 1 to wy - 1 do
    low := !acc.(0) :: !low;
    let prev = !acc and prev_c = !row_carry in
    let yopt j = if j < wx - 1 then Some prev.(j + 1) else prev_c in
    let sum, c = add_sparse b (pp i) yopt ~cin:None in
    acc := sum;
    row_carry := c
  done;
  let top =
    match !row_carry with Some c -> [| c |] | None -> [| B.tie b Logic4.L0 |]
  in
  concat [ Array.of_list (List.rev !low); !acc; top ]

(* One restoring-division step: diff = shifted - divisor computed as
   shifted + ~divisor + 1, with absent shifted bits reading 0 and the
   initial +1 carried symbolically so no constant cells are emitted. *)
let div_trial b ~shifted ~divisor_n ~w =
  let ws = width shifted in
  let wt = max ws w in
  let carry = ref `One in
  (* explicit loop: the carry threading requires ascending bit order.
     Sum gates are only emitted for the bits the caller keeps (j < ws);
     higher positions contribute to the borrow chain alone, so no dangling
     logic is created. *)
  let diff = Array.make ws shifted.(0) in
  for j = 0 to wt - 1 do
    let x = if j < ws then Some shifted.(j) else None in
    let y = if j < w then Some divisor_n.(j) else None (* ~0 = 1 *) in
    let keep = j < ws in
    let sum =
      match x, y, !carry with
      | None, None, _ -> assert false (* j < max ws w *)
      | None, Some n, `One ->
        carry := `Net n;
        if keep then Some (B.not_ b n) else None
      | None, Some n, `Net c ->
        carry := `Net (B.and2 b n c);
        if keep then Some (B.xor2 b n c) else None
      | Some a, None, `One -> Some a (* a + 1 + 1 : sum a, carry 1 *)
      | Some a, None, `Net c ->
        carry := `Net (B.or2 b a c);
        Some (B.xnor2 b a c)
      | Some a, Some n, `One ->
        carry := `Net (B.or2 b a n);
        Some (B.xnor2 b a n)
      | Some a, Some n, `Net c ->
        let axn = B.xor2 b a n in
        let s = if keep then B.xor2 b axn c else axn in
        carry := `Net (B.or2 b (B.and2 b a n) (B.and2 b axn c));
        if keep then Some s else None
    in
    match sum with
    | Some s when keep -> diff.(j) <- s
    | _ -> ()
  done;
  let no_borrow =
    match !carry with
    | `Net c -> c
    | `One -> B.tie b Logic4.L1 (* degenerate: w = 0 *)
  in
  (diff, no_borrow)

let divider b ~dividend ~divisor =
  let w = width dividend in
  if width divisor <> w then invalid_arg "Rtl.divider: width mismatch";
  if w = 0 then invalid_arg "Rtl.divider: empty operands";
  let divisor_n = not_ b divisor in
  let quotient = Array.make w dividend.(0) in
  let rem = ref [||] in
  for i = w - 1 downto 0 do
    let shifted = concat [ [| dividend.(i) |]; !rem ] in
    let shifted =
      if width shifted > w + 1 then slice shifted 0 (w + 1) else shifted
    in
    let diff, no_borrow = div_trial b ~shifted ~divisor_n ~w in
    quotient.(i) <- no_borrow;
    let ws = width shifted in
    rem := mux b ~sel:no_borrow ~a:shifted ~b:(slice diff 0 ws)
  done;
  (quotient, zero_extend b !rem w)

let shift_const b v k dir =
  let w = width v in
  let zero () = B.tie b Logic4.L0 in
  Array.init w (fun i ->
      match dir with
      | `Left -> if i - k >= 0 then v.(i - k) else zero ()
      | `Right -> if i + k < w then v.(i + k) else zero ())

let barrel_shift b v ~shamt dir =
  Array.fold_left
    (fun (acc, stage) s ->
      let shifted = shift_const b acc (1 lsl stage) dir in
      (mux b ~sel:s ~a:acc ~b:shifted, stage + 1))
    (v, 0) shamt
  |> fst

let reg ?name ?(roles = no_roles) b ~rstn ~d =
  Array.init (width d) (fun i ->
      let name = Option.map (fun n -> bit_name n i) name in
      B.dffr ?name ~roles:(roles i) b ~d:d.(i) ~rstn)

(* Feedback requires creating the flop first with a placeholder D, then
   rewiring once the next-value logic exists. *)
let reg_placeholder ?name ?(roles = no_roles) b ~rstn ~width:w =
  let placeholder = B.tie b Logic4.X in
  Array.init w (fun i ->
      let name = Option.map (fun n -> bit_name n i) name in
      B.dffr ?name ~roles:(roles i) b ~d:placeholder ~rstn)

let reg_assign b q d =
  if Array.length d <> Array.length q then
    invalid_arg "Rtl.reg_assign: width mismatch";
  Array.iteri
    (fun i ff ->
      let fanin = B.node_fanin b ff in
      fanin.(0) <- d.(i);
      B.set_fanin b ff fanin)
    q

let reg_feedback ?name ?roles b ~rstn ~width:w f =
  let q = reg_placeholder ?name ?roles b ~rstn ~width:w in
  reg_assign b q (f q);
  q

let reg_en ?name ?roles b ~rstn ~en ~d =
  reg_feedback ?name ?roles b ~rstn ~width:(width d) (fun q ->
      mux b ~sel:en ~a:q ~b:d)

let const_of_env env v =
  let acc = ref 0 in
  let ok = ref true in
  Array.iteri
    (fun i n ->
      match Logic4.to_bool env.(n) with
      | Some true -> acc := !acc lor (1 lsl i)
      | Some false -> ()
      | None -> ok := false)
    v;
  if !ok then Some !acc else None

let drive_int assigns v k =
  Array.iteri
    (fun i n ->
      assigns := (n, Logic4.of_bool ((k lsr i) land 1 = 1)) :: !assigns)
    v

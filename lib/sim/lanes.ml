open Olfu_logic
open Olfu_netlist
module A1 = Bigarray.Array1

type words = (int64, Bigarray.int64_elt, Bigarray.c_layout) A1.t

type t = {
  kind : Cell.kind array;
  start : int array;  (* fanin slots of node i: start.(i) .. start.(i+1)-1 *)
  drv : int array;  (* driving node per fanin slot *)
  sources : int array;  (* inputs and tie cells, in node-id order *)
  topo : int array;
  seqs : int array;  (* flop node per slot *)
  slot : int array;  (* flop slot per node, -1 for the rest *)
}

let build nl =
  let n = Netlist.length nl in
  let kind = Array.init n (Netlist.kind nl) in
  let fanins = Array.init n (Netlist.fanin nl) in
  let start = Array.make (n + 1) 0 in
  Array.iteri (fun i f -> start.(i + 1) <- start.(i) + Array.length f) fanins;
  let drv = Array.concat (Array.to_list fanins) in
  let seqs = Netlist.seq_nodes nl in
  let slot = Array.make n (-1) in
  Array.iteri (fun k s -> slot.(s) <- k) seqs;
  let sources =
    List.filter
      (fun i ->
        match kind.(i) with
        | Cell.Input | Cell.Tie0 | Cell.Tie1 | Cell.Tiex -> true
        | _ -> false)
      (List.init n Fun.id)
    |> Array.of_list
  in
  { kind; start; drv; sources; topo = Netlist.topo nl; seqs; slot }

type Analysis.cache += Compiled of t

(* Memoized on the netlist's analysis: every fault-simulation run asks
   for it, and compiling per call would be most of a run's garbage. *)
let compile nl =
  let an = Analysis.get nl in
  let find () =
    Analysis.find_cache an (function Compiled c -> Some c | _ -> None)
  in
  match find () with
  | Some c -> c
  | None ->
    Analysis.add_cache an (Compiled (build nl));
    (* a sibling domain may have published first: share its value *)
    Option.get (find ())

type state = {
  c : t;
  hi : words;  (* settled value per node *)
  lo : words;
  in_hi : words;  (* driven word per input and Tiex node *)
  in_lo : words;
  st_hi : words;  (* state per flop slot *)
  st_lo : words;
  nx_hi : words;  (* next state per flop slot, during [clock] *)
  nx_lo : words;
  s0 : words;  (* stem lanes stuck at 0 / 1, per node *)
  s1 : words;
  b0 : words;  (* branch lanes stuck at 0 / 1, per fanin slot *)
  b1 : words;
  frz : words;  (* clock-frozen lanes, per flop slot *)
  acc : words;  (* strobe accumulators: (diff, X) word pairs *)
}

let accumulators = 2

let words n =
  let a = A1.create Bigarray.int64 Bigarray.c_layout n in
  A1.fill a 0L;
  a

let create c =
  let n = Array.length c.kind and ns = Array.length c.seqs in
  let nf = Array.length c.drv in
  {
    c;
    hi = words n;
    lo = words n;
    in_hi = words n;
    in_lo = words n;
    st_hi = words ns;
    st_lo = words ns;
    nx_hi = words ns;
    nx_lo = words ns;
    s0 = words n;
    s1 = words n;
    b0 = words nf;
    b1 = words nf;
    frz = words ns;
    acc = words (2 * accumulators);
  }

let hi s = s.hi
let lo s = s.lo

(* ------------------------------------------------------------------ *)
(* Driving                                                             *)
(* ------------------------------------------------------------------ *)

let rail_hi (v : Logic4.t) = match v with L0 -> 0L | L1 | X | Z -> -1L
let rail_lo (v : Logic4.t) = match v with L1 -> 0L | L0 | X | Z -> -1L

let reset s ~init =
  A1.fill s.st_hi (rail_hi init);
  A1.fill s.st_lo (rail_lo init);
  A1.fill s.in_hi (-1L);
  A1.fill s.in_lo (-1L);
  A1.fill s.acc 0L

let driven s i =
  match s.c.kind.(i) with
  | Cell.Input | Cell.Tiex -> ()
  | k ->
    invalid_arg
      (Printf.sprintf "Lanes: node %d (%s) is not an input or Tiex" i
         (Cell.kind_name k))

let set_input s i v =
  driven s i;
  A1.set s.in_hi i (rail_hi v);
  A1.set s.in_lo i (rail_lo v)

let set_input_word s i w =
  driven s i;
  A1.set s.in_hi i w;
  A1.set s.in_lo i (Int64.lognot w)

let flop_slot s i =
  let k = s.c.slot.(i) in
  if k < 0 then
    invalid_arg (Printf.sprintf "Lanes: node %d is not a sequential cell" i);
  k

let set_state_word s i w =
  let k = flop_slot s i in
  A1.set s.st_hi k w;
  A1.set s.st_lo k (Int64.lognot w)

let set_rails s i ~hi ~lo =
  let k = s.c.slot.(i) in
  if k >= 0 then begin
    A1.set s.st_hi k hi;
    A1.set s.st_lo k lo
  end
  else begin
    driven s i;
    A1.set s.in_hi i hi;
    A1.set s.in_lo i lo
  end

let blit ~src ~dst =
  A1.blit src.hi dst.hi;
  A1.blit src.lo dst.lo;
  A1.blit src.in_hi dst.in_hi;
  A1.blit src.in_lo dst.in_lo;
  A1.blit src.st_hi dst.st_hi;
  A1.blit src.st_lo dst.st_lo

let set_state_lane s i ~lane v =
  let k = flop_slot s i and m = Int64.shift_left 1L lane in
  let put a rail =
    A1.set a k
      (Int64.logor (Int64.logand (A1.get a k) (Int64.lognot m))
         (Int64.logand rail m))
  in
  put s.st_hi (rail_hi v);
  put s.st_lo (rail_lo v)

(* ------------------------------------------------------------------ *)
(* Fault masks                                                         *)
(* ------------------------------------------------------------------ *)

let or_lanes (a : words) j m = A1.set a j (Int64.logor (A1.get a j) m)

(* The mask word of a site, or -1 when the site is not simulated (a
   clock pin of a non-flop, a pin past the cell's arity): such faults
   never act, as no evaluation reads them. *)
let branch_slot s node p =
  let j = s.c.start.(node) + p in
  if p >= 0 && j < s.c.start.(node + 1) then j else -1

let inject s ~node pin ~lanes ~stuck =
  match (pin : Cell.Pin.t) with
  | Out -> or_lanes (if stuck then s.s1 else s.s0) node lanes
  | In p ->
    let j = branch_slot s node p in
    if j >= 0 then or_lanes (if stuck then s.b1 else s.b0) j lanes
  | Clk ->
    let k = s.c.slot.(node) in
    if k >= 0 then or_lanes s.frz k lanes

let clear s ~node pin =
  match (pin : Cell.Pin.t) with
  | Out ->
    A1.set s.s0 node 0L;
    A1.set s.s1 node 0L
  | In p ->
    let j = branch_slot s node p in
    if j >= 0 then begin
      A1.set s.b0 j 0L;
      A1.set s.b1 j 0L
    end
  | Clk ->
    let k = s.c.slot.(node) in
    if k >= 0 then A1.set s.frz k 0L

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

(* Every helper below is inlined into [settle]/[clock], so the int64
   words stay in registers: the loops allocate nothing. *)

let ( &. ) = Int64.logand
let ( |. ) = Int64.logor
let ( ^. ) = Int64.logxor
let lnot64 = Int64.lognot

(* Operand of fanin slot [j]: the driver's value with the slot's branch
   stuck-ats forced. *)
let[@inline] op_hi s j =
  let d = Array.unsafe_get s.c.drv j in
  (A1.unsafe_get s.hi d &. lnot64 (A1.unsafe_get s.b0 j)) |. A1.unsafe_get s.b1 j

let[@inline] op_lo s j =
  let d = Array.unsafe_get s.c.drv j in
  (A1.unsafe_get s.lo d &. lnot64 (A1.unsafe_get s.b1 j)) |. A1.unsafe_get s.b0 j

(* Store node [i]'s value with its stem stuck-ats forced. *)
let[@inline] put s i h l =
  let m0 = A1.unsafe_get s.s0 i and m1 = A1.unsafe_get s.s1 i in
  A1.unsafe_set s.hi i ((h &. lnot64 m0) |. m1);
  A1.unsafe_set s.lo i ((l &. lnot64 m1) |. m0)

(* The 2:1 mux, written into [(dh, dl)] at [k]: sel=0 -> a, sel=1 -> b,
   sel=X -> the value both agree on, else X; a (0,0) lane becomes X. *)
let[@inline] mux (dh : words) (dl : words) k sh sl ah al bh bl =
  let pick0 = sl &. lnot64 sh and pick1 = sh &. lnot64 sl and selx = sh &. sl in
  let agree1 = ah &. bh &. lnot64 al &. lnot64 bl in
  let agree0 = al &. bl &. lnot64 ah &. lnot64 bh in
  let h = (pick0 &. ah) |. (pick1 &. bh) |. (selx &. (agree1 |. lnot64 agree0)) in
  let l = (pick0 &. al) |. (pick1 &. bl) |. (selx &. (agree0 |. lnot64 agree1)) in
  let dead = lnot64 (h |. l) in
  A1.unsafe_set dh k (h |. dead);
  A1.unsafe_set dl k (l |. dead)

(* n-ary folds start from [one] (and) or [zero] (or, xor); [inv] stores
   the complement, swapping the rails *)
let[@inline] store s i inv h l = if inv then put s i l h else put s i h l

let[@inline] fold_and s i j0 j1 inv =
  let h = ref (-1L) and l = ref 0L in
  for j = j0 to j1 - 1 do
    h := !h &. op_hi s j;
    l := !l |. op_lo s j
  done;
  store s i inv !h !l

let[@inline] fold_or s i j0 j1 inv =
  let h = ref 0L and l = ref (-1L) in
  for j = j0 to j1 - 1 do
    h := !h |. op_hi s j;
    l := !l &. op_lo s j
  done;
  store s i inv !h !l

(* binary only where both operands are *)
let[@inline] fold_xor s i j0 j1 inv =
  let h = ref 0L and l = ref (-1L) in
  for j = j0 to j1 - 1 do
    let bh = op_hi s j and bl = op_lo s j in
    let x = (!h &. !l) |. (bh &. bl) in
    let v = (!h &. lnot64 (!l)) ^. (bh &. lnot64 bl) in
    h := v |. x;
    l := lnot64 v |. x
  done;
  store s i inv !h !l

let eval_comb s i =
  let c = s.c in
  let j0 = Array.unsafe_get c.start i in
  let j1 = Array.unsafe_get c.start (i + 1) in
  match Array.unsafe_get c.kind i with
  | Cell.Output | Cell.Buf -> put s i (op_hi s j0) (op_lo s j0)
  | Cell.Not -> put s i (op_lo s j0) (op_hi s j0)
  | Cell.And -> fold_and s i j0 j1 false
  | Cell.Nand -> fold_and s i j0 j1 true
  | Cell.Or -> fold_or s i j0 j1 false
  | Cell.Nor -> fold_or s i j0 j1 true
  | Cell.Xor -> fold_xor s i j0 j1 false
  | Cell.Xnor -> fold_xor s i j0 j1 true
  | Cell.Mux2 ->
    mux s.hi s.lo i (op_hi s j0) (op_lo s j0)
      (op_hi s (j0 + 1)) (op_lo s (j0 + 1))
      (op_hi s (j0 + 2)) (op_lo s (j0 + 2));
    put s i (A1.unsafe_get s.hi i) (A1.unsafe_get s.lo i)
  | Cell.Input | Cell.Tie0 | Cell.Tie1 | Cell.Tiex | Cell.Dff | Cell.Dffr
  | Cell.Sdff | Cell.Sdffr ->
    assert false

let settle s =
  let c = s.c in
  let src = c.sources in
  for k = 0 to Array.length src - 1 do
    let i = Array.unsafe_get src k in
    match Array.unsafe_get c.kind i with
    | Cell.Tie0 -> put s i 0L (-1L)
    | Cell.Tie1 -> put s i (-1L) 0L
    | _ -> put s i (A1.unsafe_get s.in_hi i) (A1.unsafe_get s.in_lo i)
  done;
  let seqs = c.seqs in
  for k = 0 to Array.length seqs - 1 do
    put s (Array.unsafe_get seqs k) (A1.unsafe_get s.st_hi k)
      (A1.unsafe_get s.st_lo k)
  done;
  let topo = c.topo in
  for k = 0 to Array.length topo - 1 do
    eval_comb s (Array.unsafe_get topo k)
  done

let eval s i =
  match s.c.kind.(i) with
  | Cell.Tie0 -> put s i 0L (-1L)
  | Cell.Tie1 -> put s i (-1L) 0L
  | Cell.Input | Cell.Tiex -> put s i (A1.get s.in_hi i) (A1.get s.in_lo i)
  | Cell.Dff | Cell.Dffr | Cell.Sdff | Cell.Sdffr ->
    let k = s.c.slot.(i) in
    put s i (A1.get s.st_hi k) (A1.get s.st_lo k)
  | _ -> eval_comb s i

(* The value flop [i] captures at the next edge, from its operands,
   written into [(nh, nl)] at [k]. *)
let[@inline] next s i nh nl k =
  let j0 = Array.unsafe_get s.c.start i in
  match Array.unsafe_get s.c.kind i with
  | Cell.Dff ->
    A1.unsafe_set nh k (op_hi s j0);
    A1.unsafe_set nl k (op_lo s j0)
  | Cell.Dffr ->
    mux nh nl k (op_hi s (j0 + 1)) (op_lo s (j0 + 1)) 0L (-1L)
      (op_hi s j0) (op_lo s j0)
  | Cell.Sdff ->
    mux nh nl k (op_hi s (j0 + 2)) (op_lo s (j0 + 2)) (op_hi s j0)
      (op_lo s j0) (op_hi s (j0 + 1)) (op_lo s (j0 + 1))
  | Cell.Sdffr ->
    mux nh nl k (op_hi s (j0 + 2)) (op_lo s (j0 + 2)) (op_hi s j0)
      (op_lo s j0) (op_hi s (j0 + 1)) (op_lo s (j0 + 1));
    mux nh nl k (op_hi s (j0 + 3)) (op_lo s (j0 + 3)) 0L (-1L)
      (A1.unsafe_get nh k) (A1.unsafe_get nl k)
  | _ -> assert false

let capture s i ~hi ~lo k =
  ignore (flop_slot s i : int);
  next s i hi lo k

let clock s =
  let c = s.c in
  let seqs = c.seqs in
  let nh = s.nx_hi and nl = s.nx_lo in
  for k = 0 to Array.length seqs - 1 do
    let i = Array.unsafe_get seqs k in
    next s i nh nl k;
    (* stem stuck-ats, then frozen lanes keep the pre-edge state *)
    let m0 = A1.unsafe_get s.s0 i and m1 = A1.unsafe_get s.s1 i in
    let f = A1.unsafe_get s.frz k in
    let h = (A1.unsafe_get nh k &. lnot64 m0) |. m1 in
    let l = (A1.unsafe_get nl k &. lnot64 m1) |. m0 in
    A1.unsafe_set nh k ((h &. lnot64 f) |. (A1.unsafe_get s.st_hi k &. f));
    A1.unsafe_set nl k ((l &. lnot64 f) |. (A1.unsafe_get s.st_lo k &. f))
  done;
  (* like [Seq_sim.step], a flop reads its new state after the edge *)
  for k = 0 to Array.length seqs - 1 do
    let i = Array.unsafe_get seqs k in
    let h = A1.unsafe_get nh k and l = A1.unsafe_get nl k in
    A1.unsafe_set s.st_hi k h;
    A1.unsafe_set s.st_lo k l;
    A1.unsafe_set s.hi i h;
    A1.unsafe_set s.lo i l
  done

let step s =
  settle s;
  clock s

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

let get s i lane =
  let h = Int64.logand (Int64.shift_right_logical (A1.get s.hi i) lane) 1L in
  let l = Int64.logand (Int64.shift_right_logical (A1.get s.lo i) lane) 1L in
  if h = l then Logic4.X else if h = 1L then Logic4.L1 else Logic4.L0

let strobe s outs ~into =
  let c = s.c in
  let d = ref (A1.get s.acc (2 * into)) and x = ref (A1.get s.acc ((2 * into) + 1)) in
  for k = 0 to Array.length outs - 1 do
    let j = c.start.(outs.(k)) in
    let h = op_hi s j and l = op_lo s j in
    (* lane 0 binary: compare every lane against its value *)
    if Int64.logand (Int64.logxor h l) 1L <> 0L then begin
      let gh = Int64.neg (Int64.logand h 1L) in
      let bin = lnot64 (h &. l) in
      d := !d |. (bin &. ((gh ^. h) |. (lnot64 gh ^. l)));
      x := !x |. (h &. l)
    end
  done;
  A1.set s.acc (2 * into) !d;
  A1.set s.acc ((2 * into) + 1) !x

let acc_lane s k lane =
  Int64.logand (A1.get s.acc k) (Int64.shift_left 1L lane) <> 0L

let differs s ~into lane = acc_lane s (2 * into) lane
let unknown s ~into lane = acc_lane s ((2 * into) + 1) lane

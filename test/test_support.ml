(* Shared helpers for the test suites: tiny circuit constructors and a
   random-netlist generator for property tests. *)

open Olfu_logic
open Olfu_netlist

module B = Netlist.Builder

(* Fig. 2 of the paper: a mux-scan flip-flop in mission configuration
   (SE tied low), with its functional input and output exposed. *)
let scan_cell_mission () =
  let b = B.create () in
  let fi = B.input b "FI" in
  let si = B.input b ~roles:[ Netlist.Scan_in ] "SI" in
  let se = B.tie b Logic4.L0 in
  let ff = B.sdff b ~name:"ff" ~d:fi ~si ~se in
  let _o = B.output b "FO" ff in
  (B.freeze_exn b, ff)

(* Fig. 4: a debug-controlled flip-flop: DE selects the debugger-forced
   value DI over the functional value FI.  Mission ties DE low; the debug
   observation output DO is already disconnected (not emitted). *)
let debug_cell_mission () =
  let b = B.create () in
  let fi = B.input b "FI" in
  let di = B.input b ~roles:[ Netlist.Debug_control ] "DI" in
  let de = B.tie b Logic4.L0 in
  let m = B.mux2 b ~name:"dbg_mux" ~sel:de ~a:fi ~b:di in
  let ff = B.dff b ~name:"ff" ~d:m in
  let _o = B.output b "FO" ff in
  (B.freeze_exn b, m, ff)

(* Fig. 5: a D flip-flop with active-low reset whose value is constant 0
   (an address register above the populated range). *)
let constant_dffr () =
  let b = B.create () in
  let d = B.tie b Logic4.L0 in
  let rstn = B.tie b Logic4.L1 in
  let ff = B.dffr b ~name:"areg" ~d ~rstn in
  let _o = B.output b "AOUT" ff in
  (B.freeze_exn b, ff)

(* A small combinational circuit with reconvergent fanout and a genuinely
   redundant fault: out = (a & b) | (a & ~b) | c simplifies to a | c, making
   several faults untestable. *)
let redundant_circuit () =
  let b = B.create () in
  let a = B.input b "a" in
  let bb = B.input b "b" in
  let c = B.input b "c" in
  let nb = B.not_ b bb in
  let t1 = B.and2 b ~name:"t1" a bb in
  let t2 = B.and2 b ~name:"t2" a nb in
  let o1 = B.or2 b ~name:"o1" t1 t2 in
  let o2 = B.or2 b ~name:"o2" o1 c in
  let _ = B.output b "out" o2 in
  B.freeze_exn b

(* Full adder used as a known-good simulation target. *)
let full_adder () =
  let b = B.create () in
  let a = B.input b "a" in
  let bb = B.input b "b" in
  let cin = B.input b "cin" in
  let x1 = B.xor2 b a bb in
  let s = B.xor2 b ~name:"sum_net" x1 cin in
  let c1 = B.and2 b a bb in
  let c2 = B.and2 b x1 cin in
  let cout = B.or2 b ~name:"cout_net" c1 c2 in
  let _ = B.output b "sum" s in
  let _ = B.output b "cout" cout in
  B.freeze_exn b

(* Random combinational netlist for property tests. *)
let random_comb_netlist rng ~inputs ~gates =
  let b = B.create () in
  let nodes = ref [] in
  for i = 0 to inputs - 1 do
    nodes := B.input b (Printf.sprintf "i%d" i) :: !nodes
  done;
  (* occasionally a tie, to exercise constant propagation *)
  if Random.State.bool rng then
    nodes := B.tie b (if Random.State.bool rng then Logic4.L0 else Logic4.L1)
             :: !nodes;
  let pick () =
    let l = !nodes in
    List.nth l (Random.State.int rng (List.length l))
  in
  for g = 0 to gates - 1 do
    let n =
      match Random.State.int rng 9 with
      | 0 -> B.not_ b (pick ())
      | 1 -> B.and2 b (pick ()) (pick ())
      | 2 -> B.or2 b (pick ()) (pick ())
      | 3 -> B.xor2 b (pick ()) (pick ())
      | 4 -> B.nand2 b (pick ()) (pick ())
      | 5 -> B.nor2 b (pick ()) (pick ())
      | 6 -> B.mux2 b ~sel:(pick ()) ~a:(pick ()) ~b:(pick ())
      | 7 -> B.buf b (pick ())
      | _ -> B.xnor2 b (pick ()) (pick ())
    in
    ignore (g : int);
    nodes := n :: !nodes
  done;
  (* make the most recent nets observable *)
  let rec outs k l =
    match l with
    | n :: rest when k > 0 ->
      ignore (B.output b (Printf.sprintf "o%d" k) n : int);
      outs (k - 1) rest
    | _ -> ()
  in
  outs 3 !nodes;
  B.freeze_exn b

(* Random sequential netlist: a few flip-flops closing feedback loops.
   With [ties], one pick in eight is a Tie0 or Tie1 cell, so constant
   selects, constant flops and severed mux branches occur.  With
   [all_kinds], every cell kind is in the pool: the four flop kinds in
   turn, a Tiex source, and Buf/Not/Mux2 besides the six n-ary gates at
   arity 1 to 4. *)
let random_seq_netlist ?(ties = false) ?(all_kinds = false) rng ~inputs ~gates
    ~flops =
  let b = B.create () in
  let srcs = ref [] in
  for i = 0 to inputs - 1 do
    srcs := B.input b (Printf.sprintf "i%d" i) :: !srcs
  done;
  let rst = B.input b ~roles:[ Netlist.Reset ] "rstn" in
  if all_kinds then srcs := B.tie b Logic4.X :: !srcs;
  let consts =
    if ties then [| B.tie b Logic4.L0; B.tie b Logic4.L1 |] else [||]
  in
  let pick () =
    if ties && Random.State.int rng 8 = 0 then
      consts.(Random.State.int rng 2)
    else
      let l = !srcs in
      List.nth l (Random.State.int rng (List.length l))
  in
  (* forward-declare flops by creating them on a placeholder fanin, then
     rewiring: simpler here to create gates first, flops last, feeding
     flop outputs is impossible that way — instead create flops early on
     inputs and rewire their D afterwards. *)
  let flop_ids = ref [] in
  for f = 0 to flops - 1 do
    let d0 = pick () in
    let ff =
      if all_kinds then
        match f mod 4 with
        | 0 -> B.dffr b ~d:d0 ~rstn:rst
        | 1 -> B.dff b ~d:d0
        | 2 -> B.sdff b ~d:d0 ~si:(pick ()) ~se:(pick ())
        | _ -> B.sdffr b ~d:d0 ~si:(pick ()) ~se:(pick ()) ~rstn:rst
      else if f mod 2 = 0 then B.dffr b ~d:d0 ~rstn:rst
      else B.dff b ~d:d0
    in
    flop_ids := ff :: !flop_ids;
    srcs := ff :: !srcs
  done;
  let nary k =
    B.gate b k (List.init (1 + Random.State.int rng 4) (fun _ -> pick ()))
  in
  for g = 0 to gates - 1 do
    let n =
      if all_kinds then
        match Random.State.int rng 9 with
        | 0 -> B.not_ b (pick ())
        | 1 -> B.buf b (pick ())
        | 2 -> B.mux2 b ~sel:(pick ()) ~a:(pick ()) ~b:(pick ())
        | k ->
          nary
            [| Cell.And; Cell.Nand; Cell.Or; Cell.Nor; Cell.Xor; Cell.Xnor |].(k - 3)
      else
        match Random.State.int rng 6 with
        | 0 -> B.not_ b (pick ())
        | 1 -> B.and2 b (pick ()) (pick ())
        | 2 -> B.or2 b (pick ()) (pick ())
        | 3 -> B.xor2 b (pick ()) (pick ())
        | 4 -> B.mux2 b ~sel:(pick ()) ~a:(pick ()) ~b:(pick ())
        | _ -> B.nand2 b (pick ()) (pick ())
    in
    ignore (g : int);
    srcs := n :: !srcs
  done;
  (* rewire flop data inputs into the later logic to close loops *)
  List.iter
    (fun ff ->
      let d = pick () in
      let fanin = B.node_fanin b ff in
      fanin.(0) <- d;
      B.set_fanin b ff fanin)
    !flop_ids;
  let rec outs k l =
    match l with
    | n :: rest when k > 0 ->
      ignore (B.output b (Printf.sprintf "o%d" k) n : int);
      outs (k - 1) rest
    | _ -> ()
  in
  outs 3 !srcs;
  B.freeze_exn b

(* One gate over boxed 64-lane [Dualrail] words: the reference evaluation
   the word-level core [Olfu_sim.Lanes] is tested against. *)
let comb_par (k : Cell.kind) (ins : Dualrail.t array) : Dualrail.t =
  let fold f init = Array.fold_left f init ins in
  match k with
  | Output | Buf -> ins.(0)
  | Not -> Dualrail.not_ ins.(0)
  | And -> fold Dualrail.and2 Dualrail.one
  | Nand -> Dualrail.not_ (fold Dualrail.and2 Dualrail.one)
  | Or -> fold Dualrail.or2 Dualrail.zero
  | Nor -> Dualrail.not_ (fold Dualrail.or2 Dualrail.zero)
  | Xor -> fold Dualrail.xor2 Dualrail.zero
  | Xnor -> Dualrail.not_ (fold Dualrail.xor2 Dualrail.zero)
  | Mux2 -> Dualrail.mux ~sel:ins.(0) ~a:ins.(1) ~b:ins.(2)
  | Tie0 -> Dualrail.zero
  | Tie1 -> Dualrail.one
  | Tiex -> Dualrail.unknown
  | Input | Dff | Dffr | Sdff | Sdffr ->
    invalid_arg ("comb_par: " ^ Cell.kind_name k ^ " is not combinational")

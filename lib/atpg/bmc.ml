open Olfu_logic
open Olfu_netlist
open Olfu_fault
module S = Olfu_sat.Solver
module CB = Cnf.Builder

type stimulus = (int * bool) list array
type result = Test of stimulus | No_test_within of int | Unknown

(* The bounded mission frame, written once for every bounded query.

   A frame is one cycle's source literals: reset-role inputs at 1 (the
   reset held inactive), every other input and every [Tiex] fresh, in
   that order.  A state is the literal of every flop.  Both are indexed
   by node id, so a lookup is one array read. *)
type frame = int array
type state = int array

let frame b nl =
  let f = Array.make (Netlist.length nl) 0 in
  Array.iter
    (fun i ->
      f.(i) <-
        (if Netlist.has_role nl i Netlist.Reset then CB.vtrue b
         else CB.fresh b))
    (Netlist.inputs nl);
  Netlist.iter_nodes
    (fun i nd ->
      if Cell.equal_kind nd.Netlist.kind Cell.Tiex then f.(i) <- CB.fresh b)
    nl;
  f

let frames b nl cycles = Array.init cycles (fun _ -> frame b nl)

(* Resettable flops at 0 when [reset], every other flop fresh. *)
let init_state ~reset b nl =
  let st = Array.make (Netlist.length nl) 0 in
  Array.iter
    (fun i ->
      st.(i) <-
        (match Netlist.kind nl i with
        | (Cell.Dffr | Cell.Sdffr) when reset -> -CB.vtrue b
        | _ -> CB.fresh b))
    (Netlist.seq_nodes nl);
  st

let reset_state b nl = init_state ~reset:true b nl
let free_state b nl = init_state ~reset:false b nl
let state_lit st i = st.(i)

let flip st ff =
  let st = Array.copy st in
  st.(ff) <- -st.(ff);
  st

(* One copy of the combinational logic for one cycle, from frame [fr]
   and state [st]; [inject_stem] / [inject_operand] may rewrite a stem
   or an operand literal (identity for a fault-free copy).  Returns a
   lookup that sees through [Output] markers. *)
let eval_cycle b nl fr st ~inject_stem ~inject_operand =
  let lits = Array.make (Netlist.length nl) 0 in
  let lit_of i =
    match Netlist.kind nl i with
    | Cell.Output -> lits.((Netlist.fanin nl i).(0))
    | _ -> lits.(i)
  in
  Netlist.iter_nodes
    (fun i nd ->
      match nd.Netlist.kind with
      | Cell.Output -> ()
      | Cell.Input | Cell.Tiex -> lits.(i) <- inject_stem i fr.(i)
      | k when Cell.is_seq k -> lits.(i) <- inject_stem i st.(i)
      | Cell.Tie0 -> lits.(i) <- inject_stem i (-CB.vtrue b)
      | Cell.Tie1 -> lits.(i) <- inject_stem i (CB.vtrue b)
      | _ -> ())
    nl;
  Array.iter
    (fun i ->
      match Netlist.kind nl i with
      | Cell.Output -> ()
      | k ->
        let ins =
          Array.to_list
            (Array.mapi
               (fun p d -> inject_operand i p (lit_of d))
               (Netlist.fanin nl i))
        in
        lits.(i) <- inject_stem i (CB.cell b k ins))
    (Netlist.topo nl);
  lit_of

(* The captured next state of one copy, from its cycle lookup. *)
let next_state b nl lit_of ~inject_operand =
  let st = Array.make (Netlist.length nl) 0 in
  Array.iter
    (fun i ->
      let ins =
        Array.to_list
          (Array.mapi
             (fun p d -> inject_operand i p (lit_of d))
             (Netlist.fanin nl i))
      in
      st.(i) <- CB.capture b (Netlist.kind nl i) ins)
    (Netlist.seq_nodes nl);
  st

let id_stem _ l = l
let id_operand _ _ l = l

let unroll b nl ~init ~steps =
  let states = Array.make (steps + 1) init in
  for c = 0 to steps - 1 do
    let fr = frame b nl in
    let lit =
      eval_cycle b nl fr states.(c) ~inject_stem:id_stem
        ~inject_operand:id_operand
    in
    states.(c + 1) <- next_state b nl lit ~inject_operand:id_operand
  done;
  states

let unroll2 ?(inject_stem = id_stem) ?(inject_operand = id_operand) b nl
    ~frames ~good ~bad ~observe =
  let g = ref good and f = ref bad in
  Array.iter
    (fun fr ->
      let glit =
        eval_cycle b nl fr !g ~inject_stem:id_stem ~inject_operand:id_operand
      in
      let flit = eval_cycle b nl fr !f ~inject_stem ~inject_operand in
      observe glit flit;
      g := next_state b nl glit ~inject_operand:id_operand;
      f := next_state b nl flit ~inject_operand)
    frames

let run ?(cycles = 8) ?(observable_output = fun _ -> true)
    ?(conflict_limit = 200_000) nl fault =
  (match fault.Fault.site.Fault.pin with
  | Cell.Pin.Clk -> invalid_arg "Bmc.run: clock-pin fault"
  | _ -> ());
  let s = S.create () in
  let b = CB.create s in
  let { Fault.node = fnode; pin = fpin } = fault.Fault.site in
  let stuck = CB.of_bool b fault.Fault.stuck in
  (* a stem fault on a flop output also covers its state: [eval_cycle]
     rewrites the flop's source literal every cycle *)
  let inject_stem i l = if fpin = Cell.Pin.Out && i = fnode then stuck else l in
  let inject_operand i p l =
    if i = fnode && Cell.Pin.equal fpin (Cell.Pin.In p) then stuck else l
  in
  let frames = frames b nl cycles in
  let init = reset_state b nl in
  let diffs = ref [] in
  unroll2 ~inject_stem ~inject_operand b nl ~frames ~good:init ~bad:init
    ~observe:(fun good_lit faulty_lit ->
      Array.iter
        (fun o ->
          if observable_output o then begin
            let d = (Netlist.fanin nl o).(0) in
            (* a branch fault directly into this port pin *)
            let fa =
              if o = fnode && Cell.Pin.equal fpin (Cell.Pin.In 0) then stuck
              else faulty_lit d
            in
            let x = CB.mk_xor2 b (good_lit d) fa in
            if not (CB.is_false b x) then diffs := x :: !diffs
          end)
        (Netlist.outputs nl));
  match !diffs with
  | [] -> No_test_within cycles
  | ds -> (
    S.add_clause s ds;
    match S.solve ~conflict_limit s with
    | S.Unsat -> No_test_within cycles
    | S.Unknown -> Unknown
    | S.Sat model ->
      let value v =
        if CB.is_true b v then true
        else if CB.is_false b v then false
        else model (abs v) = (v > 0)
      in
      Test
        (Array.map
           (fun fr ->
             Array.to_list (Netlist.inputs nl)
             |> List.map (fun i -> (i, value fr.(i)))
             |> List.sort compare)
           frames))

let confirm_test ?(observable_output = fun _ -> true) nl fault stim =
  let open Olfu_sim in
  let run_one ~faulty =
    let sim = Seq_sim.create ~init:Logic4.L0 nl in
    let override =
      if not faulty then None
      else
        match fault.Fault.site.Fault.pin with
        | Cell.Pin.Out ->
          Some
            (fun i ->
              if i = fault.Fault.site.Fault.node then
                Some (if fault.Fault.stuck then Logic4.L1 else Logic4.L0)
              else None)
        | Cell.Pin.In _ | Cell.Pin.Clk -> None
    in
    let traces = ref [] in
    Array.iter
      (fun assigns ->
        List.iter
          (fun (i, v) -> Seq_sim.set_input sim i (Logic4.of_bool v))
          assigns;
        Seq_sim.settle ?override sim;
        let snapshot =
          Netlist.outputs nl |> Array.to_list
          |> List.filter observable_output
          |> List.map (fun o -> Seq_sim.value sim (Netlist.fanin nl o).(0))
        in
        traces := snapshot :: !traces;
        Seq_sim.step ?override sim)
      stim;
    List.rev !traces
  in
  match fault.Fault.site.Fault.pin with
  | Cell.Pin.In _ | Cell.Pin.Clk ->
    (* the simulator-level override only injects stems; branch faults are
       confirmed through the SAT encoding itself *)
    true
  | Cell.Pin.Out ->
    let good = run_one ~faulty:false in
    let bad = run_one ~faulty:true in
    List.exists2
      (fun g f ->
        List.exists2
          (fun a c ->
            Logic4.is_binary a && Logic4.is_binary c
            && not (Logic4.equal a c))
          g f)
      good bad

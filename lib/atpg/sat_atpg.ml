open Olfu_netlist
open Olfu_fault
module S = Olfu_sat.Solver

type result = Test of Podem.assignment | Untestable | Unknown

open Cnf

let is_assignable nl i =
  match Netlist.kind nl i with
  | Cell.Input -> true
  | k -> Cell.is_seq k

let run ?(conflict_limit = 200_000) nl fault =
  (match fault.Fault.site.Fault.pin with
  | Cell.Pin.Clk -> invalid_arg "Sat_atpg.run: clock-pin fault"
  | _ -> ());
  let s = S.create () in
  let fresh () = S.new_var s in
  let n = Netlist.length nl in
  (* good-circuit variables for every non-marker node *)
  let good = Array.make n 0 in
  Netlist.iter_nodes
    (fun i nd ->
      match nd.Netlist.kind with
      | Cell.Output -> ()
      | _ -> good.(i) <- fresh ())
    nl;
  let good_lit i =
    match Netlist.kind nl i with
    | Cell.Output -> good.((Netlist.fanin nl i).(0))
    | _ -> good.(i)
  in
  (* constants and sources *)
  Netlist.iter_nodes
    (fun i nd ->
      match nd.Netlist.kind with
      | Cell.Tie0 -> S.add_clause s [ -good.(i) ]
      | Cell.Tie1 -> S.add_clause s [ good.(i) ]
      | _ -> ignore nd)
    nl;
  (* good-circuit gate clauses *)
  Array.iter
    (fun i ->
      match Netlist.kind nl i with
      | Cell.Output -> ()
      | k ->
        let ins =
          Array.to_list (Array.map (fun d -> good_lit d) (Netlist.fanin nl i))
        in
        encode_cell s fresh k good.(i) ins)
    (Netlist.topo nl);
  (* fault cone (combinational nodes whose value can differ) *)
  let { Fault.node = fnode; pin = fpin } = fault.Fault.site in
  let stuck_lit v = if fault.Fault.stuck then v else -v in
  let vconst = fresh () in
  (* vconst is the faulty value at the fault site *)
  S.add_clause s [ stuck_lit vconst ];
  let in_cone = Array.make n false in
  let faulty = Array.make n 0 in
  let rec spread i =
    (* mark comb nodes downstream of a difference *)
    Array.iter
      (fun (sink, _) ->
        match Netlist.kind nl sink with
        | Cell.Output -> ()
        | k when Cell.is_seq k -> ()
        | _ ->
          if not in_cone.(sink) then begin
            in_cone.(sink) <- true;
            spread sink
          end)
      (Netlist.fanout nl i)
  in
  let branch_sink =
    match fpin with
    | Cell.Pin.Out ->
      in_cone.(fnode) <- true;
      faulty.(fnode) <- vconst;
      spread fnode;
      None
    | Cell.Pin.In _ -> (
      match Netlist.kind nl fnode with
      | Cell.Output | Cell.Dff | Cell.Dffr | Cell.Sdff | Cell.Sdffr ->
        Some fnode
      | _ ->
        in_cone.(fnode) <- true;
        spread fnode;
        Some fnode)
    | Cell.Pin.Clk -> assert false
  in
  (* faulty copies of cone nodes *)
  Netlist.iter_nodes
    (fun i _ -> if in_cone.(i) && faulty.(i) = 0 then faulty.(i) <- fresh ())
    nl;
  let faulty_operand sink p drv =
    if
      Some sink = branch_sink
      && Cell.Pin.equal fault.Fault.site.Fault.pin (Cell.Pin.In p)
    then vconst
    else if in_cone.(drv) then faulty.(drv)
    else good_lit drv
  in
  Array.iter
    (fun i ->
      if in_cone.(i) && not (i = fnode && fpin = Cell.Pin.Out) then begin
        (* note: for a stem fault the site's faulty var is the constant and
           gets no gate clauses; for a branch fault the sink is encoded
           with the forced operand *)
        match Netlist.kind nl i with
        | Cell.Output -> ()
        | k ->
          let ins =
            Array.to_list
              (Array.mapi (fun p d -> faulty_operand i p d) (Netlist.fanin nl i))
          in
          encode_cell s fresh k faulty.(i) ins
      end)
    (Netlist.topo nl);
  (* observation differences *)
  let diffs = ref [] in
  Array.iter
    (fun o ->
      let d = (Netlist.fanin nl o).(0) in
      if Some o = branch_sink then begin
        (* fault forces the port to the stuck value: a difference needs
           the good value opposite *)
        let x = fresh () in
        equal_gate s x (if fault.Fault.stuck then -good_lit d else good_lit d);
        diffs := x :: !diffs
      end
      else if in_cone.(d) then begin
        let x = fresh () in
        xor2_gate s x (good_lit d) faulty.(d);
        diffs := x :: !diffs
      end)
    (Netlist.outputs nl);
  Array.iter
    (fun i ->
      let fanin = Netlist.fanin nl i in
      let touched =
        Some i = branch_sink || Array.exists (fun d -> in_cone.(d)) fanin
      in
      if touched then begin
        let k = Netlist.kind nl i in
        let good_ins = Array.to_list (Array.map good_lit fanin) in
        let faulty_ins =
          Array.to_list (Array.mapi (fun p d -> faulty_operand i p d) fanin)
        in
        let cg = encode_capture s fresh k good_ins in
        let cf = encode_capture s fresh k faulty_ins in
        let x = fresh () in
        xor2_gate s x cg cf;
        diffs := x :: !diffs
      end)
    (Netlist.seq_nodes nl);
  match !diffs with
  | [] -> Untestable
  | ds -> (
    S.add_clause s ds;
    match S.solve ~conflict_limit s with
    | S.Unsat -> Untestable
    | S.Unknown -> Unknown
    | S.Sat model ->
      let asg = ref [] in
      Netlist.iter_nodes
        (fun i _ ->
          if is_assignable nl i && good.(i) > 0 then
            asg := (i, model good.(i)) :: !asg)
        nl;
      Test (List.rev !asg))

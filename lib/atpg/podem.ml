open Olfu_logic
open Olfu_netlist
open Olfu_fault
open Olfu_sim

type assignment = (int * bool) list
type result = Test of assignment | Proved_untestable | Aborted

type state = {
  nl : Netlist.t;
  fault : Fault.t;
  obs_out : int -> bool;
  assign : Logic4.t array;  (* pseudo-input decisions; X = unassigned *)
  values : Logic5.t array;
  captures : Logic5.t array;  (* per seq-node order index *)
  seq_index : int array;  (* seq order index per node id, -1 otherwise *)
  scratch : Logic5.t array array;  (* per-arity operand buffers *)
}

let stuck4 f = if f.Fault.stuck then Logic4.L1 else Logic4.L0

let is_assignable nl i =
  match Netlist.kind nl i with
  | Cell.Input -> true
  | k -> Cell.is_seq k

let make nl fault ~obs_out =
  let n = Netlist.length nl in
  let seq_index = Array.make n (-1) in
  Array.iteri (fun k i -> seq_index.(i) <- k) (Netlist.seq_nodes nl);
  let max_arity = ref 1 in
  Netlist.iter_nodes
    (fun _ nd ->
      let a = Array.length nd.Netlist.fanin in
      if a > !max_arity then max_arity := a)
    nl;
  {
    nl;
    fault;
    obs_out;
    assign = Array.make n Logic4.X;
    values = Array.make n Logic5.X;
    captures = Array.make (Array.length (Netlist.seq_nodes nl)) Logic5.X;
    seq_index;
    scratch = Array.init (!max_arity + 1) (fun a -> Array.make a Logic5.X);
  }

(* Faulty-rail replacement for a stem value. *)
let inject_stem st node v =
  let f = st.fault in
  if f.Fault.site.Fault.pin = Cell.Pin.Out && f.Fault.site.Fault.node = node
  then Logic5.of_pair ~good:(Logic5.good v) ~faulty:(stuck4 f)
  else v

(* Value seen by input [pin] of [node], with branch-fault injection. *)
let operand st node pin =
  let drv = (Netlist.fanin st.nl node).(pin) in
  let v = st.values.(drv) in
  let f = st.fault in
  if f.Fault.site.Fault.node = node
     && Cell.Pin.equal f.Fault.site.Fault.pin (Cell.Pin.In pin)
  then Logic5.of_pair ~good:(Logic5.good v) ~faulty:(stuck4 f)
  else v

let operands st node =
  Array.init (Array.length (Netlist.fanin st.nl node)) (operand st node)

let capture_value st node =
  let pin = operand st node in
  match Netlist.kind st.nl node with
  | Cell.Dff -> pin 0
  | Cell.Dffr -> Logic5.mux ~sel:(pin 1) ~a:Logic5.Zero ~b:(pin 0)
  | Cell.Sdff -> Logic5.mux ~sel:(pin 2) ~a:(pin 0) ~b:(pin 1)
  | Cell.Sdffr ->
    Logic5.mux ~sel:(pin 3) ~a:Logic5.Zero
      ~b:(Logic5.mux ~sel:(pin 2) ~a:(pin 0) ~b:(pin 1))
  | _ -> assert false

let simulate st =
  let nl = st.nl in
  Netlist.iter_nodes
    (fun i nd ->
      match nd.Netlist.kind with
      | Cell.Input | Cell.Dff | Cell.Dffr | Cell.Sdff | Cell.Sdffr ->
        let base = st.assign.(i) in
        st.values.(i) <-
          inject_stem st i (Logic5.of_pair ~good:base ~faulty:base)
      | Cell.Tie0 -> st.values.(i) <- inject_stem st i Logic5.Zero
      | Cell.Tie1 -> st.values.(i) <- inject_stem st i Logic5.One
      | Cell.Tiex -> st.values.(i) <- Logic5.X
      | _ -> ())
    nl;
  Array.iter
    (fun i ->
      let arity = Array.length (Netlist.fanin nl i) in
      let buf = st.scratch.(arity) in
      for p = 0 to arity - 1 do
        buf.(p) <- operand st i p
      done;
      let v = Eval.comb5 (Netlist.kind nl i) buf in
      st.values.(i) <- inject_stem st i v)
    (Netlist.topo nl);
  Array.iter
    (fun i -> st.captures.(st.seq_index.(i)) <- capture_value st i)
    (Netlist.seq_nodes nl)

let detected st =
  Array.exists
    (fun o -> st.obs_out o && Logic5.is_error (operand st o 0))
    (Netlist.outputs st.nl)
  || Array.exists Logic5.is_error st.captures

(* Good value currently on the fault site; the fault is excited when the
   site carries D/D'. *)
let site_value st =
  let { Fault.node; pin } = st.fault.Fault.site in
  match pin with
  | Cell.Pin.Out -> st.values.(node)
  | Cell.Pin.In p -> operand st node p
  | Cell.Pin.Clk -> assert false

let excitation_net st =
  let { Fault.node; pin } = st.fault.Fault.site in
  match pin with
  | Cell.Pin.Out -> node
  | Cell.Pin.In p -> (Netlist.fanin st.nl node).(p)
  | Cell.Pin.Clk -> assert false

(* X-path check: can some error still reach an observation point through
   X-valued logic?  Computed as aliveness over the reverse topological
   order. *)
let xpath_exists st =
  let nl = st.nl in
  let n = Netlist.length nl in
  let alive = Array.make n false in
  Array.iter
    (fun o -> if st.obs_out o then alive.((Netlist.fanin nl o).(0)) <- true)
    (Netlist.outputs nl);
  Array.iter
    (fun i -> Array.iter (fun d -> alive.(d) <- true) (Netlist.fanin nl i))
    (Netlist.seq_nodes nl);
  let order = Netlist.topo nl in
  for k = Array.length order - 1 downto 0 do
    let i = order.(k) in
    let open_out =
      alive.(i)
      && (match st.values.(i) with
         | Logic5.X | Logic5.D | Logic5.Dbar -> true
         | Logic5.Zero | Logic5.One -> false)
    in
    if open_out then
      Array.iter (fun d -> alive.(d) <- true) (Netlist.fanin nl i)
  done;
  let found = ref false in
  Netlist.iter_nodes
    (fun i _ -> if alive.(i) && Logic5.is_error st.values.(i) then found := true)
    nl;
  !found
  || (let site = site_value st in
     if Logic5.is_error site then
       (* A branch fault's error lives on the fanout branch only; it is
          alive while its sink gate can still pass it on. *)
       match st.fault.Fault.site.Fault.pin with
       | Cell.Pin.Out | Cell.Pin.Clk -> false
       | Cell.Pin.In _ -> (
         let sink = st.fault.Fault.site.Fault.node in
         match Netlist.kind nl sink with
         | Cell.Output -> st.obs_out sink
         | k when Cell.is_seq k -> true
         | _ -> (
           match st.values.(sink) with
           | Logic5.X -> alive.(sink)
           | Logic5.D | Logic5.Dbar -> true
           | Logic5.Zero | Logic5.One -> false))
     else
       (* Not yet excited: keep going while the excitation net is alive. *)
       alive.(excitation_net st))

let noncontrolling = function
  | Cell.And | Cell.Nand -> Logic4.L1
  | Cell.Or | Cell.Nor -> Logic4.L0
  | _ -> Logic4.L1

(* Pick the D-frontier gate closest to an observation point (lowest
   SCOAP observability) and return the objective (net, value) that
   enables propagation through it. *)
let frontier_objective st guide =
  let nl = st.nl in
  let best = ref None in
  let best_cost = ref max_int in
  Array.iter
    (fun i ->
      if (match st.values.(i) with Logic5.X -> true | _ -> false)
         && Scoap.co guide i < !best_cost
      then begin
        let ins = operands st i in
        if Array.exists Logic5.is_error ins then begin
          (* choose an X side input *)
          let fanin = Netlist.fanin nl i in
          let pin = ref (-1) in
          Array.iteri
            (fun p v ->
              if !pin < 0 && (match v with Logic5.X -> true | _ -> false)
              then pin := p)
            ins;
          if !pin >= 0 then begin
            let k = Netlist.kind nl i in
            let v =
              match k, !pin with
              | Cell.Mux2, 0 ->
                (* select the erroneous data input *)
                if Logic5.is_error ins.(1) then Logic4.L0 else Logic4.L1
              | Cell.Mux2, _ -> Logic4.L1
              | _ -> noncontrolling k
            in
            best := Some (fanin.(!pin), v);
            best_cost := Scoap.co guide i
          end
        end
      end)
    (Netlist.topo nl);
  (* Flip-flop captures are pseudo-outputs: an error arriving on a flop
     pin with the capture still X is also a propagation frontier. *)
  if !best = None then
    Array.iter
      (fun i ->
        if !best = None
           && (match st.captures.(st.seq_index.(i)) with
              | Logic5.X -> true
              | _ -> false)
        then begin
          let ins = operands st i in
          let fanin = Netlist.fanin nl i in
          let isx p = match ins.(p) with Logic5.X -> true | _ -> false in
          let err p = Logic5.is_error ins.(p) in
          let inv5 p =
            (* complement of a binary 5-value, as an objective *)
            match ins.(p) with
            | Logic5.One -> Some Logic4.L0
            | Logic5.Zero -> Some Logic4.L1
            | _ -> Some Logic4.L1
          in
          match Netlist.kind nl i with
          | Cell.Dffr ->
            if err 0 && isx 1 then best := Some (fanin.(1), Logic4.L1)
            else if err 1 && isx 0 then best := Some (fanin.(0), Logic4.L1)
          | Cell.Sdff | Cell.Sdffr ->
            if err 0 && isx 2 then best := Some (fanin.(2), Logic4.L0)
            else if err 1 && isx 2 then best := Some (fanin.(2), Logic4.L1)
            else if err 2 then begin
              (* a select error shows iff the two data inputs differ *)
              if isx 0 then
                best := Option.map (fun v -> (fanin.(0), v)) (inv5 1)
              else if isx 1 then
                best := Option.map (fun v -> (fanin.(1), v)) (inv5 0)
            end
            else if Array.length fanin = 4 && err 3 && isx 0 then
              (* reset error shows iff the captured value is 1 *)
              best := Some (fanin.(0), Logic4.L1)
          | _ -> ()
        end)
      (Netlist.seq_nodes nl);
  !best

(* Map an objective to an unassigned pseudo-input decision by walking
   X-valued nets backwards, SCOAP-guided: when one input suffices
   (controlling value) take the cheapest; when all inputs are needed take
   the hardest first (classic multiple-backtrace ordering). *)
let rec backtrace st guide net v =
  if is_assignable st.nl net then
    if Logic4.is_binary st.assign.(net) then None else Some (net, v)
  else
    let fanin = Netlist.fanin st.nl net in
    let cost_of want d =
      match (want : Logic4.t) with
      | Logic4.L0 -> Scoap.cc0 guide d
      | Logic4.L1 -> Scoap.cc1 guide d
      | Logic4.X | Logic4.Z -> 0
    in
    (* choose among X-valued fanins; [easiest] selects min cost for the
       requested value, otherwise max (hardest-first) *)
    let pick ~easiest want =
      let best = ref None in
      Array.iter
        (fun d ->
          if match st.values.(d) with Logic5.X -> true | _ -> false then begin
            let c = cost_of want d in
            match !best with
            | None -> best := Some (d, c)
            | Some (_, c') ->
              if (easiest && c < c') || ((not easiest) && c > c') then
                best := Some (d, c)
          end)
        fanin;
      Option.map fst !best
    in
    let go_and v =
      (* output v=1 needs all inputs 1 (hardest first); v=0 needs one 0
         (easiest) *)
      match (v : Logic4.t) with
      | Logic4.L1 -> pick ~easiest:false Logic4.L1
      | _ -> pick ~easiest:true Logic4.L0
    in
    let go_or v =
      match (v : Logic4.t) with
      | Logic4.L0 -> pick ~easiest:false Logic4.L0
      | _ -> pick ~easiest:true Logic4.L1
    in
    match Netlist.kind st.nl net with
    | Cell.Buf | Cell.Output -> backtrace st guide fanin.(0) v
    | Cell.Not -> backtrace st guide fanin.(0) (Logic4.not_ v)
    | Cell.And -> (
      match go_and v with Some d -> backtrace st guide d v | None -> None)
    | Cell.Nand -> (
      let v' = Logic4.not_ v in
      match go_and v' with Some d -> backtrace st guide d v' | None -> None)
    | Cell.Or -> (
      match go_or v with Some d -> backtrace st guide d v | None -> None)
    | Cell.Nor -> (
      let v' = Logic4.not_ v in
      match go_or v' with Some d -> backtrace st guide d v' | None -> None)
    | Cell.Xor | Cell.Xnor -> (
      match pick ~easiest:true v with
      | Some d -> backtrace st guide d v
      | None -> None)
    | Cell.Mux2 -> (
      let sel = fanin.(0) and a = fanin.(1) and b = fanin.(2) in
      match st.values.(sel) with
      | Logic5.Zero -> backtrace st guide a v
      | Logic5.One -> backtrace st guide b v
      | _ ->
        if (match st.values.(a) with Logic5.X -> true | _ -> false) then
          backtrace st guide a v
        else if (match st.values.(b) with Logic5.X -> true | _ -> false) then
          backtrace st guide b v
        else backtrace st guide sel Logic4.L0)
    | Cell.Tie0 | Cell.Tie1 | Cell.Tiex -> None
    | Cell.Input | Cell.Dff | Cell.Dffr | Cell.Sdff | Cell.Sdffr -> None
  [@@warning "-4"]

let run ?(backtrack_limit = 10_000) ?(observable_output = fun _ -> true)
    ?guide nl fault =
  (match fault.Fault.site.Fault.pin with
  | Cell.Pin.Clk -> invalid_arg "Podem.run: clock-pin fault"
  | _ -> ());
  let guide = match guide with Some g -> g | None -> Scoap.run nl in
  let st = make nl fault ~obs_out:observable_output in
  let decisions = ref [] in  (* (pi, value, flipped) *)
  let backtracks = ref 0 in
  let exception Done of result in
  let imply () = simulate st in
  let backtrack () =
    let rec pop = function
      | [] -> raise (Done Proved_untestable)
      | (pi, _, true) :: rest ->
        st.assign.(pi) <- Logic4.X;
        pop rest
      | (pi, v, false) :: rest ->
        incr backtracks;
        if !backtracks > backtrack_limit then raise (Done Aborted);
        let v' = Logic4.not_ v in
        st.assign.(pi) <- v';
        decisions := (pi, v', true) :: rest
    in
    pop !decisions;
    imply ()
  in
  let current_test () =
    List.rev_map
      (fun (pi, v, _) -> (pi, Logic4.equal v Logic4.L1))
      !decisions
  in
  (try
     imply ();
     while true do
       if detected st then raise (Done (Test (current_test ())));
       let site = site_value st in
       let unexcitable =
         (* The good value on the site equals the stuck value: this path
            of the search cannot excite the fault. *)
         (not (Logic5.is_error site))
         && Logic4.is_binary (Logic5.good site)
         && Logic4.equal (Logic5.good site) (stuck4 fault)
       in
       if unexcitable || not (xpath_exists st) then backtrack ()
       else begin
         let objective =
           if Logic5.is_error site then frontier_objective st guide
           else Some (excitation_net st, Logic4.not_ (stuck4 fault))
         in
         match objective with
         | None -> backtrack ()
         | Some (net, v) -> (
           match backtrace st guide net v with
           | None -> backtrack ()
           | Some (pi, bv) ->
             st.assign.(pi) <- bv;
             decisions := (pi, bv, false) :: !decisions;
             imply ())
       end
     done;
     assert false
   with Done r -> r)

let check_test ?(observable_output = fun _ -> true) nl fault assignment =
  let st = make nl fault ~obs_out:observable_output in
  List.iter
    (fun (pi, b) ->
      if not (is_assignable nl pi) then
        invalid_arg "Podem.check_test: not a pseudo-input";
      st.assign.(pi) <- Logic4.of_bool b)
    assignment;
  simulate st;
  detected st

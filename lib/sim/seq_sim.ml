open Olfu_logic
open Olfu_netlist

type t = {
  nl : Netlist.t;
  env : Comb_sim.env;
  inputs : Logic4.t array;  (* indexed by node id; only input slots used *)
}

let create ?(init = Logic4.X) nl =
  let env = Comb_sim.init nl Logic4.X in
  Array.iter (fun i -> env.(i) <- init) (Netlist.seq_nodes nl);
  { nl; env; inputs = Array.make (Netlist.length nl) Logic4.X }

let netlist t = t.nl

let set_input t i v =
  if not (Cell.equal_kind (Netlist.kind t.nl i) Cell.Input) then
    invalid_arg "Seq_sim.set_input: not a primary input";
  t.inputs.(i) <- v

let set_input_name t s v = set_input t (Netlist.find_exn t.nl s) v

let set_state t i v =
  if not (Cell.is_seq (Netlist.kind t.nl i)) then
    invalid_arg "Seq_sim.set_state: not a sequential cell";
  t.env.(i) <- v

let load_inputs t =
  Array.iter (fun i -> t.env.(i) <- t.inputs.(i)) (Netlist.inputs t.nl)

let settle ?override t =
  load_inputs t;
  match override with
  | None -> Comb_sim.settle t.nl t.env
  | Some f -> Comb_sim.settle_with t.nl t.env ~override:f

let step ?override t =
  settle ?override t;
  let next = Comb_sim.next_states t.nl t.env in
  Array.iter
    (fun (i, v) ->
      let v =
        match override with
        | Some f -> (match f i with Some o -> o | None -> v)
        | None -> v
      in
      t.env.(i) <- v)
    next

let run ?override t n =
  for _ = 1 to n do
    step ?override t
  done

let value t i = t.env.(i)
let value_name t s = value t (Netlist.find_exn t.nl s)

let state t =
  Array.map (fun i -> (i, t.env.(i))) (Netlist.seq_nodes t.nl)

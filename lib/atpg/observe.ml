open Olfu_logic
open Olfu_netlist

type t = {
  nl : Netlist.t;
  net_obs : bool array;
  branch_obs : bool array array;  (* per node, per input pin *)
}

let is0 v = Logic4.equal v Logic4.L0
let is1 v = Logic4.equal v Logic4.L1
let same_binary a b = Logic4.is_binary a && Logic4.equal a b

let pin_allowed_gen ~exempt ~value nl node pin =
  let nd = Netlist.node nl node in
  (* a fault-correlated side net cannot be relied on as a constant *)
  let c i =
    let d = nd.Netlist.fanin.(i) in
    if exempt d then Logic4.X else value d
  in
  let others_not v =
    let ok = ref true in
    Array.iteri (fun i _ -> if i <> pin && Logic4.equal (c i) v then ok := false)
      nd.Netlist.fanin;
    !ok
  in
  match nd.Netlist.kind with
  | Cell.Buf | Cell.Not | Cell.Output | Cell.Dff -> true
  | Cell.And | Cell.Nand -> others_not Logic4.L0
  | Cell.Or | Cell.Nor -> others_not Logic4.L1
  | Cell.Xor | Cell.Xnor -> true
  | Cell.Mux2 -> (
    match pin with
    | 0 -> not (same_binary (c 1) (c 2))
    | 1 -> not (is1 (c 0))
    | _ -> not (is0 (c 0)))
  | Cell.Dffr -> (
    match pin with
    | 0 -> not (is0 (c 1))  (* reset permanently asserted swallows D *)
    | _ ->
      (* Asserting reset is visible only if the register could hold 1. *)
      not (is0 (c 0) && is0 (if exempt node then Logic4.X else value node)))
  | Cell.Sdff -> (
    match pin with
    | 0 -> not (is1 (c 2))  (* D dead when scan-enable stuck in shift *)
    | 1 -> not (is0 (c 2))  (* SI dead in mission mode: the scan rule *)
    | _ -> not (same_binary (c 0) (c 1)))
  | Cell.Sdffr -> (
    match pin with
    | 0 -> not (is1 (c 2)) && not (is0 (c 3))
    | 1 -> not (is0 (c 2)) && not (is0 (c 3))
    | 2 -> not (same_binary (c 0) (c 1)) && not (is0 (c 3))
    | _ ->
      (* reset visible only if the register could hold 1 *)
      not
        (is0 (Logic4.mux ~sel:(c 2) ~a:(c 0) ~b:(c 1))
        && is0 (if exempt node then Logic4.X else value node)))
  | Cell.Input | Cell.Tie0 | Cell.Tie1 | Cell.Tiex ->
    invalid_arg "Observe.pin_allowed: cell has no input pins"

let pin_allowed_exempt ~exempt nl consts node pin =
  pin_allowed_gen ~exempt ~value:(fun i -> consts.(i)) nl node pin

let pin_allowed nl consts node pin =
  pin_allowed_exempt ~exempt:(fun _ -> false) nl consts node pin

let run ?(observable_output = fun _ -> true) nl ~consts =
  let n = Netlist.length nl in
  let net_obs = Array.make n false in
  let branch_obs =
    Array.init n (fun i -> Array.make (Array.length (Netlist.fanin nl i)) false)
  in
  let queue = Queue.create () in
  let mark_net d =
    if not net_obs.(d) then begin
      net_obs.(d) <- true;
      Queue.add d queue
    end
  in
  (* Seed: branches into counted output markers. *)
  Array.iter
    (fun o ->
      if observable_output o then begin
        branch_obs.(o).(0) <- true;
        mark_net (Netlist.fanin nl o).(0)
      end)
    (Netlist.outputs nl);
  (* Backward closure: an observable net makes its driver's input pins
     observable wherever the side constants allow propagation. *)
  while not (Queue.is_empty queue) do
    let node = Queue.pop queue in
    let fanin = Netlist.fanin nl node in
    Array.iteri
      (fun pin drv ->
        if (not branch_obs.(node).(pin)) && pin_allowed nl consts node pin
        then begin
          branch_obs.(node).(pin) <- true;
          mark_net drv
        end)
      fanin
  done;
  { nl; net_obs; branch_obs }

let net t i = t.net_obs.(i)
let branch t node pin = t.branch_obs.(node).(pin)

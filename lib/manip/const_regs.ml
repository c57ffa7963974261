open Olfu_logic
open Olfu_netlist
open Olfu_atpg
module B = Netlist.Builder

let constant_flops ?(ff_mode = Ternary.Steady_state) nl =
  let t = Ternary.run ~ff_mode nl in
  Netlist.seq_nodes nl |> Array.to_list
  |> List.filter_map (fun i ->
         let v = Ternary.const_of t i in
         if Logic4.is_binary v then Some (i, v) else None)

let tie_flop b ff v =
  Tie.Batch.pin b ~node:ff ~pin:0 v;
  Tie.Batch.net b ff v

let tie_selected nl select =
  let b = B.of_netlist nl in
  let todo = ref [] in
  Netlist.iter_nodes
    (fun i _ ->
      match select i with Some v -> todo := (i, v) :: !todo | None -> ())
    nl;
  List.iter
    (fun (i, v) ->
      if Cell.is_seq (Netlist.kind nl i) then tie_flop b i v
      else if Cell.equal_kind (Netlist.kind nl i) Cell.Input then
        Tie.Batch.input b i v
      else Tie.Batch.net b i v)
    !todo;
  B.freeze_exn b

let bit_role_value roles forced =
  List.fold_left
    (fun acc r ->
      match acc, r with
      | None, Netlist.Address_reg bit -> forced bit
      | acc, _ -> acc)
    None roles

let tie_address_registers nl ~forced =
  tie_selected nl (fun i ->
      if Cell.is_seq (Netlist.kind nl i) then
        bit_role_value (Netlist.roles_of nl i) forced
      else None)

let tie_address_ports nl ~forced =
  tie_selected nl (fun i ->
      List.fold_left
        (fun acc r ->
          match acc, r with
          | None, Netlist.Address_port bit -> forced bit
          | acc, _ -> acc)
        None (Netlist.roles_of nl i))

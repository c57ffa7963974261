open Olfu_netlist

let tie_flop b ff v =
  Tie.Batch.pin b ~node:ff ~pin:0 v;
  Tie.Batch.net b ff v

(* Ties in descending node order: the order fixes the ids of the new tie
   cells, and so the digest of the result. *)
let tie_selected b nl select =
  for i = Netlist.length nl - 1 downto 0 do
    match select i with
    | None -> ()
    | Some v ->
      if Cell.is_seq (Netlist.kind nl i) then tie_flop b i v
      else if Cell.equal_kind (Netlist.kind nl i) Cell.Input then
        Tie.Batch.input b i v
      else Tie.Batch.net b i v
  done

let bit_role_value nl i forced ~bit_of =
  List.fold_left
    (fun acc r ->
      match acc with
      | Some _ -> acc
      | None -> Option.bind (bit_of r) forced)
    None (Netlist.roles_of nl i)

let tie_addresses nl ~forced =
  Tie.edit nl (fun b ->
      tie_selected b nl (fun i ->
          if Cell.is_seq (Netlist.kind nl i) then
            bit_role_value nl i forced ~bit_of:(function
              | Netlist.Address_reg bit -> Some bit
              | _ -> None)
          else None);
      tie_selected b nl (fun i ->
          bit_role_value nl i forced ~bit_of:(function
            | Netlist.Address_port bit -> Some bit
            | _ -> None)))

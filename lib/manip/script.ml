open Olfu_logic
open Olfu_netlist
module B = Netlist.Builder

type op =
  | Tie_input of string * Logic4.t
  | Tie_net of string * Logic4.t
  | Tie_pin of { node : string; pin : int; value : Logic4.t }
  | Tie_flop of string * Logic4.t
  | Float_output of string

type t = op list

let apply nl ops =
  let find s = Netlist.find_exn nl s in
  Tie.edit nl (fun b ->
      List.iter
        (fun op ->
          match op with
          | Tie_input (s, v) -> Tie.Batch.input b (find s) v
          | Tie_net (s, v) -> Tie.Batch.net b (find s) v
          | Tie_pin { node; pin; value } ->
            Tie.Batch.pin b ~node:(find node) ~pin value
          | Tie_flop (s, v) -> Const_regs.tie_flop b (find s) v
          | Float_output s ->
            let o = find s in
            if not (Cell.equal_kind (Netlist.kind nl o) Cell.Output) then
              invalid_arg (Printf.sprintf "Script: %S is not an output" s);
            B.remove_node (Tie.Batch.builder b) o)
        ops)

let pp_op ppf = function
  | Tie_input (s, v) -> Format.fprintf ppf "tie-input %s = %a" s Logic4.pp v
  | Tie_net (s, v) -> Format.fprintf ppf "tie-net %s = %a" s Logic4.pp v
  | Tie_pin { node; pin; value } ->
    Format.fprintf ppf "tie-pin %s.%d = %a" node pin Logic4.pp value
  | Tie_flop (s, v) -> Format.fprintf ppf "tie-flop %s = %a" s Logic4.pp v
  | Float_output s -> Format.fprintf ppf "float-output %s" s

let pp ppf t =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_op)
    t

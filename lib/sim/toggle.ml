open Olfu_logic
open Olfu_netlist

type t = {
  nl : Netlist.t;
  seen0 : Bytes.t;
  seen1 : Bytes.t;
}

let create nl =
  let n = Netlist.length nl in
  { nl; seen0 = Bytes.make n '\000'; seen1 = Bytes.make n '\000' }

let mark b i = Bytes.set b i '\001'
let seen b i = Bytes.get b i = '\001'

let record t sim =
  for i = 0 to Netlist.length t.nl - 1 do
    match Seq_sim.value sim i with
    | Logic4.L0 -> mark t.seen0 i
    | Logic4.L1 -> mark t.seen1 i
    | Logic4.X | Logic4.Z -> ()
  done

type verdict = Constant of Logic4.t | Never_driven | Toggled

let verdict t i =
  match seen t.seen0 i, seen t.seen1 i with
  | true, true -> Toggled
  | true, false -> Constant Logic4.L0
  | false, true -> Constant Logic4.L1
  | false, false -> Never_driven

let suspects t =
  Netlist.inputs t.nl |> Array.to_list
  |> List.filter (fun i -> verdict t i <> Toggled)

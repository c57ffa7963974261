open Olfu_logic
open Olfu_netlist
module B = Netlist.Builder

let kind_of_value = function
  | Logic4.L0 -> Cell.Tie0
  | Logic4.L1 -> Cell.Tie1
  | Logic4.X | Logic4.Z -> Cell.Tiex

module Batch = struct
  type t = {
    b : B.t;
    size : int;  (* node count of the netlist being edited *)
    mutable pending : (int * int) list;  (* (net, tie), newest first *)
  }

  let builder t = t.b

  let input t i v =
    if not (Cell.equal_kind (B.node_kind t.b i) Cell.Input) then
      invalid_arg "Tie.input: not a primary input";
    B.set_kind t.b i (kind_of_value v)

  let pin t ~node ~pin v =
    let tie = B.tie t.b v in
    let fanin = B.node_fanin t.b node in
    fanin.(pin) <- tie;
    B.set_fanin t.b node fanin

  let net t i v =
    if i < 0 || i >= t.size then invalid_arg "Tie.net: not a net";
    t.pending <- (i, B.tie t.b v) :: t.pending

  (* Every pending net tie in one pass over the fanins.  A net tied twice
     keeps its first tie: redirecting one net at a time leaves nothing
     for the second tie to take.  Pin ties were applied at once and read
     a tie, never a tied net, so the order of the two kinds of edit does
     not matter. *)
  let flush t =
    if t.pending <> [] then begin
      let target = Array.make t.size (-1) in
      List.iter (fun (i, tie) -> target.(i) <- tie) t.pending;
      B.redirect t.b target
    end
end

let edit nl f =
  let b = B.of_netlist nl in
  let t = { Batch.b; size = Netlist.length nl; pending = [] } in
  f t;
  Batch.flush t;
  B.freeze_exn b

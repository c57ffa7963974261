open Olfu_netlist

type t = {
  parent : int array;  (* union-find, path-halving *)
  mutable classes : int;
}

let rec find uf i =
  let p = uf.parent.(i) in
  if p = i then i
  else begin
    uf.parent.(i) <- uf.parent.(p);
    find uf uf.parent.(i)
  end

let union uf a b =
  let ra = find uf a and rb = find uf b in
  if ra <> rb then begin
    (* Keep the smaller index as representative for determinism. *)
    let lo = min ra rb and hi = max ra rb in
    uf.parent.(hi) <- lo;
    uf.classes <- uf.classes - 1
  end

let compute fl =
  let nl = Flist.netlist fl in
  let n = Flist.size fl in
  let uf = { parent = Array.init n (fun i -> i); classes = n } in
  let join fa fb =
    match Flist.find fl fa, Flist.find fl fb with
    | Some a, Some b -> union uf a b
    | _ -> ()
  in
  (* Gate-local equivalences. *)
  Netlist.iter_nodes
    (fun i nd ->
      let nins = Array.length nd.Netlist.fanin in
      let each_input f = for p = 0 to nins - 1 do f (Cell.Pin.In p) done in
      match nd.Netlist.kind with
      | Cell.Buf ->
        join (Fault.sa0 i (Cell.Pin.In 0)) (Fault.sa0 i Cell.Pin.Out);
        join (Fault.sa1 i (Cell.Pin.In 0)) (Fault.sa1 i Cell.Pin.Out)
      | Cell.Not ->
        join (Fault.sa0 i (Cell.Pin.In 0)) (Fault.sa1 i Cell.Pin.Out);
        join (Fault.sa1 i (Cell.Pin.In 0)) (Fault.sa0 i Cell.Pin.Out)
      | Cell.And ->
        each_input (fun p -> join (Fault.sa0 i p) (Fault.sa0 i Cell.Pin.Out))
      | Cell.Nand ->
        each_input (fun p -> join (Fault.sa0 i p) (Fault.sa1 i Cell.Pin.Out))
      | Cell.Or ->
        each_input (fun p -> join (Fault.sa1 i p) (Fault.sa1 i Cell.Pin.Out))
      | Cell.Nor ->
        each_input (fun p -> join (Fault.sa1 i p) (Fault.sa0 i Cell.Pin.Out))
      | Cell.Input | Cell.Output | Cell.Tie0 | Cell.Tie1 | Cell.Tiex
      | Cell.Xor | Cell.Xnor | Cell.Mux2 | Cell.Dff | Cell.Dffr | Cell.Sdff
      | Cell.Sdffr ->
        ())
    nl;
  (* Stem ≡ single branch. *)
  Netlist.iter_nodes
    (fun i _ ->
      match Netlist.fanout nl i with
      | [| (sink, pin) |] ->
        join (Fault.sa0 i Cell.Pin.Out) (Fault.sa0 sink (Cell.Pin.In pin));
        join (Fault.sa1 i Cell.Pin.Out) (Fault.sa1 sink (Cell.Pin.In pin))
      | _ -> ())
    nl;
  uf

let same_class t a b = find t a = find t b
let num_classes t = t.classes

let class_members t i =
  let r = find t i in
  let acc = ref [] in
  for j = Array.length t.parent - 1 downto 0 do
    if find t j = r then acc := j :: !acc
  done;
  !acc

let representatives t =
  let acc = ref [] in
  for i = Array.length t.parent - 1 downto 0 do
    if find t i = i then acc := i :: !acc
  done;
  !acc

(* Gate-local dominance: a test for the (hard) input fault necessarily
   detects the (easy) output fault. *)
let dominance_pairs fl =
  let nl = Flist.netlist fl in
  let acc = ref [] in
  let add dominator dominated =
    match Flist.find fl dominator, Flist.find fl dominated with
    | Some a, Some b -> acc := (a, b) :: !acc
    | _ -> ()
  in
  Netlist.iter_nodes
    (fun i nd ->
      let nins = Array.length nd.Netlist.fanin in
      let each f = for p = 0 to nins - 1 do f (Cell.Pin.In p) done in
      match nd.Netlist.kind with
      | Cell.And -> each (fun p -> add (Fault.sa1 i Cell.Pin.Out) (Fault.sa1 i p))
      | Cell.Nand -> each (fun p -> add (Fault.sa0 i Cell.Pin.Out) (Fault.sa1 i p))
      | Cell.Or -> each (fun p -> add (Fault.sa0 i Cell.Pin.Out) (Fault.sa0 i p))
      | Cell.Nor -> each (fun p -> add (Fault.sa1 i Cell.Pin.Out) (Fault.sa0 i p))
      | Cell.Input | Cell.Output | Cell.Tie0 | Cell.Tie1 | Cell.Tiex
      | Cell.Buf | Cell.Not | Cell.Xor | Cell.Xnor | Cell.Mux2 | Cell.Dff
      | Cell.Dffr | Cell.Sdff | Cell.Sdffr ->
        ())
    nl;
  List.rev !acc

let dominance_prune fl =
  let n = ref 0 in
  List.iter
    (fun (dominator, dominated) ->
      if
        Status.equal (Flist.status fl dominator) Status.Not_analyzed
        && Status.equal (Flist.status fl dominated) Status.Not_analyzed
      then begin
        Flist.set_status fl dominator Status.Not_detected;
        incr n
      end)
    (dominance_pairs fl);
  !n

let spread t fl =
  for i = 0 to Flist.size fl - 1 do
    let r = find t i in
    if r <> i then Flist.set_status fl i (Flist.status fl r)
  done

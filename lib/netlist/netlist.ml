open Olfu_logic

type node = {
  kind : Cell.kind;
  fanin : int array;
  name : string option;
}

type role =
  | Clock
  | Reset
  | Scan_enable
  | Scan_in
  | Scan_out
  | Debug_control
  | Debug_observe
  | Address_reg of int
  | Address_port of int

let equal_role (a : role) b = a = b

type t = {
  nodes : node array;
  fanouts : (int * int) array array;
  names : (string, int) Hashtbl.t;
  roles : (int, role list) Hashtbl.t;
  inputs : int array;
  outputs : int array;
  seqs : int array;
  order : int array;  (* combinational evaluation order *)
  levels : int array;
}

type error =
  | Bad_arity of { node : int; expected : int; got : int }
  | Dangling_fanin of { node : int; pin : int; target : int }
  | Duplicate_name of string
  | Combinational_loop of int list

let pp_error ppf = function
  | Bad_arity { node; expected; got } ->
    Format.fprintf ppf "node %d: expected %d fanins, got %d" node expected got
  | Dangling_fanin { node; pin; target } ->
    Format.fprintf ppf "node %d pin %d: dangling reference to %d" node pin
      target
  | Duplicate_name s -> Format.fprintf ppf "duplicate net name %S" s
  | Combinational_loop ns ->
    Format.fprintf ppf "combinational loop through nodes %a"
      Format.(
        pp_print_list ~pp_sep:(fun ppf () -> pp_print_string ppf ",")
          pp_print_int)
      ns

let is_source (k : Cell.kind) =
  match k with
  | Input | Tie0 | Tie1 | Tiex -> true
  | k -> Cell.is_seq k

let validate nodes =
  let errs = ref [] in
  let n = Array.length nodes in
  Array.iteri
    (fun i nd ->
      let got = Array.length nd.fanin in
      (match Cell.arity nd.kind with
      | Some expected ->
        if got <> expected then
          errs := Bad_arity { node = i; expected; got } :: !errs
      | None ->
        if got < Cell.min_arity nd.kind then
          errs := Bad_arity { node = i; expected = 1; got } :: !errs);
      Array.iteri
        (fun pin target ->
          if target < 0 || target >= n then
            errs := Dangling_fanin { node = i; pin; target } :: !errs)
        nd.fanin)
    nodes;
  let seen = Hashtbl.create 97 in
  Array.iter
    (fun nd ->
      match nd.name with
      | None -> ()
      | Some s ->
        if Hashtbl.mem seen s then errs := Duplicate_name s :: !errs
        else Hashtbl.add seen s ())
    nodes;
  List.rev !errs

(* Kahn's algorithm over the combinational subgraph: sequential cells,
   inputs and ties are value sources, everything else must be orderable. *)
let topo_sort nodes fanouts =
  let n = Array.length nodes in
  let indeg = Array.make n 0 in
  Array.iteri
    (fun i nd ->
      if not (is_source nd.kind) then
        Array.iter
          (fun drv -> if not (is_source nodes.(drv).kind) then
              indeg.(i) <- indeg.(i) + 1)
          nd.fanin)
    nodes;
  let queue = Queue.create () in
  Array.iteri
    (fun i nd -> if (not (is_source nd.kind)) && indeg.(i) = 0 then
        Queue.add i queue)
    nodes;
  let order = Vec.create () in
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    ignore (Vec.push order i : int);
    Array.iter
      (fun (sink, _pin) ->
        if not (is_source nodes.(sink).kind) then begin
          indeg.(sink) <- indeg.(sink) - 1;
          if indeg.(sink) = 0 then Queue.add sink queue
        end)
      fanouts.(i)
  done;
  let ordered = Vec.to_array order in
  let comb_total =
    Array.fold_left
      (fun acc nd -> if is_source nd.kind then acc else acc + 1)
      0 nodes
  in
  if Array.length ordered = comb_total then Ok ordered
  else begin
    let in_loop = ref [] in
    Array.iteri
      (fun i nd ->
        if (not (is_source nd.kind)) && indeg.(i) > 0 then
          in_loop := i :: !in_loop)
      nodes;
    Error (Combinational_loop (List.rev !in_loop))
  end

let compute_fanouts nodes =
  let n = Array.length nodes in
  let counts = Array.make n 0 in
  Array.iter
    (fun nd -> Array.iter (fun d -> counts.(d) <- counts.(d) + 1) nd.fanin)
    nodes;
  let fanouts = Array.map (fun c -> Array.make c (-1, -1)) counts in
  let fill = Array.make n 0 in
  Array.iteri
    (fun i nd ->
      Array.iteri
        (fun pin d ->
          fanouts.(d).(fill.(d)) <- (i, pin);
          fill.(d) <- fill.(d) + 1)
        nd.fanin)
    nodes;
  fanouts

let create ?(roles = []) nodes =
  match validate nodes with
  | _ :: _ as errs -> Error errs
  | [] -> (
    let fanouts = compute_fanouts nodes in
    match topo_sort nodes fanouts with
    | Error e -> Error [ e ]
    | Ok order ->
      let n = Array.length nodes in
      let names = Hashtbl.create (max 16 n) in
      Array.iteri
        (fun i nd ->
          match nd.name with
          | Some s -> Hashtbl.replace names s i
          | None -> ())
        nodes;
      let role_tbl = Hashtbl.create 97 in
      List.iter
        (fun (i, r) ->
          let old = Option.value ~default:[] (Hashtbl.find_opt role_tbl i) in
          if not (List.exists (equal_role r) old) then
            Hashtbl.replace role_tbl i (r :: old))
        roles;
      let levels = Array.make n 0 in
      Array.iter
        (fun i ->
          let m = ref 0 in
          Array.iter
            (fun d -> if levels.(d) > !m then m := levels.(d))
            nodes.(i).fanin;
          levels.(i) <- !m + 1)
        order;
      let filter p =
        let v = Vec.create () in
        Array.iteri (fun i nd -> if p nd.kind then ignore (Vec.push v i : int))
          nodes;
        Vec.to_array v
      in
      Ok
        {
          nodes;
          fanouts;
          names;
          roles = role_tbl;
          inputs = filter (Cell.equal_kind Cell.Input);
          outputs = filter (Cell.equal_kind Cell.Output);
          seqs = filter Cell.is_seq;
          order;
          levels;
        })

let length t = Array.length t.nodes
let node t i = t.nodes.(i)
let kind t i = t.nodes.(i).kind
let fanin t i = t.nodes.(i).fanin
let name t i = t.nodes.(i).name
let fanout t i = t.fanouts.(i)
let find t s = Hashtbl.find_opt t.names s

let find_exn t s =
  match find t s with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Netlist.find_exn: no net %S" s)

let inputs t = t.inputs
let outputs t = t.outputs
let seq_nodes t = t.seqs
let topo t = t.order
let roles_of t i = Option.value ~default:[] (Hashtbl.find_opt t.roles i)
let has_role t i r = List.exists (equal_role r) (roles_of t i)

let nodes_with_role t r =
  let v = Vec.create () in
  Array.iteri
    (fun i _ -> if has_role t i r then ignore (Vec.push v i : int))
    t.nodes;
  Vec.to_array v

let role_assignments t =
  Hashtbl.fold
    (fun i rs acc -> List.fold_left (fun acc r -> (i, r) :: acc) acc rs)
    t.roles []

let level t i = t.levels.(i)

let iter_nodes f t = Array.iteri f t.nodes

let pp_summary ppf t =
  let count p = Array.fold_left (fun a nd -> if p nd then a + 1 else a) 0 t.nodes in
  let gates =
    count (fun nd ->
        (not (Cell.is_seq nd.kind))
        && nd.kind <> Cell.Input && nd.kind <> Cell.Output
        && not (Cell.is_tie nd.kind))
  in
  let depth = Array.fold_left max 0 t.levels in
  Format.fprintf ppf
    "nodes=%d gates=%d ffs=%d inputs=%d outputs=%d depth=%d" (length t) gates
    (Array.length t.seqs) (Array.length t.inputs) (Array.length t.outputs)
    depth

let netlist_create = create

module Builder = struct
  type bnode = {
    mutable bkind : Cell.kind;
    mutable bfanin : int array;
    mutable bname : string option;
    mutable broles : role list;
    mutable deleted : bool;
  }

  type builder = { v : bnode Vec.t }
  type t = builder

  let create () = { v = Vec.create () }

  let add b kind fanin name roles =
    Vec.push b.v
      { bkind = kind; bfanin = fanin; bname = name; broles = roles;
        deleted = false }

  let input ?(roles = []) b name =
    add b Cell.Input [||] (Some name) roles

  let tie b (v : Logic4.t) =
    let k =
      match v with
      | Logic4.L0 -> Cell.Tie0
      | Logic4.L1 -> Cell.Tie1
      | Logic4.X | Logic4.Z -> Cell.Tiex
    in
    add b k [||] None []

  let gate ?name ?(roles = []) b kind ins =
    (match Cell.arity kind with
    | Some n when n <> List.length ins ->
      invalid_arg
        (Printf.sprintf "Builder.gate %s: expected %d fanins, got %d"
           (Cell.kind_name kind) n (List.length ins))
    | _ ->
      if List.length ins < Cell.min_arity kind then
        invalid_arg
          (Printf.sprintf "Builder.gate %s: too few fanins"
             (Cell.kind_name kind)));
    add b kind (Array.of_list ins) name roles

  let output ?(roles = []) b name src =
    add b Cell.Output [| src |] (Some name) roles

  let buf ?name b a = gate ?name b Cell.Buf [ a ]
  let not_ ?name b a = gate ?name b Cell.Not [ a ]
  let and2 ?name b a c = gate ?name b Cell.And [ a; c ]
  let or2 ?name b a c = gate ?name b Cell.Or [ a; c ]
  let xor2 ?name b a c = gate ?name b Cell.Xor [ a; c ]
  let nand2 ?name b a c = gate ?name b Cell.Nand [ a; c ]
  let nor2 ?name b a c = gate ?name b Cell.Nor [ a; c ]
  let xnor2 ?name b a c = gate ?name b Cell.Xnor [ a; c ]

  let mux2 ?name b ~sel ~a ~b:bb = gate ?name b Cell.Mux2 [ sel; a; bb ]
  let dff ?name ?roles b ~d = gate ?name ?roles b Cell.Dff [ d ]
  let dffr ?name ?roles b ~d ~rstn = gate ?name ?roles b Cell.Dffr [ d; rstn ]

  let sdff ?name ?roles b ~d ~si ~se =
    gate ?name ?roles b Cell.Sdff [ d; si; se ]

  let sdffr ?name ?roles b ~d ~si ~se ~rstn =
    gate ?name ?roles b Cell.Sdffr [ d; si; se; rstn ]

  let add_role b i r =
    let nd = Vec.get b.v i in
    if not (List.exists (equal_role r) nd.broles) then
      nd.broles <- r :: nd.broles

  let length b = Vec.length b.v
  let node_kind b i = (Vec.get b.v i).bkind
  let node_fanin b i = Array.copy (Vec.get b.v i).bfanin

  let set_kind b i k =
    let nd = Vec.get b.v i in
    nd.bkind <- k;
    if Cell.arity k = Some 0 then nd.bfanin <- [||]

  let set_fanin b i fanin = (Vec.get b.v i).bfanin <- Array.copy fanin

  (* fanin arrays are private to the builder (every one is copied in or
     freshly made), so they are rewritten in place *)
  let redirect b target =
    let n = Array.length target in
    Vec.iteri
      (fun _ nd ->
        let f = nd.bfanin in
        for p = 0 to Array.length f - 1 do
          let d = f.(p) in
          if d >= 0 && d < n && target.(d) >= 0 then f.(p) <- target.(d)
        done)
      b.v
  let remove_node b i = (Vec.get b.v i).deleted <- true

  let freeze b =
    let n = Vec.length b.v in
    let remap = Array.make n (-1) in
    let kept = Vec.create () in
    Vec.iteri
      (fun i nd -> if not nd.deleted then remap.(i) <- Vec.push kept (i, nd))
      b.v;
    let kept = Vec.to_array kept in
    let dangling = ref [] in
    let nodes =
      Array.map
        (fun (_old, nd) ->
          {
            kind = nd.bkind;
            fanin =
              Array.map
                (fun d ->
                  if d < 0 || d >= n || remap.(d) < 0 then -1 else remap.(d))
                nd.bfanin;
            name = nd.bname;
          })
        kept
    in
    Array.iteri
      (fun i nd ->
        Array.iteri
          (fun pin d ->
            if d < 0 then
              dangling := Dangling_fanin { node = i; pin; target = -1 }
                          :: !dangling)
          nd.fanin)
      nodes;
    if !dangling <> [] then Error (List.rev !dangling)
    else
      let roles =
        Array.to_list kept
        |> List.concat_map (fun (old, nd) ->
               List.map (fun r -> (remap.(old), r)) nd.broles)
      in
      netlist_create ~roles nodes

  let freeze_exn b =
    match freeze b with
    | Ok t -> t
    | Error errs ->
      invalid_arg
        (Format.asprintf "Builder.freeze_exn: %a"
           Format.(
             pp_print_list
               ~pp_sep:(fun ppf () -> pp_print_string ppf "; ")
               pp_error)
           errs)

  let of_netlist t =
    let b = create () in
    Array.iter
      (fun nd ->
        ignore
          (add b nd.kind (Array.copy nd.fanin) nd.name [] : int))
      t.nodes;
    List.iter (fun (i, r) -> add_role b i r) (role_assignments t);
    b
end

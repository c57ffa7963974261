open Olfu_netlist

type site = { node : int; pin : Cell.Pin.t }
type t = { site : site; stuck : bool }

let equal a b =
  a.stuck = b.stuck && a.site.node = b.site.node
  && Cell.Pin.equal a.site.pin b.site.pin

let compare a b =
  match Int.compare a.site.node b.site.node with
  | 0 -> (
    match Cell.Pin.compare a.site.pin b.site.pin with
    | 0 -> Bool.compare a.stuck b.stuck
    | c -> c)
  | c -> c

(* node, pin rank and polarity folded into one int; two faults may share
   a hash (a hash table then tells them apart with [equal]) *)
let hash f =
  Hashtbl.hash
    ((((f.site.node lsl 8) + Cell.Pin.rank f.site.pin + 2) lsl 1)
    lor Bool.to_int f.stuck)

let sa0 node pin = { site = { node; pin }; stuck = false }
let sa1 node pin = { site = { node; pin }; stuck = true }

let node_label nl i =
  match Netlist.name nl i with
  | Some s -> s
  | None -> Printf.sprintf "n%d" i

let pp nl ppf f =
  let k = Netlist.kind nl f.site.node in
  let pin_label =
    match f.site.pin with
    | Cell.Pin.Out -> "Q"
    | Cell.Pin.Clk -> "CK"
    | Cell.Pin.In i -> Cell.input_pin_name k i
  in
  Format.fprintf ppf "%s(%s)/%s s@@%d"
    (node_label nl f.site.node)
    (Cell.kind_name k) pin_label
    (if f.stuck then 1 else 0)

let to_string nl f = Format.asprintf "%a" (pp nl) f

let site_net nl s =
  match s.pin with
  | Cell.Pin.Out -> s.node
  | Cell.Pin.In i -> (Netlist.fanin nl s.node).(i)
  | Cell.Pin.Clk -> invalid_arg "Fault.site_net: clock pin"

let sites_of_node nl i =
  let k = Netlist.kind nl i in
  let fanin_count = Array.length (Netlist.fanin nl i) in
  let pins =
    match k with
    | Cell.Output -> [ Cell.Pin.In 0 ]
    | _ -> Cell.pins k ~fanin_count
  in
  List.map (fun pin -> { node = i; pin }) pins

(* Nodes in id order, each node's sites in pin-rank order, stuck-at-0
   before stuck-at-1: generated in the order of [compare], so never
   sorted. *)
let universe ?(include_ties = false) nl =
  let v = Vec.create () in
  Netlist.iter_nodes
    (fun i nd ->
      if include_ties || not (Cell.is_tie nd.Netlist.kind) then
        List.iter
          (fun site ->
            ignore (Vec.push v { site; stuck = false } : int);
            ignore (Vec.push v { site; stuck = true } : int))
          (sites_of_node nl i))
    nl;
  Vec.to_array v

let universe_size ?include_ties nl =
  Array.length (universe ?include_ties nl)

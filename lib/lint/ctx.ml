open Olfu_logic
open Olfu_netlist

type thresholds = {
  max_fanout : int;
  max_depth : int;
  chain_imbalance : int;
  scoap_top : int;
}

let default_thresholds =
  { max_fanout = 512; max_depth = 2048; chain_imbalance = 300; scoap_top = 3 }

type trace = { origin : int; inverted : bool; through : int list }

type software = {
  sw_label : string;
  sw_width : int;
  sw_const_addr_bits : (int * bool) list;
  sw_assume : (int * Logic4.t) list;
  sw_dead_code : (string * int list) list;
  sw_store_total : int;
  sw_ram_stores : bool;
  sw_unmapped : string list;
}

type invariants = {
  inv_label : string;
  inv_consts : (int * bool) list;
  inv_mutex : (int * int) list;
  inv_ranges : (int array * int list) list;
}

type t = {
  nl : Netlist.t;
  limits : thresholds;
  software : software option;
  invariants : invariants option;
  ternary : Olfu_atpg.Ternary.t Lazy.t;
  mission_ternary : Olfu_atpg.Ternary.t Lazy.t;
  scoap : Olfu_atpg.Scoap.t Lazy.t;
  observe : Olfu_atpg.Observe.t Lazy.t;
  dead : int list Lazy.t;
  chains : Olfu_manip.Scan_trace.chain list Lazy.t;
  chain_cells : (int, unit) Hashtbl.t Lazy.t;
  si_cycles : int list list Lazy.t;
  slice : Olfu_slice.Slice.edges Lazy.t;
}

let node_label nl i =
  match Netlist.name nl i with Some s -> s | None -> Printf.sprintf "n%d" i

let back_trace nl net =
  (* frozen netlists have no combinational loop, so this terminates; the
     step bound is belt-and-braces *)
  let rec go node inverted through steps =
    if steps > Netlist.length nl then { origin = node; inverted; through }
    else
      match Netlist.kind nl node with
      | Cell.Buf -> go (Netlist.fanin nl node).(0) inverted (node :: through)
                      (steps + 1)
      | Cell.Not ->
        go (Netlist.fanin nl node).(0) (not inverted) (node :: through)
          (steps + 1)
      | _ -> { origin = node; inverted; through }
  in
  go net false [] 0

let is_scan_cell nl i =
  match Netlist.kind nl i with Cell.Sdff | Cell.Sdffr -> true | _ -> false

(* Shift-path cycles.  Each scan cell has one SI pin with one driver; the
   backward trace of that driver through buffers yields at most one
   predecessor scan cell, so the "shifts into" relation is a functional
   graph walked with the standard three-colour scheme. *)
let compute_si_cycles nl =
  let pred = Hashtbl.create 17 in
  Array.iter
    (fun c ->
      if is_scan_cell nl c then begin
        let tr = back_trace nl (Netlist.fanin nl c).(1) in
        if is_scan_cell nl tr.origin then
          Hashtbl.replace pred c (tr.origin, tr.through)
      end)
    (Netlist.seq_nodes nl);
  let color = Hashtbl.create 17 in
  let cycles = ref [] in
  let blacken path = List.iter (fun n -> Hashtbl.replace color n `Black) path in
  (* [path]: grey nodes, head [h] with pred(h) = [n]; each element shifts
     into the one after it in list order *)
  let rec walk path n =
    match Hashtbl.find_opt color n with
    | Some `Black -> blacken path
    | Some `Grey ->
      let rec upto = function
        | [] -> []
        | x :: _ when x = n -> []
        | x :: rest -> x :: upto rest
      in
      let cells = n :: upto path in
      (* expand with the buffers crossed entering each successor *)
      let k = List.length cells in
      let full =
        List.concat
          (List.mapi
             (fun i a ->
               let b = List.nth cells ((i + 1) mod k) in
               let through =
                 match Hashtbl.find_opt pred b with
                 | Some (_, th) -> th
                 | None -> []
               in
               a :: through)
             cells)
      in
      cycles := full :: !cycles;
      blacken path;
      Hashtbl.replace color n `Black
    | None -> (
      Hashtbl.replace color n `Grey;
      match Hashtbl.find_opt pred n with
      | Some (p, _) -> walk (n :: path) p
      | None -> blacken (n :: path))
  in
  Array.iter
    (fun c ->
      if is_scan_cell nl c && not (Hashtbl.mem color c) then walk [] c)
    (Netlist.seq_nodes nl);
  List.rev !cycles

(* Reset-role inputs backward-reachable through the gating idioms
   (buffers, inverters, and/or gates).  Root set of a reset pin: which
   reset inputs ultimately control it, through whatever gating. *)
let reset_roots nl net =
  let seen = Hashtbl.create 17 in
  let roots = ref [] in
  let rec visit i =
    if not (Hashtbl.mem seen i) then begin
      Hashtbl.replace seen i ();
      match Netlist.kind nl i with
      | Cell.Input ->
        if Netlist.has_role nl i Netlist.Reset then roots := i :: !roots
      | Cell.Buf | Cell.Not | Cell.And | Cell.Or | Cell.Nand | Cell.Nor ->
        Array.iter visit (Netlist.fanin nl i)
      | _ -> ()
    end
  in
  visit net;
  List.sort compare !roots

let mission_assume nl =
  Netlist.nodes_with_role nl Netlist.Debug_control
  |> Array.to_list
  |> List.filter (fun i -> Cell.equal_kind (Netlist.kind nl i) Cell.Input)
  |> List.map (fun i -> (i, Logic4.L0))

let data_fanout nl i =
  Array.fold_left
    (fun acc (sink, pin) ->
      let wiring =
        match Netlist.kind nl sink with
        | Cell.Sdff -> pin = 1 || pin = 2
        | Cell.Sdffr -> pin = 1 || pin = 2 || pin = 3
        | Cell.Dffr -> pin = 1
        | _ -> false
      in
      if wiring then acc else acc + 1)
    0 (Netlist.fanout nl i)

let combined_assume nl software =
  mission_assume nl
  @ (match software with Some s -> s.sw_assume | None -> [])

let create ?(thresholds = default_thresholds) ?software ?invariants nl =
  let chains = lazy (Olfu_manip.Scan_trace.trace nl) in
  let ternary = lazy (Olfu_atpg.Ternary.run nl) in
  let mission_ternary =
    lazy (Olfu_atpg.Ternary.run ~assume:(combined_assume nl software) nl)
  in
  {
    nl;
    limits = thresholds;
    software;
    invariants;
    ternary;
    mission_ternary;
    scoap = lazy (Olfu_atpg.Scoap.run nl);
    observe =
      lazy
        (Olfu_atpg.Observe.run nl
           ~consts:(Lazy.force ternary).Olfu_atpg.Ternary.values);
    dead = lazy (Olfu_manip.Sweep.dead_nodes nl);
    chains;
    chain_cells =
      lazy
        (let h = Hashtbl.create 97 in
         List.iter
           (fun c ->
             List.iter
               (fun cell -> Hashtbl.replace h cell ())
               (Olfu_manip.Scan_trace.cells c))
           (Lazy.force chains);
         h);
    si_cycles = lazy (compute_si_cycles nl);
    slice =
      lazy
        (Olfu_slice.Slice.edges nl
           (Lazy.force mission_ternary).Olfu_atpg.Ternary.values);
  }

let nl t = t.nl
let limits t = t.limits
let software t = t.software
let invariants t = t.invariants
let assumptions t = combined_assume t.nl t.software
let name t i = node_label t.nl i
let ternary t = Lazy.force t.ternary
let mission_ternary t = Lazy.force t.mission_ternary
let scoap t = Lazy.force t.scoap
let observe t = Lazy.force t.observe
let dead_nodes t = Lazy.force t.dead
let chains t = Lazy.force t.chains
let chain_cells t = Lazy.force t.chain_cells
let si_cycles t = Lazy.force t.si_cycles
let slice t = Lazy.force t.slice

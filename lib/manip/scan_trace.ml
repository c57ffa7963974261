open Olfu_netlist
open Olfu_fault

type hop = { cell : int; path : int list }

type chain = {
  scan_in : int;
  hops : hop list;
  scan_out : int option;
  tail_path : int list;
}

let cells c = List.map (fun h -> h.cell) c.hops

(* First-match hop from [net] to the next SI pin or scan-out port, crossing
   buffers/inverters (recorded in shift order). *)
let next_hop nl net =
  let rec hop net path =
    let fanout = Netlist.fanout nl net in
    let rec scan k =
      if k >= Array.length fanout then None
      else
        let sink, pin = fanout.(k) in
        match Netlist.kind nl sink with
        | (Cell.Sdff | Cell.Sdffr) when pin = 1 ->
          Some (`Cell sink, List.rev path)
        | Cell.Output when Netlist.has_role nl sink Netlist.Scan_out ->
          Some (`Out sink, List.rev path)
        | Cell.Buf | Cell.Not -> (
          match hop sink (sink :: path) with
          | Some h -> Some h
          | None -> scan (k + 1))
        | _ -> scan (k + 1)
    in
    scan 0
  in
  hop net []

let trace nl =
  let trace_from port =
    let rec follow net hops =
      match next_hop nl net with
      | Some (`Cell ff, path) -> follow ff ({ cell = ff; path } :: hops)
      | Some (`Out o, path) -> (List.rev hops, Some o, path)
      | None -> (List.rev hops, None, [])
    in
    let hops, scan_out, tail_path = follow port [] in
    { scan_in = port; hops; scan_out; tail_path }
  in
  Netlist.nodes_with_role nl Netlist.Scan_in
  |> Array.to_list
  |> List.filter (fun i -> Cell.equal_kind (Netlist.kind nl i) Cell.Input)
  |> List.map trace_from

(* Backward fixpoint: keep only candidates whose every fanout branch lands
   on an SI pin, a scan-out port, or another surviving candidate. *)
let scan_only_nodes nl =
  let n = Netlist.length nl in
  let candidate = Array.make n false in
  Netlist.iter_nodes
    (fun i nd ->
      match nd.Netlist.kind with
      | Cell.Buf | Cell.Not -> candidate.(i) <- true
      | Cell.Input -> candidate.(i) <- Netlist.has_role nl i Netlist.Scan_in
      | _ -> ())
    nl;
  let branch_ok (sink, pin) =
    (match Netlist.kind nl sink with
    | Cell.Sdff | Cell.Sdffr -> pin = 1
    | Cell.Output -> Netlist.has_role nl sink Netlist.Scan_out
    | _ -> false)
    || candidate.(sink)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to n - 1 do
      if candidate.(i) then begin
        let fo = Netlist.fanout nl i in
        if Array.length fo = 0 || not (Array.for_all branch_ok fo) then begin
          candidate.(i) <- false;
          changed := true
        end
      end
    done
  done;
  let acc = ref [] in
  for i = n - 1 downto 0 do
    if candidate.(i) then acc := i :: !acc
  done;
  !acc

let untestable_faults nl =
  let acc = ref [] in
  let add f = acc := f :: !acc in
  Netlist.iter_nodes
    (fun i nd ->
      match nd.Netlist.kind with
      | Cell.Sdff | Cell.Sdffr ->
        add (Fault.sa0 i (Cell.Pin.In 1));
        add (Fault.sa1 i (Cell.Pin.In 1));
        (* mission value of SE is 0: only s@1 can corrupt the mission *)
        add (Fault.sa0 i (Cell.Pin.In 2))
      | Cell.Output when Netlist.has_role nl i Netlist.Scan_out ->
        add (Fault.sa0 i (Cell.Pin.In 0));
        add (Fault.sa1 i (Cell.Pin.In 0))
      | _ -> ())
    nl;
  List.iter
    (fun i ->
      let fanin_count = Array.length (Netlist.fanin nl i) in
      List.iter
        (fun pin ->
          add (Fault.sa0 i pin);
          add (Fault.sa1 i pin))
        (Cell.pins (Netlist.kind nl i) ~fanin_count))
    (scan_only_nodes nl);
  List.rev !acc

let prune nl fl =
  let faults = untestable_faults nl in
  let changed = ref 0 in
  List.iter
    (fun f ->
      match Flist.find fl f with
      | Some i
        when (match Flist.status fl i with
             | Status.Not_analyzed | Status.Not_detected -> true
             | _ -> false) ->
        Flist.set_status fl i (Status.Undetectable Status.Unused);
        incr changed
      | Some _ | None -> ())
    faults;
  !changed

let pp_chain nl ppf c =
  let name i =
    match Netlist.name nl i with Some s -> s | None -> Printf.sprintf "n%d" i
  in
  Format.fprintf ppf "%s -> [%d cells] -> %s" (name c.scan_in)
    (List.length c.hops)
    (match c.scan_out with Some o -> name o | None -> "(open)")

open Olfu_logic
open Olfu_netlist
open Olfu_sim
open Olfu_fsim
open Olfu_soc

type run = {
  stimulus : Seq_fsim.stimulus;
  cycles : int;
  writes : (int * int) list;
  halted : bool;
}

let bus_nets nl prefix width =
  Array.init width (fun i -> Netlist.find_exn nl (Printf.sprintf "%s[%d]" prefix i))

let observed_names = [ "bus_wr"; "halted"; "perf_tick" ]

let prefixed p s = String.length s > String.length p && String.sub s 0 (String.length p) = p

let observed_outputs nl o =
  match Netlist.name nl o with
  | None -> false
  | Some s ->
    List.mem s observed_names
    || prefixed "bus_addr[" s
    || prefixed "bus_wdata[" s
    || prefixed "misr_out[" s

let read_bus value nets =
  let acc = ref 0 in
  let ok = ref true in
  Array.iteri
    (fun i n ->
      match Logic4.to_bool (value n) with
      | Some true -> acc := !acc lor (1 lsl i)
      | Some false -> ()
      | None -> ok := false)
    nets;
  if !ok then Some !acc else None

let max_cycles = 20_000

let record ?(data = []) cfg nl ~program =
  let xlen = cfg.Soc.xlen in
  let rstn = Netlist.find_exn nl "rstn" in
  let rdata = bus_nets nl "bus_rdata" xlen in
  let addr = bus_nets nl "bus_addr" xlen in
  let wdata = bus_nets nl "bus_wdata" xlen in
  let rd_en = Netlist.find_exn nl "bus_rd" in
  let wr_en = Netlist.find_exn nl "bus_wr" in
  let halted = Netlist.find_exn nl "halted" in
  let scan_en = Netlist.find nl "scan_en" in
  let dbg_inputs =
    Soc.debug_control_inputs cfg
    |> List.filter_map (fun s -> Netlist.find nl s)
  in
  let scan_ins =
    Netlist.nodes_with_role nl Netlist.Scan_in |> Array.to_list
  in
  let memory = Hashtbl.create 1024 in
  Array.iteri
    (fun i w -> Hashtbl.replace memory (cfg.Soc.rom.Olfu_manip.Memmap.lo + i) w)
    program;
  List.iter (fun (a, v) -> Hashtbl.replace memory a v) data;
  (* every lane carries the good machine; lane 0 is read *)
  let sim = Lanes.create (Lanes.compile nl) in
  Lanes.reset sim ~init:Logic4.X;
  let value n = Lanes.get sim n 0 in
  (* quiescent mission values on test/debug inputs *)
  let base_assign reset_active rdata_val =
    let acc = ref [ (rstn, if reset_active then Logic4.L0 else Logic4.L1) ] in
    (match scan_en with
    | Some se -> acc := (se, Logic4.L0) :: !acc
    | None -> ());
    List.iter (fun i -> acc := (i, Logic4.L0) :: !acc) dbg_inputs;
    List.iter (fun i -> acc := (i, Logic4.L0) :: !acc) scan_ins;
    Array.iteri
      (fun i n ->
        acc := (n, Logic4.of_bool ((rdata_val lsr i) land 1 = 1)) :: !acc)
      rdata;
    !acc
  in
  let steps = ref [] in
  let writes = ref [] in
  let finished = ref false in
  let cycle = ref 0 in
  (* one reset cycle *)
  let apply assigns = List.iter (fun (i, v) -> Lanes.set_input sim i v) assigns in
  let reset_assigns = base_assign true 0 in
  let last = ref reset_assigns in
  apply reset_assigns;
  Lanes.step sim;
  steps := { Seq_fsim.assign = reset_assigns; strobe = false } :: !steps;
  incr cycle;
  while (not !finished) && !cycle < max_cycles do
    (* settle with last cycle's rdata to observe this cycle's request *)
    Lanes.settle sim;
    let a = read_bus value addr in
    let reading = Logic4.equal (value rd_en) Logic4.L1 in
    let writing = Logic4.equal (value wr_en) Logic4.L1 in
    let response =
      if reading then
        match a with
        | Some a -> Option.value ~default:0 (Hashtbl.find_opt memory a)
        | None -> 0
      else 0
    in
    if writing then begin
      match a, read_bus value wdata with
      | Some a, Some v ->
        Hashtbl.replace memory a v;
        writes := (a, v) :: !writes
      | _ -> ()
    end;
    let assigns = base_assign false response in
    apply assigns;
    (* a settle depends only on the inputs and the state: when this
       cycle drives the inputs the settle above saw, it still holds *)
    if assigns = !last then Lanes.clock sim else Lanes.step sim;
    last := assigns;
    steps := { Seq_fsim.assign = assigns; strobe = writing } :: !steps;
    incr cycle;
    if Logic4.equal (value halted) Logic4.L1 then finished := true
  done;
  (* one final strobe: the halted flag and the closing MISR signature *)
  steps := { Seq_fsim.assign = base_assign false 0; strobe = true } :: !steps;
  incr cycle;
  {
    stimulus = Array.of_list (List.rev !steps);
    cycles = !cycle;
    writes = List.rev !writes;
    halted = !finished;
  }

let replay_matches cfg nl run =
  let xlen = cfg.Soc.xlen in
  let addr = bus_nets nl "bus_addr" xlen in
  let wdata = bus_nets nl "bus_wdata" xlen in
  let wr_en = Netlist.find_exn nl "bus_wr" in
  let sim = Seq_sim.create ~init:Logic4.X nl in
  let writes = ref [] in
  Array.iter
    (fun step ->
      List.iter (fun (i, v) -> Seq_sim.set_input sim i v) step.Seq_fsim.assign;
      Seq_sim.settle sim;
      if Logic4.equal (Seq_sim.value sim wr_en) Logic4.L1 then begin
        let value = Seq_sim.value sim in
        match read_bus value addr, read_bus value wdata with
        | Some a, Some v -> writes := (a, v) :: !writes
        | _ -> ()
      end;
      Seq_sim.step sim)
    run.stimulus;
  List.rev !writes = run.writes

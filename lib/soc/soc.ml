open Olfu_netlist
open Olfu_manip
module B = Netlist.Builder

type config = {
  name : string;
  xlen : int;
  btb_entries : int;
  scan_chains : int;
  scan_link_buffers : int;
  debug : bool;
  bist : bool;
  boundary_scan : bool;
  rom : Memmap.region;
  ram : Memmap.region;
}

(* The paper's case study maps a small flash and RAM into a 32-bit space;
   we use word addresses with the same structure: a low ROM and a RAM
   window at a high base, leaving most address bits constant. *)
(* The memory map mirrors the paper's freedom structure: 18 low address
   bits plus bit 30 can toggle, the other 13 are mission constants. *)
let tcore32 =
  {
    name = "tcore32";
    xlen = 32;
    btb_entries = 2;
    scan_chains = 4;
    scan_link_buffers = 2;
    debug = true;
    bist = false;
    boundary_scan = false;
    rom = Memmap.region ~name:"flash" ~lo:0x0000_0000 ~hi:0x0001_FFFF ();
    ram = Memmap.region ~name:"ram" ~lo:0x4000_0000 ~hi:0x4003_FFFF ();
  }

(* Beyond the paper: the same core with the full DfT population of
   Sec. 3 — logic BIST and boundary scan on top of scan and debug. *)
let tcore32_dft =
  { tcore32 with name = "tcore32_dft"; bist = true; boundary_scan = true }

let tcore16 =
  {
    name = "tcore16";
    xlen = 16;
    btb_entries = 2;
    scan_chains = 1;
    scan_link_buffers = 1;
    debug = true;
    bist = false;
    boundary_scan = false;
    rom = Memmap.region ~name:"flash" ~lo:0x0000 ~hi:0x00FF ();
    ram = Memmap.region ~name:"ram" ~lo:0x4000 ~hi:0x40FF ();
  }

let memmap_regions cfg = [ cfg.rom; cfg.ram ]

let generate cfg =
  let b = B.create () in
  let rstn = B.input b ~roles:[ Netlist.Reset ] "rstn" in
  let pins = Rtl.input_bus b "bus_rdata" cfg.xlen in
  let rdata =
    if cfg.boundary_scan then begin
      let bsr = Bscan.wrap b ~rstn ~pins in
      ignore
        (B.output b ~roles:[ Netlist.Debug_observe ] "bs_tdo" bsr.Bscan.tdo
          : int);
      bsr.Bscan.wrapped
    end
    else pins
  in
  let ports =
    Core.build b ~rstn ~rdata ~xlen:cfg.xlen ~btb_entries:cfg.btb_entries
      ~debug:cfg.debug
  in
  if cfg.bist then begin
    let bist = Bist.build b ~rstn ~misr:ports.Core.misr in
    ignore
      (B.output b ~roles:[ Netlist.Debug_observe ] "bist_done"
         bist.Bist.done_
        : int);
    ignore
      (B.output b ~roles:[ Netlist.Debug_observe ] "bist_pass" bist.Bist.pass
        : int)
  end;
  Rtl.output_bus b "bus_addr"
    ~roles:(fun i -> [ Netlist.Address_port i ])
    ports.Core.addr;
  Rtl.output_bus b "bus_wdata" ports.Core.wdata;
  ignore (B.output b "bus_rd" ports.Core.rd_en : int);
  ignore (B.output b "bus_wr" ports.Core.wr_en : int);
  ignore (B.output b "halted" ports.Core.halted : int);
  ignore (B.output b "perf_tick" ports.Core.perf_tick : int);
  Rtl.output_bus b "misr_out" ports.Core.misr;
  (match ports.Core.gpr_obs with
  | Some v ->
    Rtl.output_bus b "gpr_obs" ~roles:(fun _ -> [ Netlist.Debug_observe ]) v
  | None -> ());
  (match ports.Core.spr_obs with
  | Some v ->
    Rtl.output_bus b "spr_obs" ~roles:(fun _ -> [ Netlist.Debug_observe ]) v
  | None -> ());
  let flat = B.freeze_exn b in
  (* synthesis-style cleanup: drop generator leftovers (placeholder ties,
     unused carry tails) before scan stitching *)
  let swept, _removed = Sweep.sweep flat in
  (Scan_insert.insert ~chains:cfg.scan_chains
     ~link_buffers:cfg.scan_link_buffers swept)
    .Scan_insert.netlist

let debug_control_inputs cfg =
  (if cfg.debug then Debug_unit.control_input_names else [])
  @ (if cfg.bist then Bist.control_input_names else [])
  @ if cfg.boundary_scan then Bscan.control_input_names else []

let debug_observe_outputs _cfg nl =
  Netlist.outputs nl |> Array.to_list
  |> List.filter (fun o -> Netlist.has_role nl o Netlist.Debug_observe)
  |> List.filter_map (fun o -> Netlist.name nl o)

let pp_config ppf cfg =
  Format.fprintf ppf
    "%s: xlen=%d btb=%d chains=%d linkbufs=%d debug=%b bist=%b bscan=%b \
     rom=[%X,%X] ram=[%X,%X]"
    cfg.name cfg.xlen cfg.btb_entries cfg.scan_chains cfg.scan_link_buffers
    cfg.debug cfg.bist cfg.boundary_scan cfg.rom.Memmap.lo cfg.rom.Memmap.hi
    cfg.ram.Memmap.lo cfg.ram.Memmap.hi

open Olfu_logic
open Olfu_netlist
open Olfu_fault
open Olfu_atpg
open Olfu_manip

type sets = {
  universe : int;
  structural : int;
  functional : int;
  online : int;
  inclusions_hold : bool;
}

let quiet_dft_script nl mission =
  let scan_ports =
    Netlist.inputs nl |> Array.to_list
    |> List.filter (fun i ->
           Netlist.has_role nl i Netlist.Scan_enable
           || Netlist.has_role nl i Netlist.Scan_in)
    |> List.filter_map (fun i -> Netlist.name nl i)
  in
  Mission.tie_controls_script mission
  @ List.map (fun s -> Script.Tie_input (s, Logic4.L0)) scan_ports

let compute ?ff_mode nl mission =
  let universe = Fault.universe nl in
  let verdicts t =
    Array.map (fun f -> Untestable.fault_verdict t f <> None) universe
  in
  (* structural: raw netlist, combinational view, everything observable *)
  let structural =
    verdicts (Untestable.analyze ~ff_mode:Ternary.Cut nl)
  in
  (* functional: DfT/debug inputs quiet, all outputs on the bench *)
  let quiet = Script.apply nl (quiet_dft_script nl mission) in
  let functional = verdicts (Untestable.analyze ?ff_mode quiet) in
  (* on-line: mission observability + memory map on top *)
  let forced = Mission.address_forcing mission in
  let mission_nl = Const_regs.tie_addresses quiet ~forced in
  let online =
    verdicts
      (Untestable.analyze ?ff_mode
         ~observable_output:(Mission.observed_in_field mission mission_nl)
         mission_nl)
  in
  let count a = Array.fold_left (fun n b -> if b then n + 1 else n) 0 a in
  let incl a b =
    (* every member of a is in b *)
    let ok = ref true in
    Array.iteri (fun i x -> if x && not b.(i) then ok := false) a;
    !ok
  in
  {
    universe = Array.length universe;
    structural = count structural;
    functional = count functional;
    online = count online;
    inclusions_hold = incl structural functional && incl functional online;
  }

let pp ppf s =
  Format.fprintf ppf
    "@[<v>fault universe:            %8d@,structurally untestable:   %8d@,\
     functionally untestable:   %8d@,on-line funct. untestable: %8d@,\
     inclusions hold: %b@]"
    s.universe s.structural s.functional s.online s.inclusions_hold

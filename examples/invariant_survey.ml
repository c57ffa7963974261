(* Invariant survey: mine, filter and prove state invariants on the
   tcore32 mission machine (debug controls and forced address bits
   tied, scan interface held functional), then show what the proofs buy
   the conflict-untestability engine. *)

open Olfu_netlist
module Soc = Olfu_soc.Soc
module Invar = Olfu_invar.Invar
module U = Olfu_atpg.Untestable
module Ternary = Olfu_atpg.Ternary

let () =
  let cfg = Soc.tcore32 in
  let nl = Soc.generate cfg in
  let mission = Olfu.Mission.of_soc cfg nl in
  let mnl = Olfu.Flow.mission_netlist nl mission in
  let machine = Olfu_safety.Classify.bmc_machine mnl in
  Format.printf "tcore32 mission machine: %a@.@." Netlist.pp_summary machine;

  let t0 = Unix.gettimeofday () in
  let r = Invar.run machine in
  Format.printf "%a@.@." (Invar.pp machine) r;

  (* what the proved facts add to the conflict engine: a second pass of
     the invariant-strengthened analysis over the faults the plain one
     leaves open *)
  let observable = Olfu.Mission.observed_in_field mission mnl in
  let fl = Olfu_fault.Flist.full machine in
  let _ : int = U.classify (U.analyze ~observable_output:observable machine) fl in
  let count c = Olfu_fault.Flist.count_status fl (Undetectable c) in
  let rows = List.map (fun c -> (c, count c)) [ Tied; Blocked; Conflict ] in
  let invariant =
    U.classify
      (U.analyze ~observable_output:observable
         ~consts:(Ternary.run ~assume:(Invar.assume_facts r) machine)
         ~extra_edges:(Invar.edges r) machine)
      fl
  in
  Format.printf "untestable breakdown with the invariant row:@.";
  List.iter
    (fun (c, n) ->
      Format.printf "  %s %6d@." (Olfu_fault.Status.code (Undetectable c)) n)
    (rows @ [ (Invariant, invariant) ]);
  Format.printf "total time: %.2f s@." (Unix.gettimeofday () -. t0)

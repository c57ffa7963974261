(* The fault-model extension announced in the paper's conclusion ("we are
   currently working to extend the proposed technique to other fault
   models"): the four-step identification flow read for transition-delay
   faults.

   A transition fault needs its pin launched to both values and the late
   transition captured, so every mission-constant pin loses both its
   slow-to-rise and slow-to-fall faults — including the scan-enable pins
   whose stuck-at-1 the stuck-at flow must keep.  Both tables come from
   the one stuck-at flow. *)

let () =
  let cfg = Olfu_soc.Soc.tcore16 in
  Format.printf "generating %s ...@." cfg.Olfu_soc.Soc.name;
  let nl = Olfu_soc.Soc.generate cfg in
  let m = Olfu.Mission.of_soc cfg nl in
  let r = Olfu.Flow.run Olfu.Run_config.default nl m in
  Format.printf "%a@.@." Olfu.Tdf_flow.pp (Olfu.Tdf_flow.of_flow r);
  (* the contrast with stuck-at on the same netlist *)
  Format.printf "stuck-at for comparison:@.%a@."
    (Olfu.Flow.pp_table1 ~paper:false) r

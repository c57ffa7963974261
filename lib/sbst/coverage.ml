open Olfu_fault
open Olfu_fsim

type program_result = {
  pname : string;
  cycles : int;
  newly_detected : int;
}

type summary = {
  programs : program_result list;
  total_faults : int;
  detected : int;
  raw_coverage : float;
  pruned_coverage : float;
  undetectable : int;
}

let grade ?jobs ?(trace = Olfu_obs.Trace.null) cfg nl fl progs =
  let observe = Testbench.observed_outputs nl in
  let results =
    List.map
      (fun p ->
        let program = Programs.assemble p in
        let run =
          Olfu_obs.Trace.span trace ~cat:"engine" "testbench" (fun () ->
              Testbench.record cfg nl ~program)
        in
        let r =
          Seq_fsim.run ~init:Olfu_logic.Logic4.X ~observe ?jobs ~trace nl fl
            run.Testbench.stimulus
        in
        {
          pname = p.Programs.pname;
          cycles = run.Testbench.cycles;
          newly_detected = r.Seq_fsim.detected;
        })
      progs
  in
  {
    programs = results;
    total_faults = Flist.size fl;
    detected = Flist.count_status fl Status.Detected;
    raw_coverage = Flist.fault_coverage fl;
    pruned_coverage = Flist.testable_coverage fl;
    undetectable = Flist.count fl ~f:Status.is_undetectable;
  }

let pp_summary ppf s =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun p ->
      Format.fprintf ppf "%-20s %6d cycles  +%d detected@," p.pname p.cycles
        p.newly_detected)
    s.programs;
  Format.fprintf ppf
    "faults: %d  detected: %d  undetectable: %d@,FC(raw) = %.2f%%  \
     FC(pruned) = %.2f%%@]"
    s.total_faults s.detected s.undetectable
    (100. *. s.raw_coverage)
    (100. *. s.pruned_coverage)

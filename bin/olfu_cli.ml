(* olfu — on-line functionally untestable fault identification.

   Subcommands mirror the paper's flow: generate the case-study SoC, run
   the identification flow (Table I), trace scan chains, analyze memory
   maps, compute the Fig. 1 category sets, and grade the SBST suite. *)

open Cmdliner
open Olfu_netlist

let config_conv =
  let parse s =
    match Olfu_service.Service.soc_of_name s with
    | Some cfg -> Ok cfg
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown config %S (tcore32|tcore32_dft|tcore16)"
             s))
  in
  Arg.conv (parse, fun ppf c -> Format.pp_print_string ppf c.Olfu_soc.Soc.name)

let config_arg =
  Arg.(
    value
    & opt config_conv Olfu_soc.Soc.tcore32
    & info [ "c"; "config" ] ~docv:"CONFIG"
        ~doc:"SoC configuration: tcore32, tcore32_dft or tcore16.")

let file_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "f"; "file" ] ~docv:"FILE"
        ~doc:
          "Structural-Verilog netlist to analyze instead of a generated \
           configuration (roles read from //@role annotations).")

let ff_mode_arg =
  let parse = function
    | "steady" -> Ok Olfu_atpg.Ternary.Steady_state
    | "join" -> Ok Olfu_atpg.Ternary.Reset_join
    | "cut" -> Ok Olfu_atpg.Ternary.Cut
    | s -> Error (`Msg (Printf.sprintf "unknown ff-mode %S" s))
  in
  let print ppf m =
    Format.pp_print_string ppf
      (match m with
      | Olfu_atpg.Ternary.Steady_state -> "steady"
      | Olfu_atpg.Ternary.Reset_join -> "join"
      | Olfu_atpg.Ternary.Cut -> "cut")
  in
  Arg.(
    value
    & opt (conv (parse, print)) Olfu_atpg.Ternary.Steady_state
    & info [ "ff-mode" ] ~docv:"MODE"
        ~doc:
          "Sequential constant propagation: steady (mission reading, \
           default), join (sound always-constant), cut (per-block).")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the fault-simulation and classification \
           engines (results are identical for any value).  Defaults to \
           $(b,OLFU_JOBS), or 1.")

let jobs_of = function
  | Some j -> j
  | None -> Olfu_pool.Pool.default_jobs ()

(* --- generate --- *)

let generate cfg out =
  let nl = Olfu_soc.Soc.generate cfg in
  Format.printf "%s: %a@." cfg.Olfu_soc.Soc.name Netlist.pp_summary nl;
  match out with
  | None -> `Ok ()
  | Some path ->
    Olfu_verilog.Emit.to_file ~module_name:cfg.Olfu_soc.Soc.name nl path;
    Format.printf "wrote %s@." path;
    `Ok ()

let generate_cmd =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write Verilog here.")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate the tcore SoC netlist (Verilog).")
    Term.(ret (const generate $ config_arg $ out))

(* --- analyze --- *)

module C = Olfu_cli_common
module S = Olfu_service

(* The analysis subcommands are thin adapters: build a typed
   [S.Request.t], hand it to [C.run_request] (local session or daemon),
   print the rendering it returns.  All engine dispatch, rendering and
   caching lives in [Olfu_service.Service]. *)

let target_of cfg file =
  match file with
  | Some path -> S.Request.File path
  | None -> S.Request.Config cfg.Olfu_soc.Soc.name

(* The netlist and mission of a target for the subcommands that run
   engines themselves, resolved as the service resolves them; bad input
   exits 2 with one line, as a service request does. *)
let resolve cmd target =
  match S.Service.resolve target with
  | Ok r -> r
  | Error m ->
    Format.eprintf "olfu %s: %s@." cmd m;
    exit 2

let analyze cfg file ff_mode paper jobs format trace manifest connect =
  C.run_request ~connect ~trace ~manifest
    (S.Request.run
       ~fmt:format ~jobs:(jobs_of jobs) ~ff_mode
       (target_of cfg file)
       (S.Request.Analyze { paper }))

let analyze_cmd =
  let paper =
    Arg.(
      value & flag
      & info [ "paper" ] ~doc:"Show the paper's Table I numbers alongside.")
  in
  Cmd.v
    (Cmd.info "analyze" ~exits:C.std_exits
       ~doc:"Run the on-line untestable fault identification flow (Table I).")
    Term.(
      ret (const analyze $ config_arg $ file_arg $ ff_mode_arg $ paper
           $ jobs_arg $ C.format_arg $ C.trace_arg $ C.manifest_arg
           $ C.connect_arg))

(* --- tdf --- *)

let tdf cfg file ff_mode jobs trace manifest =
  let target = target_of cfg file in
  let nl, mission, _ = resolve "tdf" target in
  let sink = C.sink_for ~trace ~manifest in
  let rc =
    { Olfu.Run_config.default with ff_mode; jobs = jobs_of jobs; trace = sink }
  in
  let t0 = Unix.gettimeofday () in
  let r = Olfu.Tdf_flow.of_flow (Olfu.Flow.run rc nl mission) in
  let wall = Unix.gettimeofday () -. t0 in
  Format.printf "%a@." Olfu.Tdf_flow.pp r;
  C.write_obs ~trace ~manifest
    ~config:(C.config_fields target rc)
    ~wall_seconds:wall sink;
  `Ok ()

let tdf_cmd =
  Cmd.v
    (Cmd.info "tdf" ~exits:C.std_exits
       ~doc:
         "Project the identification flow onto transition-delay faults (the \
          paper's announced fault-model extension).")
    Term.(
      ret
        (const tdf $ config_arg $ file_arg $ ff_mode_arg $ jobs_arg
       $ C.trace_arg $ C.manifest_arg))

(* --- trace-scan --- *)

let trace_scan cfg file =
  let nl, _, _ = resolve "trace-scan" (target_of cfg file) in
  let chains = Olfu_manip.Scan_trace.trace nl in
  if chains = [] then Format.printf "no scan chains found@."
  else
    List.iteri
      (fun i c ->
        Format.printf "chain %d: %a@." i
          (Olfu_manip.Scan_trace.pp_chain nl)
          c)
      chains;
  let faults = Olfu_manip.Scan_trace.untestable_faults nl in
  Format.printf "scan rule prunes %d faults@." (List.length faults);
  `Ok ()

let trace_scan_cmd =
  Cmd.v
    (Cmd.info "trace-scan" ~exits:C.std_exits
       ~doc:"Trace scan chains and apply the scan rule.")
    Term.(ret (const trace_scan $ config_arg $ file_arg))

(* --- memmap --- *)

let memmap width regions paper =
  let regions =
    if paper || regions = [] then Olfu_manip.Memmap.paper_case_study ()
    else
      List.map
        (fun (lo, hi) -> Olfu_manip.Memmap.region ~lo ~hi ())
        regions
  in
  Format.printf "%a@." (Olfu_manip.Memmap.pp_report ~width) regions;
  `Ok ()

let memmap_cmd =
  let width =
    Arg.(
      value & opt int 32
      & info [ "w"; "width" ] ~docv:"BITS" ~doc:"Address width.")
  in
  let region_conv =
    let parse s =
      match String.split_on_char ':' s with
      | [ lo; hi ] -> (
        try Ok (int_of_string lo, int_of_string hi)
        with _ -> Error (`Msg "expected LO:HI"))
      | _ -> Error (`Msg "expected LO:HI")
    in
    Arg.conv (parse, fun ppf (lo, hi) -> Format.fprintf ppf "0x%X:0x%X" lo hi)
  in
  let regions =
    Arg.(
      value & opt_all region_conv []
      & info [ "r"; "region" ] ~docv:"LO:HI"
          ~doc:"Populated address range (repeatable; 0x prefixes accepted).")
  in
  let paper =
    Arg.(
      value & flag
      & info [ "paper" ] ~doc:"Use the paper's flash/RAM ranges.")
  in
  Cmd.v
    (Cmd.info "memmap"
       ~doc:"Compute free and mission-constant address bits (Sec. 3.3).")
    Term.(ret (const memmap $ width $ regions $ paper))

(* --- categories --- *)

let categories cfg file ff_mode =
  let nl, mission, _ = resolve "categories" (target_of cfg file) in
  let s = Olfu.Categories.compute ~ff_mode nl mission in
  Format.printf "%a@." Olfu.Categories.pp s;
  `Ok ()

let categories_cmd =
  Cmd.v
    (Cmd.info "categories" ~exits:C.std_exits
       ~doc:"Compute the Fig. 1 fault-category sets and their inclusions.")
    Term.(ret (const categories $ config_arg $ file_arg $ ff_mode_arg))

(* --- coverage --- *)

let coverage cfg sample jobs format trace manifest connect =
  C.run_request ~connect ~trace ~manifest
    (S.Request.run
       ~fmt:format ~jobs:(jobs_of jobs)
       (S.Request.Config cfg.Olfu_soc.Soc.name)
       (S.Request.Coverage { sample }))

let coverage_cmd =
  let sample =
    Arg.(
      value & opt int 1000
      & info [ "s"; "sample" ] ~docv:"N" ~doc:"Fault sample size.")
  in
  Cmd.v
    (Cmd.info "coverage" ~exits:C.std_exits
       ~doc:"Grade the SBST suite before/after pruning (tcore16 advised).")
    Term.(
      ret
        (const coverage $ config_arg $ sample $ jobs_arg $ C.format_arg
       $ C.trace_arg $ C.manifest_arg $ C.connect_arg))

(* --- report --- *)

let report cfg out jobs =
  let jobs = jobs_of jobs in
  let buf = Buffer.create 4096 in
  let pf fmt = Format.kasprintf (Buffer.add_string buf) fmt in
  let nl = Olfu_soc.Soc.generate cfg in
  let mission = Olfu.Mission.of_soc cfg nl in
  pf "# OLFU report — %s@.@." cfg.Olfu_soc.Soc.name;
  pf "## Netlist@.@.```@.%a@.```@.@." Netlist.pp_summary nl;
  pf "## Mission configuration@.@.```@.%a@.```@.@." Olfu.Mission.pp mission;
  let rc = { Olfu.Run_config.default with jobs } in
  let r = Olfu.Flow.run rc nl mission in
  pf "## Identification (Table I analogue)@.@.```@.%a@.```@.@."
    (Olfu.Flow.pp_table1 ~paper:true) r;
  pf "## Fault classes@.@.```@.%a@.```@.@." Olfu_fault.Flist.pp_summary
    r.Olfu.Flow.flist;
  let cats = Olfu.Categories.compute nl mission in
  pf "## Fig. 1 categories@.@.```@.%a@.```@.@." Olfu.Categories.pp cats;
  pf "## Transition-delay extension@.@.```@.%a@.```@.@." Olfu.Tdf_flow.pp
    (Olfu.Tdf_flow.of_flow r);
  let lint = Olfu_lint.Lint.run nl in
  pf "## Static analysis@.@.```@.%a@.```@.@." Olfu_lint.Render.summary lint;
  let text = Buffer.contents buf in
  (match out with
  | None -> print_string text
  | Some path ->
    let oc = open_out path in
    output_string oc text;
    close_out oc;
    Format.printf "wrote %s@." path);
  `Ok ()

let report_cmd =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write markdown here.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Full markdown report: flow, categories, TDF extension, lint.")
    Term.(ret (const report $ config_arg $ out $ jobs_arg))

(* --- lint --- *)

let lint cfg file format rules_only waivers_path baseline_path
    update_baseline fail_on disabled software invariants jobs trace manifest
    connect =
  let module L = Olfu_lint in
  if rules_only then begin
    Format.printf "%a@." L.Render.rules_catalogue L.Lint.registry;
    `Ok ()
  end
  else begin
    (match (update_baseline, baseline_path, connect) with
    | true, None, _ ->
      Format.eprintf "olfu lint: --update-baseline requires --baseline FILE@.";
      exit 2
    | true, Some _, Some _ ->
      Format.eprintf
        "olfu lint: --update-baseline rewrites a local file and cannot be \
         combined with --connect@.";
      exit 2
    | _ -> ());
    let fail_on =
      match fail_on with
      | `Never -> S.Request.Never
      | `Sev s -> S.Request.Fail_on s
    in
    (* the baseline rewrite consumes the service's side artifacts: the
       fingerprint lines and finding count ride along in [meta.aux] *)
    let on_meta (m : S.Service.meta) =
      match (update_baseline, baseline_path) with
      | true, Some p ->
        let lines =
          match List.assoc_opt "baseline" m.S.Service.aux with
          | Some "" | None -> []
          | Some s -> String.split_on_char '\n' s
        in
        let count =
          match List.assoc_opt "findings" m.S.Service.aux with
          | Some n -> ( try int_of_string n with Failure _ -> 0)
          | None -> 0
        in
        L.Config.save_baseline p lines;
        Format.printf "wrote baseline %s (%d findings)@." p count
      | _ -> ()
    in
    C.run_request ~on_meta ~force_ok:update_baseline ~connect ~trace
      ~manifest
      (S.Request.run
         ~fmt:format ~jobs:(jobs_of jobs)
         (target_of cfg file)
         (S.Request.Lint
            {
              waivers = waivers_path;
              baseline = baseline_path;
              disabled;
              software;
              invariants;
              fail_on;
            }))
  end

let lint_cmd =
  (* deliberately [string], not [Arg.file]: an unreadable netlist must
     reach the lint handler so it exits 2, not cmdliner's 124 *)
  let lint_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "f"; "file" ] ~docv:"FILE"
          ~doc:
            "Structural-Verilog netlist to lint instead of a generated \
             configuration (roles read from //@role annotations).")
  in
  let rules_only =
    Arg.(
      value & flag
      & info [ "rules" ] ~doc:"List the rule catalogue and exit.")
  in
  let waivers =
    Arg.(
      value
      & opt (some string) None
      & info [ "waivers" ] ~docv:"FILE"
          ~doc:
            "Waiver file: lines of CODE NODE [reason]; NODE is an exact \
             name, a prefix ending in *, or * for any.  Unused waivers \
             are reported.")
  in
  let baseline =
    Arg.(
      value
      & opt (some string) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "Baseline file of known-finding fingerprints to suppress; \
             create or refresh it with $(b,--update-baseline).")
  in
  let update_baseline =
    Arg.(
      value & flag
      & info [ "update-baseline" ]
          ~doc:
            "Write the current live findings to the $(b,--baseline) file \
             and exit successfully.")
  in
  let fail_on =
    Arg.(
      value
      & opt
          (enum
             [
               ("error", `Sev Olfu_lint.Rule.Error);
               ("warning", `Sev Olfu_lint.Rule.Warning);
               ("info", `Sev Olfu_lint.Rule.Info);
               ("never", `Never);
             ])
          (`Sev Olfu_lint.Rule.Error)
      & info [ "fail-on" ] ~docv:"SEV"
          ~doc:
            "Exit 1 when a finding at or above this severity survives \
             waivers and baseline: $(b,error) (default), $(b,warning), \
             $(b,info), or $(b,never).")
  in
  let disabled =
    Arg.(
      value & opt_all string []
      & info [ "disable" ] ~docv:"CODE"
          ~doc:"Disable a rule code or a whole category (repeatable).")
  in
  let lint_invariants =
    Arg.(
      value & flag
      & info [ "invariants" ]
          ~doc:
            "Prove state invariants on the netlist with its debug \
             controls and scan interface tied to 0 and feed the proved \
             facts to the INV-* rules.")
  in
  let software =
    Arg.(
      value & flag
      & info [ "software" ]
          ~doc:
            "Abstract-interpret the bundled SBST suite and feed the proven \
             program-side facts (constant address bits, dead code, store \
             observability) to the SW-* rules and the mission ternary \
             analysis.")
  in
  Cmd.v
    (Cmd.info "lint" ~exits:C.std_exits
       ~doc:
         "Netlist static analysis: scan/shift-path integrity, reset and \
          clock domains, X and constant propagation, debug tie-off \
          preconditions, dead logic, structural metrics, SCOAP.")
    Term.(
      ret
        (const lint $ config_arg $ lint_file $ C.format_arg $ rules_only
       $ waivers $ baseline $ update_baseline $ fail_on $ disabled
       $ software $ lint_invariants $ jobs_arg $ C.trace_arg
       $ C.manifest_arg $ C.connect_arg))

(* --- invar --- *)

let invar cfg file format jobs k no_prove trace manifest connect =
  C.run_request ~connect ~trace ~manifest
    (S.Request.run
       ~fmt:format ~jobs:(jobs_of jobs)
       (target_of cfg file)
       (S.Request.Invar { k; no_prove }))

let invar_cmd =
  let k =
    Arg.(
      value & opt int 1
      & info [ "k" ] ~docv:"K"
          ~doc:"Induction depth for the strengthening-set proof.")
  in
  let no_prove =
    Arg.(
      value & flag
      & info [ "no-prove" ]
          ~doc:
            "Stop after the simulation filter: report surviving \
             candidates without proofs.  Nothing is exported downstream.")
  in
  Cmd.v
    (Cmd.info "invar" ~exits:C.std_exits
       ~doc:
         "Mine, filter and prove sequential state invariants \
          (k-induction) on the mission machine with the scan interface \
          held functional.")
    Term.(
      ret
        (const invar $ config_arg $ file_arg
       $ C.format_arg $ jobs_arg $ k $ no_prove
       $ C.trace_arg $ C.manifest_arg $ C.connect_arg))

(* --- equiv --- *)

let equiv file_a file_b assume_zero =
  let netlist path =
    let nl, _, _ = resolve "equiv" (S.Request.File path) in
    nl
  in
  let a = netlist file_a in
  let b = netlist file_b in
  let assume =
    List.concat_map
      (fun s ->
        String.split_on_char ',' s
        |> List.filter (fun x -> x <> "")
        |> List.map (fun n -> (n, false)))
      assume_zero
  in
  (match Olfu_atpg.Equiv.check ~assume a b with
  | Olfu_atpg.Equiv.Equivalent -> Format.printf "EQUIVALENT@."
  | Olfu_atpg.Equiv.No_common_observables ->
    Format.printf "no commonly named outputs/flops to compare@."
  | Olfu_atpg.Equiv.Unknown -> Format.printf "UNKNOWN (budget exhausted)@."
  | Olfu_atpg.Equiv.Counterexample cex ->
    Format.printf "NOT equivalent; distinguishing assignment:@.";
    List.iter
      (fun (n, v) -> Format.printf "  %s = %d@." n (Bool.to_int v))
      cex);
  `Ok ()

let equiv_cmd =
  let file k doc =
    Arg.(required & pos k (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let assume =
    Arg.(
      value & opt_all string []
      & info [ "assume-zero" ] ~docv:"NAMES"
          ~doc:"Comma-separated input names assumed tied to 0.")
  in
  Cmd.v
    (Cmd.info "equiv" ~exits:C.std_exits
       ~doc:"SAT equivalence check between two Verilog netlists.")
    Term.(
      ret
        (const equiv
        $ file 0 "First netlist."
        $ file 1 "Second netlist."
        $ assume))

(* --- simulate --- *)

let simulate cfg prog_name asm_file vcd_out =
  let nl = Olfu_soc.Soc.generate cfg in
  let progs = Olfu_sbst.Programs.suite cfg in
  let resolved =
    match asm_file with
    | Some path -> (
      try Ok (Filename.basename path, Olfu_sbst.Asm.assemble (Olfu_sbst.Asm.parse_file path))
      with
      | Olfu_sbst.Asm.Parse_error { line; message } ->
        Error (Printf.sprintf "%s:%d: %s" path line message)
      | Invalid_argument m -> Error m)
    | None -> (
      match
        List.find_opt (fun p -> p.Olfu_sbst.Programs.pname = prog_name) progs
      with
      | Some p ->
        Ok (p.Olfu_sbst.Programs.pname, Olfu_sbst.Programs.assemble p)
      | None ->
        let names =
          String.concat ", "
            (List.map (fun p -> p.Olfu_sbst.Programs.pname) progs)
        in
        Error (Printf.sprintf "unknown program %S (one of: %s)" prog_name names))
  in
  match resolved with
  | Error m -> `Error (false, m)
  | Ok (label, program) ->
    ignore label;
    let run = Olfu_sbst.Testbench.record cfg nl ~program in
    Format.printf "%s: %d cycles, halted=%b, %d bus writes@."
      label run.Olfu_sbst.Testbench.cycles
      run.Olfu_sbst.Testbench.halted
      (List.length run.Olfu_sbst.Testbench.writes);
    List.iteri
      (fun i (a, v) ->
        if i < 12 then Format.printf "  mem[0x%X] <- 0x%X@." a v)
      run.Olfu_sbst.Testbench.writes;
    (match vcd_out with
    | None -> ()
    | Some path ->
      (* replay while sampling a waveform *)
      let sim = Olfu_sim.Seq_sim.create ~init:Olfu_logic.Logic4.X nl in
      let vcd = Olfu_sim.Vcd.create nl in
      Array.iter
        (fun step ->
          List.iter
            (fun (i, v) -> Olfu_sim.Seq_sim.set_input sim i v)
            step.Olfu_fsim.Seq_fsim.assign;
          Olfu_sim.Seq_sim.settle sim;
          Olfu_sim.Vcd.sample vcd sim;
          Olfu_sim.Seq_sim.step sim)
        run.Olfu_sbst.Testbench.stimulus;
      Olfu_sim.Vcd.to_file ~modname:cfg.Olfu_soc.Soc.name vcd path;
      Format.printf "wrote %s@." path);
    `Ok ()

let simulate_cmd =
  let prog =
    Arg.(
      value
      & opt string "register_march"
      & info [ "p"; "program" ] ~docv:"NAME" ~doc:"Bundled SBST program.")
  in
  let asm =
    Arg.(
      value
      & opt (some file) None
      & info [ "f"; "asm" ] ~docv:"FILE"
          ~doc:"Assembly source to run instead of a bundled program.")
  in
  let vcd =
    Arg.(
      value
      & opt (some string) None
      & info [ "vcd" ] ~docv:"FILE" ~doc:"Dump a VCD waveform of the run.")
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Run an SBST program on the gate-level SoC (optional VCD).")
    Term.(ret (const simulate $ config_arg $ prog $ asm $ vcd))

(* --- absint --- *)

let absint cfg progs whole_suite asm_file format jobs trace manifest connect
    =
  let programs = if whole_suite then [] else progs in
  C.run_request ~connect ~trace ~manifest
    (S.Request.run
       ~fmt:format ~jobs:(jobs_of jobs)
       (S.Request.Config cfg.Olfu_soc.Soc.name)
       (S.Request.Absint { programs; asm = asm_file }))

let absint_cmd =
  let progs =
    Arg.(
      value & opt_all string []
      & info [ "p"; "program" ] ~docv:"NAME"
          ~doc:
            "Analyze this bundled SBST program (repeatable; default: the \
             whole suite).")
  in
  let whole_suite =
    Arg.(
      value & flag
      & info [ "suite" ]
          ~doc:"Analyze the whole bundled SBST suite (the default).")
  in
  let asm =
    Arg.(
      value
      & opt (some string) None
      & info [ "f"; "asm" ] ~docv:"FILE"
          ~doc:"Assembly source to analyze instead of bundled programs.")
  in
  Cmd.v
    (Cmd.info "absint" ~exits:C.std_exits
       ~doc:
         "Abstract interpretation of the mission software: prove constant \
          address bits, dead code and never-written memory from the \
          program side, cross-checked against the memory map (Sec. 3.3).")
    Term.(
      ret
        (const absint $ config_arg $ progs $ whole_suite $ asm
       $ C.format_arg $ jobs_arg $ C.trace_arg
       $ C.manifest_arg $ C.connect_arg))

(* --- atpg --- *)

let atpg cfg prune jobs trace manifest =
  let nl = Olfu_soc.Soc.generate cfg in
  let sink = C.sink_for ~trace ~manifest in
  let rc =
    { Olfu.Run_config.default with jobs = jobs_of jobs; trace = sink }
  in
  let t0 = Unix.gettimeofday () in
  let fl =
    if prune then begin
      let mission = Olfu.Mission.of_soc cfg nl in
      let report = Olfu.Flow.run rc nl mission in
      Format.printf "%a@.@." (Olfu.Flow.pp_table1 ~paper:false) report;
      report.Olfu.Flow.flist
    end
    else Olfu_fault.Flist.full nl
  in
  let r =
    Olfu_atpg.Atpg_flow.run
      { Olfu_atpg.Atpg_flow.default with backtrack_limit = 400; trace = sink }
      nl fl
  in
  let wall = Unix.gettimeofday () -. t0 in
  Format.printf "%a@." Olfu_atpg.Atpg_flow.pp r;
  Format.printf "@.%a@." Olfu_fault.Flist.pp_summary fl;
  C.write_obs ~trace ~manifest
    ~config:(C.config_fields (S.Request.Config cfg.Olfu_soc.Soc.name) rc)
    ~wall_seconds:wall sink;
  `Ok ()

let atpg_cmd =
  let prune =
    Arg.(
      value & flag
      & info [ "prune" ]
          ~doc:"Run the OLFU identification flow first (the paper's point).")
  in
  Cmd.v
    (Cmd.info "atpg"
       ~doc:
         "Two-phase test generation (random + PODEM) on the full-access           view; use --prune to see the effort reduction.")
    Term.(
      ret
        (const atpg $ config_arg $ prune $ jobs_arg $ C.trace_arg
       $ C.manifest_arg))

(* --- implic --- *)

let implic cfg file ff_mode format learn_depth learn_budget jobs invariants
    trace manifest connect =
  C.run_request ~connect ~trace ~manifest
    (S.Request.run
       ~fmt:format ~jobs:(jobs_of jobs) ~ff_mode
       (target_of cfg file)
       (S.Request.Implic { learn_depth; learn_budget; invariants }))

let implic_cmd =
  let implic_invariants =
    Arg.(
      value & flag
      & info [ "invariants" ]
          ~doc:
            "Also prove state invariants (k-induction, all inputs free) \
             and report the conflict faults only the invariant-assumed \
             database closes as a separate UI row.")
  in
  let learn_depth =
    Arg.(
      value & opt int 2
      & info [ "learn-depth" ] ~docv:"N"
          ~doc:"Recursive-learning nesting bound (0 disables learning).")
  in
  let learn_budget =
    Arg.(
      value
      & opt int 200_000
      & info [ "learn-budget" ] ~docv:"N"
          ~doc:"Closure-visit credits for the build-time learning sweep.")
  in
  Cmd.v
    (Cmd.info "implic" ~exits:C.std_exits
       ~doc:
         "Static implication database: build statistics, conflict nets, \
          and the untestable-fault counts it proves (FIRE-style UC \
          verdicts) on the un-manipulated netlist.")
    Term.(
      ret
        (const implic $ config_arg $ file_arg $ ff_mode_arg
       $ C.format_arg $ learn_depth $ learn_budget
       $ jobs_arg $ implic_invariants $ C.trace_arg $ C.manifest_arg
       $ C.connect_arg))

(* --- slice --- *)

let slice cfg file format dot jobs trace manifest connect =
  (match (dot, connect) with
  | Some _, Some _ ->
    Format.eprintf
      "olfu slice: --dot writes a local file and cannot be combined with \
       --connect@.";
    exit 2
  | _ -> ());
  (* the DOT condensation rides along in [meta.aux] *)
  let on_meta (m : S.Service.meta) =
    match dot with
    | None -> ()
    | Some path ->
      let graph =
        match List.assoc_opt "dot" m.S.Service.aux with
        | Some g -> g
        | None -> ""
      in
      let oc = open_out path in
      output_string oc graph;
      close_out oc
  in
  C.run_request ~on_meta ~connect ~trace ~manifest
    (S.Request.run
       ~fmt:format ~jobs:(jobs_of jobs)
       (target_of cfg file)
       (S.Request.Slice { dot = dot <> None }))

let slice_cmd =
  let dot =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"FILE"
          ~doc:
            "Write the Graphviz condensation of the mission-severed flop \
             graph to $(docv).")
  in
  Cmd.v
    (Cmd.info "slice" ~exits:C.std_exits
       ~doc:
         "Constant-severed cone-of-influence statistics: the flop-level \
          dependency graph under structural, hard (BMC-valid) and \
          mission (steady-state) severing, backward slice-size \
          distributions and the SCC condensation.")
    Term.(
      ret
        (const slice $ config_arg $ file_arg
       $ C.format_arg $ dot $ jobs_arg $ C.trace_arg
       $ C.manifest_arg $ C.connect_arg))

(* --- safety --- *)

let safety cfg window seu_limit jobs format trace manifest connect =
  C.run_request ~connect ~trace ~manifest
    (S.Request.run
       ~fmt:format ~jobs:(jobs_of jobs)
       (S.Request.Config cfg.Olfu_soc.Soc.name)
       (S.Request.Safety { window; seu_limit }))

let safety_cmd =
  let window =
    Arg.(
      value & opt int 4
      & info [ "window" ] ~docv:"K"
          ~doc:"SEU latching window in cycles (bounded-model-check depth).")
  in
  let seu_limit =
    Arg.(
      value & opt int 64
      & info [ "seu-limit" ] ~docv:"N"
          ~doc:
            "Check a deterministic, evenly strided sample of N \
             flip-flops: flop $(i,k) of the sample is sequential node \
             $(i,k*total/N) in netlist order, so the same netlist and N \
             always select the same flops.  0 (or N >= total) checks \
             every flop.")
  in
  Cmd.v
    (Cmd.info "safety" ~exits:C.std_exits
       ~doc:
         "Unified safe-fault taxonomy: structural and conflict \
          untestability from the identification flow, software-safe \
          faults proved from the analysed SBST suite's activation \
          constraints, and a per-flip-flop SEU masked / protected / \
          vulnerable verdict by bounded model checking.")
    Term.(
      ret
        (const safety $ config_arg $ window $ seu_limit $ jobs_arg
       $ C.format_arg $ C.trace_arg $ C.manifest_arg
       $ C.connect_arg))

(* --- serve: the analysis daemon --- *)

let serve socket workers byte_budget_mb audit =
  if workers < 1 then `Error (false, "--workers must be at least 1")
  else begin
    let cfg =
      {
        S.Server.socket;
        workers;
        byte_budget = byte_budget_mb * 1024 * 1024;
        audit;
      }
    in
    Format.printf "olfu daemon listening on %s (%d worker%s)@." socket
      workers
      (if workers = 1 then "" else "s");
    S.Server.serve cfg;
    `Ok ()
  end

let serve_cmd =
  let socket =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"SOCK"
          ~doc:
            "Unix-domain socket path to listen on.  An existing file at \
             this path is replaced; the socket is unlinked on clean \
             shutdown.")
  in
  let workers =
    Arg.(
      value & opt int 2
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Accept-loop domains serving connections concurrently.  Each \
             request still parallelises internally per its own \
             $(b,--jobs).")
  in
  let byte_budget =
    Arg.(
      value & opt int 1024
      & info [ "byte-budget" ] ~docv:"MB"
          ~doc:
            "Approximate cap in megabytes on cached netlists, flow \
             reports and rendered outcomes; least-recently-used entries \
             are evicted past it.")
  in
  let audit =
    Arg.(
      value
      & opt (some string) None
      & info [ "audit" ] ~docv:"FILE"
          ~doc:
            "Append one compact JSON manifest line per served analysis \
             request: configuration, request id, cache hit, exit \
             status, wall and per-step seconds.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the resident analysis daemon: listen on a Unix socket for \
          line-delimited JSON requests (one per line, same schema for \
          every analysis subcommand), keep parsed netlists and flow \
          reports cached across requests, and answer with the \
          byte-identical output the one-shot CLI would print.  Stop it \
          with $(b,olfu client --shutdown).")
    Term.(ret (const serve $ socket $ workers $ byte_budget $ audit))

(* --- client: talk to a running daemon --- *)

let client socket wait ping stats shutdown raw lines =
  let reqs =
    List.filter_map Fun.id
      [
        (if ping then Some (`Body S.Request.Ping) else None);
        (if stats then Some (`Body S.Request.Stats) else None);
      ]
    @ List.map (fun l -> `Line l) lines
    @ if shutdown then [ `Body S.Request.Shutdown ] else []
  in
  if reqs = [] then
    `Error (true, "nothing to send: pass --ping, --stats, --shutdown or JSON request lines")
  else
    match S.Client.connect ~wait_seconds:wait socket with
    | Error msg ->
      Format.eprintf "olfu client: %s@." msg;
      exit 2
    | Ok conn ->
      let worst = ref 0 in
      let send_one n req =
        let outcome =
          match req with
          | `Body body ->
            S.Client.rpc conn { S.Request.id = n + 1; body }
          | `Line line -> (
            match S.Client.rpc_line conn line with
            | Error _ as e -> e
            | Ok resp_line -> (
              match S.Response.of_string resp_line with
              | Ok resp -> Ok resp
              | Error e -> Error ("bad response: " ^ e)))
        in
        match outcome with
        | Error msg ->
          Format.eprintf "olfu client: %s@." msg;
          worst := max !worst 2
        | Ok resp ->
          if raw then print_endline (S.Response.to_line resp)
          else begin
            print_string resp.S.Response.output;
            match resp.S.Response.error with
            | Some m -> Format.eprintf "olfu client: %s@." m
            | None -> ()
          end;
          worst := max !worst (S.Response.exit_code resp.S.Response.status)
      in
      Fun.protect
        ~finally:(fun () -> S.Client.close conn)
        (fun () -> List.iteri send_one reqs);
      flush stdout;
      if !worst = 0 then `Ok () else exit !worst

let client_cmd =
  let socket =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"SOCK"
          ~doc:"Unix-domain socket of the running $(b,olfu serve) daemon.")
  in
  let wait =
    Arg.(
      value & opt float 0.
      & info [ "wait" ] ~docv:"SEC"
          ~doc:
            "Retry the connection for up to SEC seconds while the socket \
             is missing or refusing — covers the daemon's startup \
             window.")
  in
  let ping =
    Arg.(value & flag & info [ "ping" ] ~doc:"Send a liveness ping.")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Ask for session-cache statistics: entries, bytes, budget, \
             hits, misses, evictions.")
  in
  let shutdown =
    Arg.(
      value & flag
      & info [ "shutdown" ]
          ~doc:"Ask the daemon to stop and remove its socket.  Sent last.")
  in
  let raw =
    Arg.(
      value & flag
      & info [ "raw" ]
          ~doc:
            "Print each full response as one compact JSON line \
             (id, status, cache_hit, seconds, output) instead of just \
             its rendered output.")
  in
  let lines =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"REQUEST"
          ~doc:
            "Raw JSON request lines to send verbatim, in order, on the \
             same connection (after --ping/--stats, before --shutdown).")
  in
  Cmd.v
    (Cmd.info "client" ~exits:C.std_exits
       ~doc:
         "Talk to a running $(b,olfu serve) daemon: liveness pings, \
          cache statistics, raw JSON analysis requests, shutdown.  For \
          everyday analysis prefer the ordinary subcommands with \
          $(b,--connect SOCK), which build the request for you.")
    Term.(
      ret
        (const client $ socket $ wait $ ping $ stats $ shutdown $ raw
       $ lines))

let main_cmd =
  Cmd.group
    (Cmd.info "olfu" ~version:"1.0.0"
       ~doc:
         "On-line functionally untestable fault identification in embedded \
          processor cores (DATE 2013 reproduction).")
    [
      generate_cmd; analyze_cmd; tdf_cmd; trace_scan_cmd; memmap_cmd;
      categories_cmd; coverage_cmd; atpg_cmd; absint_cmd; simulate_cmd;
      equiv_cmd; lint_cmd; report_cmd; implic_cmd; invar_cmd; slice_cmd;
      safety_cmd; serve_cmd; client_cmd;
    ]

let () = exit (Cmd.eval main_cmd)

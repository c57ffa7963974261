open Olfu_netlist
open Olfu_fault
open Olfu_soc
open Olfu

(* tcore16 keeps these tests fast; the full tcore32 flow is exercised by
   the benchmark harness and soc_audit example *)
let t16 = lazy (Soc.generate Soc.tcore16)
let mission16 = lazy (Mission.of_soc Soc.tcore16 (Lazy.force t16))
let report16 = lazy (Flow.run Run_config.default (Lazy.force t16) (Lazy.force mission16))

let test_flow_runs () =
  let r = Lazy.force report16 in
  Alcotest.(check bool) "has faults" true (r.Flow.universe > 10_000);
  Alcotest.(check bool) "finds olfu faults" true (r.Flow.total_olfu > 0);
  Alcotest.(check bool) "fraction sane" true
    (r.Flow.fraction > 0.05 && r.Flow.fraction < 0.5);
  (* flist classification is consistent with the step sum *)
  let ud = Flist.count r.Flow.flist ~f:Status.is_undetectable in
  Alcotest.(check int) "steps sum to list" r.Flow.total_olfu ud

let test_flow_source_ordering () =
  (* the paper's Table I ordering: scan is the largest source, memory the
     smallest of the three *)
  let r = Lazy.force report16 in
  let scan = Flow.step_count r Flow.Scan in
  let dbg =
    Flow.step_count r Flow.Debug_control + Flow.step_count r Flow.Debug_observe
  in
  let mem = Flow.step_count r Flow.Memory in
  Alcotest.(check bool) "scan largest" true (scan > dbg);
  Alcotest.(check bool) "memory smallest" true (mem < dbg);
  Alcotest.(check bool) "control > observation" true
    (Flow.step_count r Flow.Debug_control
    > Flow.step_count r Flow.Debug_observe);
  Alcotest.(check int) "paper total excludes baseline"
    (r.Flow.total_olfu - Flow.step_count r Flow.Baseline)
    (Flow.paper_total r)

(* The paper's Tetramax cross-check (Sec. 4): tie SE to 0, run the
   structural engine, and confirm every rule-pruned fault is
   independently classified untestable. *)
let verify_scan_rule nl =
  match Netlist.find nl "scan_en" with
  | None -> true
  | Some se ->
    let tied =
      Olfu_manip.Tie.edit nl (fun b ->
          Olfu_manip.Tie.Batch.input b se Olfu_logic.Logic4.L0)
    in
    let t =
      Olfu_atpg.Untestable.analyze tied ~observable_output:(fun o ->
          not (Netlist.has_role tied o Netlist.Scan_out))
    in
    List.for_all
      (fun f ->
        (* faults on the SE fanout branches now sit on a tie and are
           excluded from the comparison (the rule keeps SE s@1 anyway) *)
        let { Fault.node; pin } = f.Fault.site in
        let on_se_branch =
          match pin with
          | Cell.Pin.In 2 -> Cell.is_seq (Netlist.kind tied node)
          | _ -> false
        in
        on_se_branch || Olfu_atpg.Untestable.fault_verdict t f <> None)
      (Olfu_manip.Scan_trace.untestable_faults tied)

let test_scan_rule_verifies () =
  Alcotest.(check bool) "engine confirms the scan rule" true
    (verify_scan_rule (Lazy.force t16))

let test_flow_idempotent_attribution () =
  (* no fault is counted twice: re-running a step classifies nothing new *)
  let nl = Lazy.force t16 in
  let r = Lazy.force report16 in
  let again = Olfu_manip.Scan_trace.prune nl r.Flow.flist in
  Alcotest.(check int) "scan step idempotent" 0 again

let test_soundness_sample_podem () =
  (* sampled cross-check: flow-classified untestable faults have no PODEM
     test on the mission netlist *)
  let r = Lazy.force report16 in
  let nl = r.Flow.mission_netlist in
  let mission = Lazy.force mission16 in
  let observable = Mission.observed_in_field mission nl in
  let checked = ref 0 in
  Flist.iteri
    (fun i f st ->
      if
        !checked < 40 && i mod 97 = 0
        && Status.is_undetectable st
        && f.Fault.site.Fault.pin <> Cell.Pin.Clk
      then begin
        incr checked;
        match
          Olfu_atpg.Podem.run ~backtrack_limit:300 ~observable_output:observable
            nl f
        with
        | Olfu_atpg.Podem.Test asg ->
          (* PODEM works on the full-access model; a test here must at
             least fail to validate, otherwise the flow was unsound *)
          Alcotest.(check bool)
            (Printf.sprintf "fault %d test validates" i)
            true
            (Olfu_atpg.Podem.check_test ~observable_output:observable nl f asg
             ||
             (* scan-rule faults are sequential-behaviour based; PODEM's
                combinational view cannot refute them *)
             Status.equal st (Status.Undetectable Status.Unused))
        | Olfu_atpg.Podem.Proved_untestable | Olfu_atpg.Podem.Aborted -> ()
      end)
    r.Flow.flist;
  Alcotest.(check bool) "sampled" true (!checked > 10)

let test_categories_fig1 () =
  let nl = Lazy.force t16 in
  let mission = Lazy.force mission16 in
  let s = Categories.compute nl mission in
  Alcotest.(check bool) "inclusions hold" true s.Categories.inclusions_hold;
  Alcotest.(check bool) "structural < functional" true
    (s.Categories.structural < s.Categories.functional);
  Alcotest.(check bool) "functional < online" true
    (s.Categories.functional < s.Categories.online);
  Alcotest.(check bool) "online < universe" true
    (s.Categories.online < s.Categories.universe)

let test_mission_of_soc () =
  let nl = Lazy.force t16 in
  let m = Lazy.force mission16 in
  Alcotest.(check int) "17 debug controls" 17
    (List.length m.Mission.debug_controls);
  Alcotest.(check int) "2 xlen observation buses" (2 * Soc.tcore16.Soc.xlen)
    (List.length m.Mission.debug_observes);
  (* field observation excludes the debug buses and scan outs *)
  let gpr0 = Netlist.find_exn nl "gpr_obs[0]" in
  Alcotest.(check bool) "gpr_obs not observed" false
    (Mission.observed_in_field m nl gpr0);
  let halted = Netlist.find_exn nl "halted" in
  Alcotest.(check bool) "halted observed" true
    (Mission.observed_in_field m nl halted)

let test_address_forcing () =
  let m = Lazy.force mission16 in
  let forced = Mission.address_forcing m in
  (* tcore16 map: rom [0,0xFF], ram [0x4000,0x40FF]: bits 0..7 free,
     bit 14 free, the rest forced 0 *)
  Alcotest.(check bool) "bit 0 free" true (forced 0 = None);
  Alcotest.(check bool) "bit 14 free" true (forced 14 = None);
  Alcotest.(check bool) "bit 12 forced 0" true
    (forced 12 = Some Olfu_logic.Logic4.L0);
  Alcotest.(check bool) "bit 15 forced 0" true
    (forced 15 = Some Olfu_logic.Logic4.L0)

let test_safety_assessment () =
  let r = Lazy.force report16 in
  let fl = r.Flow.flist in
  (* simulate a campaign detecting every fault not classified untestable:
     raw coverage misses the target, pruned coverage reaches 100% *)
  let fl2 = Flist.create (Flist.netlist fl) (Array.init (Flist.size fl) (Flist.fault fl)) in
  Flist.iteri
    (fun i _ st ->
      match st with
      | Status.Not_analyzed -> Flist.set_status fl2 i Status.Detected
      | s -> Flist.set_status fl2 i s)
    fl;
  let v = Safety.assess Safety.D fl2 in
  Alcotest.(check bool) "raw fails ASIL-D" false v.Safety.meets_raw;
  Alcotest.(check bool) "pruned passes ASIL-D" true v.Safety.meets_pruned;
  Alcotest.(check bool) "paper target 98%" true
    (Safety.paper_airbag_target = 0.98);
  let qm = Safety.assess Safety.QM fl2 in
  Alcotest.(check bool) "QM always passes" true qm.Safety.meets_raw

let test_safety_thresholds () =
  Alcotest.(check (option (float 0.001))) "B" (Some 0.90)
    (Safety.required_coverage Safety.B);
  Alcotest.(check (option (float 0.001))) "C" (Some 0.97)
    (Safety.required_coverage Safety.C);
  Alcotest.(check (option (float 0.001))) "D" (Some 0.99)
    (Safety.required_coverage Safety.D);
  Alcotest.(check bool) "QM none" true
    (Safety.required_coverage Safety.QM = None);
  let s =
    Format.asprintf "%a" Safety.pp_verdict
      (Safety.assess Safety.C (Lazy.force report16).Flow.flist)
  in
  Alcotest.(check bool) "verdict renders" true (String.length s > 30)

let test_flow_cut_mode_smaller () =
  (* ablation: per-combinational-block analysis (Cut) finds no more than
     the mission steady-state reading *)
  let nl = Lazy.force t16 in
  let mission = Lazy.force mission16 in
  let cut =
    Flow.run
      { Run_config.default with Run_config.ff_mode = Olfu_atpg.Ternary.Cut }
      nl mission
  in
  let steady = Lazy.force report16 in
  Alcotest.(check bool) "cut <= steady" true
    (cut.Flow.total_olfu <= steady.Flow.total_olfu)

let test_tdf_flow () =
  let sa = Lazy.force report16 in
  let r = Olfu.Tdf_flow.of_flow sa in
  (* the TDF universe matches the stuck-at universe size (2 per pin) *)
  Alcotest.(check int) "same universe size" sa.Flow.universe r.Tdf_flow.universe;
  (* same ordering: scan > debug > memory; and more transition faults die
     than stuck-ats on every source (constants kill both polarities) *)
  Alcotest.(check bool) "scan largest" true
    (r.Tdf_flow.scan > r.Tdf_flow.debug_control + r.Tdf_flow.debug_observe);
  Alcotest.(check bool) "memory smallest" true
    (r.Tdf_flow.memory < r.Tdf_flow.debug_control + r.Tdf_flow.debug_observe);
  Alcotest.(check bool) "tdf scan >= sa scan" true
    (r.Tdf_flow.scan >= Flow.step_count sa Flow.Scan);
  Alcotest.(check bool) "tdf total >= sa paper total" true
    (r.Tdf_flow.scan + r.Tdf_flow.debug_control + r.Tdf_flow.debug_observe
     + r.Tdf_flow.memory
    >= Flow.paper_total sa);
  (* printable *)
  let s = Format.asprintf "%a" Olfu.Tdf_flow.pp r in
  Alcotest.(check bool) "pp" true (String.length s > 100)

let test_flow_on_roles_mission_matches () =
  (* Mission.of_roles and Mission.of_soc describe the same mission for a
     generated SoC, so the flow lands on identical numbers *)
  let nl = Lazy.force t16 in
  let m2 =
    Mission.of_roles
      ~memmap:(Soc.memmap_regions Soc.tcore16)
      ~address_width:Soc.tcore16.Soc.xlen nl
  in
  let r1 = Lazy.force report16 in
  let r2 = Flow.run Run_config.default nl m2 in
  Alcotest.(check int) "same total" r1.Flow.total_olfu r2.Flow.total_olfu;
  List.iter
    (fun src ->
      Alcotest.(check int)
        (Flow.source_name src)
        (Flow.step_count r1 src) (Flow.step_count r2 src))
    [ Flow.Scan; Flow.Baseline; Flow.Debug_control; Flow.Debug_observe;
      Flow.Memory ]

(* --- pins: the exact figures of the parent flow on tcore16 --- *)

let verdicts by =
  String.concat ", "
    (List.map
       (fun (u, n) -> Printf.sprintf "%s %d" (Status.code (Status.Undetectable u)) n)
       by)

let step_splits (r : Flow.report) =
  List.map
    (fun s ->
      Printf.sprintf "%s: %d (%s)" (Flow.source_name s.Flow.source)
        s.Flow.classified (verdicts s.Flow.by_verdict))
    r.Flow.steps

let test_pin_steps () =
  Alcotest.(check (list string))
    "count (split) per step"
    [
      "Scan: 3011 (UU 3011)";
      "Baseline (reset/steady): 598 (UT 558, UB 40)";
      "Debug (control): 2306 (UT 560, UB 1745, UC 1)";
      "Debug (observation): 469 (UB 469)";
      "Memory: 1171 (UT 348, UB 811, UC 12)";
    ]
    (step_splits (Lazy.force report16))

(* the larger cores, flow and mission netlist built once for both pins *)
let large =
  lazy
    (List.map
       (fun cfg ->
         let nl = Soc.generate cfg in
         let mission = Mission.of_soc cfg nl in
         (cfg, nl, mission, Flow.run Run_config.default nl mission))
       [ Soc.tcore32; Soc.tcore32_dft ])

let test_pin_steps_tcore32 () =
  Alcotest.(check (list (list string)))
    "count (split) per step, tcore32 then tcore32_dft"
    [
      [
        "Scan: 9167 (UU 9167)";
        "Baseline (reset/steady): 1123 (UT 1051, UB 72)";
        "Debug (control): 4267 (UT 867, UB 3399, UC 1)";
        "Debug (observation): 933 (UB 933)";
        "Memory: 2161 (UT 654, UB 1477, UC 30)";
      ];
      [
        "Scan: 10344 (UU 10344)";
        "Baseline (reset/steady): 1269 (UT 1185, UB 84)";
        "Debug (control): 4832 (UT 1021, UB 3808, UC 3)";
        "Debug (observation): 939 (UB 939)";
        "Memory: 2161 (UT 654, UB 1477, UC 30)";
      ];
    ]
    (List.map (fun (_, _, _, r) -> step_splits r) (Lazy.force large))

let tdf_steps (r : Flow.report) =
  let t = Tdf_flow.of_flow r in
  Tdf_flow.[ t.scan; t.baseline; t.debug_control; t.debug_observe; t.memory ]

let test_pin_tdf () =
  Alcotest.(check (list int))
    "scan, baseline, control, observation, memory"
    [ 3440; 1156; 2466; 384; 1300 ]
    (tdf_steps (Lazy.force report16))

let test_pin_tdf_tcore32 () =
  Alcotest.(check (list (list int)))
    "scan, baseline, control, observation, memory; tcore32 then tcore32_dft"
    [ [ 9996; 2174; 4552; 768; 2428 ]; [ 11280; 2454; 5266; 774; 2428 ] ]
    (List.map (fun (_, _, _, r) -> tdf_steps r) (Lazy.force large))

(* What the transition-delay projection reads: the flow's list follows
   [Fault.universe], so faults 2j and 2j+1 are one site's stuck-at-0 and
   stuck-at-1, on every core. *)
let test_site_pairs () =
  List.iter
    (fun (name, (r : Flow.report)) ->
      let fl = r.Flow.flist in
      let ok = ref (Flist.size fl mod 2 = 0) in
      for j = 0 to (Flist.size fl / 2) - 1 do
        let f0 = Flist.fault fl (2 * j) and f1 = Flist.fault fl ((2 * j) + 1) in
        if f0.Fault.stuck || (not f1.Fault.stuck) || f0.Fault.site <> f1.Fault.site
        then ok := false
      done;
      Alcotest.(check bool) (name ^ ": sa0, sa1 of one site") true !ok)
    (("tcore16", Lazy.force report16)
    :: List.map
         (fun ((cfg : Soc.config), _, _, r) -> (cfg.Soc.name, r))
         (Lazy.force large))

let test_pin_prep () =
  (* the names benchmark/replay.ml slugs into its core.prep.* layers *)
  Alcotest.(check (list string))
    "prep names, in order"
    [
      "fault universe"; "fault collapsing"; "tied netlist";
      "shared ternary fixpoint"; "mission observability"; "mission netlist";
      "verdict accounting";
    ]
    (List.map fst (Lazy.force report16).Flow.prep)

(* The one builder of the mission circuit makes the flow's own, digest
   for digest, without classifying a fault; and the digest itself is
   pinned, so a change to how ties are made cannot move a node id. *)
let check_mission_netlist nl mission (r : Flow.report) digest =
  let built = Analysis.digest_of (Flow.mission_netlist nl mission) in
  Alcotest.(check string) "digest equals the flow's mission netlist"
    (Analysis.digest_of r.Flow.mission_netlist)
    built;
  Alcotest.(check string) "pinned digest" digest built

let test_mission_netlist () =
  check_mission_netlist (Lazy.force t16) (Lazy.force mission16)
    (Lazy.force report16) "29bf97babfe77fd3ba46a71ec971b92a"

let test_mission_netlist_tcore32 () =
  List.iter2
    (fun (_, nl, mission, r) digest -> check_mission_netlist nl mission r digest)
    (Lazy.force large)
    [ "a341867ce789d764e2d44e240e89c7cd"; "d5ef718494570fdab2fbcc97c2645676" ]

let test_table1_renders () =
  let r = Lazy.force report16 in
  let s = Format.asprintf "%a" (Flow.pp_table1 ~paper:true) r in
  List.iter
    (fun needle ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) (needle ^ " in table") true (contains s needle))
    [ "Scan"; "Debug"; "Memory"; "TOTAL"; "paper"; "13.8" ]

let () =
  Alcotest.run "core-flow"
    [
      ( "flow",
        [
          Alcotest.test_case "runs" `Quick test_flow_runs;
          Alcotest.test_case "source ordering" `Quick test_flow_source_ordering;
          Alcotest.test_case "scan rule verified" `Quick test_scan_rule_verifies;
          Alcotest.test_case "idempotent" `Quick test_flow_idempotent_attribution;
          Alcotest.test_case "podem soundness sample" `Slow
            test_soundness_sample_podem;
          Alcotest.test_case "cut mode ablation" `Quick test_flow_cut_mode_smaller;
          Alcotest.test_case "safety thresholds" `Quick test_safety_thresholds;
          Alcotest.test_case "tdf flow" `Quick test_tdf_flow;
          Alcotest.test_case "roles mission" `Quick
            test_flow_on_roles_mission_matches;
          Alcotest.test_case "table renders" `Quick test_table1_renders;
          Alcotest.test_case "mission netlist builder" `Quick
            test_mission_netlist;
          Alcotest.test_case "mission netlist tcore32/dft" `Slow
            test_mission_netlist_tcore32;
        ] );
      ( "pins",
        [
          Alcotest.test_case "stuck-at steps" `Quick test_pin_steps;
          Alcotest.test_case "stuck-at steps tcore32/dft" `Slow
            test_pin_steps_tcore32;
          Alcotest.test_case "tdf steps" `Quick test_pin_tdf;
          Alcotest.test_case "tdf steps tcore32/dft" `Slow
            test_pin_tdf_tcore32;
          Alcotest.test_case "tdf site pairs, three cores" `Slow
            test_site_pairs;
          Alcotest.test_case "prep names" `Quick test_pin_prep;
        ] );
      ( "categories",
        [ Alcotest.test_case "fig1 lattice" `Quick test_categories_fig1 ] );
      ( "mission",
        [
          Alcotest.test_case "of_soc" `Quick test_mission_of_soc;
          Alcotest.test_case "address forcing" `Quick test_address_forcing;
        ] );
      ( "safety",
        [ Alcotest.test_case "iso 26262" `Quick test_safety_assessment ] );
    ]

(* Benchmark & reproduction harness.

   For every table and figure of the paper this file (a) prints the
   regenerated content next to the paper's numbers and (b) registers a
   Bechamel micro-benchmark timing the computation that regenerates it.
   Ablations from DESIGN.md follow at the end.

   Run with: dune exec bench/main.exe *)

open Bechamel
open Toolkit
open Olfu_logic
open Olfu_netlist
open Olfu_fault
open Olfu_atpg
open Olfu_manip
open Olfu_soc
module B = Netlist.Builder

let section title =
  Format.printf "@.==== %s ====@." title

(* recorded in every BENCH_*.json: the process's GC high-water mark at
   write time, in bytes *)
let peak_heap_bytes () =
  (Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)

(* Shared inputs, generated once. *)
let t32 = lazy (Soc.generate Soc.tcore32)
let t16 = lazy (Soc.generate Soc.tcore16)
let mission32 = lazy (Olfu.Mission.of_soc Soc.tcore32 (Lazy.force t32))
let mission16 = lazy (Olfu.Mission.of_soc Soc.tcore16 (Lazy.force t16))

(* Every flow run here goes through the one Run_config record. *)
let rc = Olfu.Run_config.default

(* ---------------------------------------------------------------- *)
(* Table I                                                          *)
(* ---------------------------------------------------------------- *)

let print_table1 () =
  section "Table I — on-line functionally untestable faults (tcore32)";
  let report = Olfu.Flow.run rc (Lazy.force t32) (Lazy.force mission32) in
  Format.printf "%a@." (Olfu.Flow.pp_table1 ~paper:true) report

let bench_table1 =
  Test.make ~name:"table1/flow_tcore32"
    (Staged.stage (fun () ->
         Olfu.Flow.run rc (Lazy.force t32) (Lazy.force mission32)))

(* ---------------------------------------------------------------- *)
(* Fig. 1 — fault-category lattice                                  *)
(* ---------------------------------------------------------------- *)

let print_fig1 () =
  section "Fig. 1 — fault-category lattice (tcore16)";
  let s = Olfu.Categories.compute (Lazy.force t16) (Lazy.force mission16) in
  Format.printf "%a@." Olfu.Categories.pp s

let bench_fig1 =
  Test.make ~name:"fig1/categories_tcore16"
    (Staged.stage (fun () ->
         Olfu.Categories.compute (Lazy.force t16) (Lazy.force mission16)))

(* ---------------------------------------------------------------- *)
(* Fig. 2 / 4 / 5 / 6 — cell-level scenarios                        *)
(* ---------------------------------------------------------------- *)

let scan_cell () =
  let b = B.create () in
  let fi = B.input b "FI" in
  let si = B.input b ~roles:[ Netlist.Scan_in ] "SI" in
  let se = B.tie b Logic4.L0 in
  let ff = B.sdff b ~name:"ff" ~d:fi ~si ~se in
  let _ = B.output b "FO" ff in
  (B.freeze_exn b, ff)

let debug_cell () =
  let b = B.create () in
  let fi = B.input b "FI" in
  let di = B.input b "DI" in
  let de = B.tie b Logic4.L0 in
  let m = B.mux2 b ~name:"dbg_mux" ~sel:de ~a:fi ~b:di in
  let ff = B.dff b ~name:"ff" ~d:m in
  let _ = B.output b "FO" ff in
  (B.freeze_exn b, m)

let const_dffr () =
  let b = B.create () in
  let d = B.tie b Logic4.L0 in
  let rstn = B.tie b Logic4.L1 in
  let ff = B.dffr b ~name:"areg" ~d ~rstn in
  let _ = B.output b "AOUT" ff in
  (B.freeze_exn b, ff)

let fig6_circuit () =
  let b = B.create () in
  let d = B.tie b Logic4.L0 in
  let rstn = B.tie b Logic4.L1 in
  let areg = B.dffr b ~name:"areg" ~d ~rstn in
  let x = B.input b "x" in
  let g1 = B.and2 b ~name:"g1" areg x in
  let g2 = B.or2 b ~name:"g2" g1 x in
  let _ = B.output b "y" g2 in
  B.freeze_exn b

let cell_verdicts nl =
  let t = Untestable.analyze nl in
  let fl = Flist.full nl in
  let n = Untestable.classify t fl in
  (fl, n)

let print_cell name expect nl =
  let fl, n = cell_verdicts nl in
  Format.printf "%s: %d of %d faults untestable (%s)@." name n (Flist.size fl)
    expect;
  Flist.iteri
    (fun _ f st ->
      if Status.is_undetectable st then
        Format.printf "   %-22s %a@." (Fault.to_string nl f) Status.pp st)
    fl

let print_fig2456 () =
  section "Fig. 2 — mux-scan cell in mission mode";
  print_cell "scan cell" "paper: SI s@0/s@1, SE s@0; only SE s@1 kept"
    (fst (scan_cell ()));
  section "Fig. 4 — debug cell with DE tied";
  print_cell "debug cell" "paper: DE s@0 and both DI faults untestable"
    (fst (debug_cell ()));
  section "Fig. 5 — DFF with constant 0";
  print_cell "constant DFFR" "paper: only D s@1 and Q s@1 remain testable"
    (fst (const_dffr ()));
  section "Fig. 6 — constant register propagating into address logic";
  print_cell "fig6 cone" "paper: downstream gate faults become untestable"
    (fig6_circuit ())

let bench_fig2 =
  Test.make ~name:"fig2/scan_cell"
    (Staged.stage (fun () -> cell_verdicts (fst (scan_cell ()))))

let bench_fig4 =
  Test.make ~name:"fig4/debug_cell"
    (Staged.stage (fun () -> cell_verdicts (fst (debug_cell ()))))

let bench_fig5 =
  Test.make ~name:"fig5/const_dffr"
    (Staged.stage (fun () -> cell_verdicts (fst (const_dffr ()))))

let bench_fig6 =
  Test.make ~name:"fig6/propagation"
    (Staged.stage (fun () -> cell_verdicts (fig6_circuit ())))

(* ---------------------------------------------------------------- *)
(* Fig. 3 — SoC debug architecture                                  *)
(* ---------------------------------------------------------------- *)

let print_fig3 () =
  section "Fig. 3 — debug components of the SoC (tcore32)";
  let nl = Lazy.force t32 in
  let cfg = Soc.tcore32 in
  Format.printf "CPU: %a@." Netlist.pp_summary nl;
  Format.printf "debug control inputs (%d): %s@."
    (List.length (Soc.debug_control_inputs cfg))
    (String.concat ", " (Soc.debug_control_inputs cfg));
  let obs = Soc.debug_observe_outputs cfg nl in
  Format.printf "debug observation outputs: %d (two %d-bit buses)@."
    (List.length obs) cfg.Soc.xlen

let bench_fig3 =
  Test.make ~name:"fig3/generate_tcore32"
    (Staged.stage (fun () -> Soc.generate Soc.tcore32))

(* ---------------------------------------------------------------- *)
(* Sec. 4 — activity screening of debug inputs                      *)
(* ---------------------------------------------------------------- *)

let screening_results = lazy (
  let cfg = Soc.tcore16 in
  let nl = Lazy.force t16 in
  let tog = Olfu_sim.Toggle.create nl in
  let program = Olfu_sbst.Programs.assemble (Olfu_sbst.Programs.register_march cfg) in
  let run = Olfu_sbst.Testbench.record cfg nl ~program in
  let sim = Olfu_sim.Seq_sim.create ~init:Logic4.X nl in
  Array.iter
    (fun step ->
      List.iter
        (fun (i, v) -> Olfu_sim.Seq_sim.set_input sim i v)
        step.Olfu_fsim.Seq_fsim.assign;
      Olfu_sim.Seq_sim.settle sim;
      Olfu_sim.Toggle.record tog sim;
      Olfu_sim.Seq_sim.step sim)
    run.Olfu_sbst.Testbench.stimulus;
  (nl, tog))

let print_screening () =
  section "Sec. 4 — toggle screening for suspect (mission-unused) inputs";
  let nl, tog = Lazy.force screening_results in
  let suspects = Olfu_sim.Toggle.suspects tog in
  let dbg =
    List.filter
      (fun i -> Netlist.has_role nl i Netlist.Debug_control)
      suspects
  in
  Format.printf
    "suspect inputs (no activity over the workload): %d, of which debug \
     controls: %d (paper: 17 signals selected)@."
    (List.length suspects) (List.length dbg)

let bench_screening =
  Test.make ~name:"sec4/toggle_screening"
    (Staged.stage (fun () ->
         let nl, tog = Lazy.force screening_results in
         (Olfu_sim.Toggle.suspects tog, Netlist.length nl)))

(* ---------------------------------------------------------------- *)
(* Sec. 4 — memory map                                              *)
(* ---------------------------------------------------------------- *)

let print_memmap () =
  section "Sec. 4 — memory-map analysis (paper's ranges)";
  Format.printf "%a@." (Memmap.pp_report ~width:32) (Memmap.paper_case_study ());
  Format.printf
    "(paper text: 18 LSBs + bit 30; exact computation also frees bit 18)@."

let bench_memmap =
  Test.make ~name:"sec4/memmap_paper"
    (Staged.stage (fun () ->
         Memmap.free_bits ~width:32 (Memmap.paper_case_study ())))

(* ---------------------------------------------------------------- *)
(* Sec. 4 — SBST coverage before/after pruning                      *)
(* ---------------------------------------------------------------- *)

let print_coverage sample_size =
  section
    (Printf.sprintf
       "Sec. 4 — SBST coverage delta (tcore16, %d-fault sample)" sample_size);
  let cfg = Soc.tcore16 in
  let nl = Lazy.force t16 in
  let report = Olfu.Flow.run rc nl (Lazy.force mission16) in
  let fl = report.Olfu.Flow.flist in
  let rng = Random.State.make [| 7 |] in
  let n = Flist.size fl in
  let chosen = Hashtbl.create sample_size in
  while Hashtbl.length chosen < min sample_size n do
    Hashtbl.replace chosen (Random.State.int rng n) ()
  done;
  let idx = List.sort compare (Hashtbl.fold (fun i () a -> i :: a) chosen []) in
  let sub = Flist.create nl (Array.of_list (List.map (Flist.fault fl) idx)) in
  List.iteri (fun k i -> Flist.set_status sub k (Flist.status fl i)) idx;
  let t0 = Unix.gettimeofday () in
  let summary =
    Olfu_sbst.Coverage.grade cfg nl sub (Olfu_sbst.Programs.suite cfg)
  in
  Format.printf "%a@." Olfu_sbst.Coverage.pp_summary summary;
  Format.printf "grading wall time: %.1f s@." (Unix.gettimeofday () -. t0);
  Format.printf
    "pruning gain: %+.1f points (paper: ~13 points on its mature suite)@."
    (100.
    *. (summary.Olfu_sbst.Coverage.pruned_coverage
       -. summary.Olfu_sbst.Coverage.raw_coverage))

(* a bechamel-sized unit: one short program over one 63-fault batch *)
let coverage_unit = lazy (
  let cfg = Soc.tcore16 in
  let nl = Lazy.force t16 in
  let program = Olfu_sbst.Programs.assemble (Olfu_sbst.Programs.alu_patterns cfg) in
  let run = Olfu_sbst.Testbench.record cfg nl ~program in
  (nl, run))

let bench_coverage_unit =
  Test.make ~name:"sec4/seq_fsim_63faults"
    (Staged.stage (fun () ->
         let nl, run = Lazy.force coverage_unit in
         let u = Fault.universe nl in
         let fl = Flist.create nl (Array.sub u 0 63) in
         Olfu_fsim.Seq_fsim.run ~init:Logic4.X
           ~observe:(Olfu_sbst.Testbench.observed_outputs nl) nl fl
           run.Olfu_sbst.Testbench.stimulus))

(* ---------------------------------------------------------------- *)
(* Extension — transition-delay fault model (paper's conclusion)    *)
(* ---------------------------------------------------------------- *)

let print_tdf () =
  section "Extension — transition-delay faults (paper: future work)";
  let r = Olfu.Tdf_flow.run rc (Lazy.force t32) (Lazy.force mission32) in
  Format.printf "%a@." Olfu.Tdf_flow.pp r

let bench_tdf =
  Test.make ~name:"ext/tdf_flow_tcore16"
    (Staged.stage (fun () ->
         Olfu.Tdf_flow.run rc (Lazy.force t16) (Lazy.force mission16)))

let print_full_dft () =
  section "Extension — full DfT population (BIST + boundary scan, Sec. 3)";
  let cfg = Soc.tcore32_dft in
  let nl = Soc.generate cfg in
  let mission = Olfu.Mission.of_soc cfg nl in
  let r = Olfu.Flow.run rc nl mission in
  Format.printf "%a@." (Olfu.Flow.pp_table1 ~paper:false) r

(* ---------------------------------------------------------------- *)
(* Extension — ATPG effort reduction (the paper's motivation)        *)
(* ---------------------------------------------------------------- *)

let print_atpg_effort () =
  section
    "Extension — functional test-generation effort with vs without OLFU \
     pruning (tcore16, BMC, 30-fault sample)";
  let nl = Lazy.force t16 in
  let mission = Lazy.force mission16 in
  let report = Olfu.Flow.run rc nl mission in
  let mnl =
    Script.apply report.Olfu.Flow.mission_netlist
      [
        Script.Tie_input ("scan_en", Logic4.L0);
        Script.Tie_input ("scan_in0", Logic4.L0);
      ]
  in
  let observable = Olfu.Mission.observed_in_field mission mnl in
  (* one shared sample of target faults *)
  let fl = report.Olfu.Flow.flist in
  let rng = Random.State.make [| 23 |] in
  let sample = ref [] in
  while List.length !sample < 30 do
    let i = Random.State.int rng (Flist.size fl) in
    let f = Flist.fault fl i in
    if
      f.Fault.site.Fault.pin <> Cell.Pin.Clk
      && not (List.exists (fun (j, _) -> j = i) !sample)
    then sample := (i, f) :: !sample
  done;
  let run_side ~pruned =
    let t0 = Unix.gettimeofday () in
    let attempts = ref 0 and tests = ref 0 and dead = ref 0 and unk = ref 0 in
    List.iter
      (fun (i, f) ->
        let skip = pruned && Status.is_undetectable (Flist.status fl i) in
        if not skip then begin
          incr attempts;
          match
            Bmc.run ~cycles:3 ~observable_output:observable
              ~conflict_limit:15_000 mnl f
          with
          | Bmc.Test _ -> incr tests
          | Bmc.No_test_within _ -> incr dead
          | Bmc.Unknown -> incr unk
        end)
      !sample;
    (!attempts, !tests, !dead, !unk, Unix.gettimeofday () -. t0)
  in
  let a, t, d, u, secs = run_side ~pruned:false in
  Format.printf
    "  without pruning: %d BMC runs (%d tests, %d exhausted, %d timeouts), \
     %.1f s@."
    a t d u secs;
  let a, t, d, u, secs = run_side ~pruned:true in
  Format.printf
    "  with pruning:    %d BMC runs (%d tests, %d exhausted, %d timeouts), \
     %.1f s@."
    a t d u secs;
  Format.printf
    "  (every pruned fault skips a bounded functional search that can only \
     end in exhaustion — the paper's effort-reduction claim)@."

(* ---------------------------------------------------------------- *)
(* Extension — bounded sequential refutation of the flow's verdicts  *)
(* ---------------------------------------------------------------- *)

(* ---------------------------------------------------------------- *)
(* Extension — path-delay faults (the authors' MTV'08 companion)     *)
(* ---------------------------------------------------------------- *)

let print_pathdelay () =
  section "Extension — functionally untestable path-delay faults (ref [9])";
  let nl = Lazy.force t16 in
  let raw = Untestable.analyze nl in
  let c_raw = Pathdelay.classify ~max_paths:20_000 raw nl in
  let mission_nl =
    (Olfu.Flow.run rc nl (Lazy.force mission16)).Olfu.Flow.mission_netlist
  in
  let mission = Untestable.analyze mission_nl in
  let c_mis = Pathdelay.classify ~max_paths:20_000 mission mission_nl in
  Format.printf "  raw netlist:     %a@." Pathdelay.pp_census c_raw;
  Format.printf "  mission config:  %a@." Pathdelay.pp_census c_mis

let print_bmc_check () =
  section
    "Extension — BMC refutation attempts on flow verdicts (tcore16, 3 \
     cycles)";
  let cfg = Soc.tcore16 in
  let nl = Lazy.force t16 in
  let mission = Lazy.force mission16 in
  let report = Olfu.Flow.run rc nl mission in
  let mnl =
    Script.apply report.Olfu.Flow.mission_netlist
      [
        Script.Tie_input ("scan_en", Logic4.L0);
        Script.Tie_input ("scan_in0", Logic4.L0);
      ]
  in
  ignore cfg;
  let observable = Olfu.Mission.observed_in_field mission mnl in
  let tried = ref 0 and refuted = ref 0 and unknown = ref 0 in
  Flist.iteri
    (fun i f st ->
      if
        !tried < 24 && i mod 401 = 0
        && Status.is_undetectable st
        && f.Fault.site.Fault.pin <> Cell.Pin.Clk
      then begin
        incr tried;
        match
          Bmc.run ~cycles:3 ~observable_output:observable
            ~conflict_limit:15_000 mnl f
        with
        | Bmc.Test stim ->
          if Bmc.confirm_test ~observable_output:observable mnl f stim then
            incr refuted
        | Bmc.Unknown -> incr unknown
        | Bmc.No_test_within _ -> ()
      end)
    report.Olfu.Flow.flist;
  Format.printf
    "  %d sampled untestable verdicts, %d refuted by 3-cycle functional \
     search, %d search timeouts@."
    !tried !refuted !unknown;
  Format.printf
    "  (a refutation would be a real functional test for a fault the flow \
     pruned — zero expected)@."

(* ---------------------------------------------------------------- *)
(* Static analysis — the lint registry over the biggest core        *)
(* ---------------------------------------------------------------- *)

let print_lint () =
  section "Static analysis — olfu_lint registry over tcore32";
  let outcome = Olfu_lint.Lint.run (Lazy.force t32) in
  Format.printf "%a@." Olfu_lint.Render.summary outcome

let bench_lint =
  Test.make ~name:"lint/lint_tcore32"
    (Staged.stage (fun () -> Olfu_lint.Lint.run (Lazy.force t32)))

(* ---------------------------------------------------------------- *)
(* Static analysis — abstract interpretation of the SBST suite      *)
(* ---------------------------------------------------------------- *)

let absint_suite cfg =
  List.map
    (fun p -> Olfu_absint.Absint.of_program cfg p)
    (Olfu_sbst.Programs.suite cfg)

let print_absint () =
  section "Static analysis — absint over the SBST suite (tcore32)";
  let cfg = Soc.tcore32 in
  let summaries = absint_suite cfg in
  let consts = Olfu_absint.Absint.constant_addr_bits ~width:cfg.Soc.xlen summaries in
  let check =
    Olfu_absint.Absint.cross_check ~width:cfg.Soc.xlen summaries
      (Memmap.paper_case_study ())
  in
  Format.printf
    "  %d programs analysed, %d constant address bits, map cross-check: %s@."
    (List.length summaries) (List.length consts)
    (if check.Olfu_absint.Absint.ok then "OK" else "VIOLATION")

let bench_absint =
  Test.make ~name:"absint_suite/tcore32"
    (Staged.stage (fun () -> absint_suite Soc.tcore32))

(* ---------------------------------------------------------------- *)
(* Ablations (DESIGN.md section 5)                                  *)
(* ---------------------------------------------------------------- *)

let print_ablation_sweep () =
  section "Ablation — dead-logic sweep of the mission netlist";
  let r = Olfu.Flow.run rc (Lazy.force t16) (Lazy.force mission16) in
  let swept, removed = Sweep.sweep r.Olfu.Flow.mission_netlist in
  Format.printf
    "  mission netlist: %d nodes; a synthesis-style sweep would remove %d      (%.1f%%), the rest of the untestable faults sit in logic that stays@."
    (Netlist.length r.Olfu.Flow.mission_netlist)
    removed
    (100. *. float_of_int removed
    /. float_of_int (Netlist.length r.Olfu.Flow.mission_netlist));
  ignore swept

let print_ablation_ff_mode () =
  section "Ablation — sequential constant propagation mode";
  List.iter
    (fun (name, mode) ->
      let r =
        Olfu.Flow.run
          { rc with Olfu.Run_config.ff_mode = mode }
          (Lazy.force t16) (Lazy.force mission16)
      in
      Format.printf "  %-12s total OLFU %6d (%.1f%%), paper rows %6d@." name
        r.Olfu.Flow.total_olfu
        (100. *. r.Olfu.Flow.fraction)
        (Olfu.Flow.paper_total r))
    [
      ("steady", Ternary.Steady_state); ("reset-join", Ternary.Reset_join);
      ("cut", Ternary.Cut);
    ]

let print_ablation_collapse () =
  section "Ablation — collapsed vs uncollapsed fault counting";
  let nl = Lazy.force t16 in
  let fl = Flist.full nl in
  let c = Collapse.compute fl in
  Format.printf "  uncollapsed: %d   collapsed (prime): %d   ratio %.2f@."
    (Flist.size fl) (Collapse.num_classes c)
    (float_of_int (Flist.size fl) /. float_of_int (Collapse.num_classes c))

let print_ablation_scan_bufs () =
  section "Ablation — scan-path buffering density vs scan share";
  List.iter
    (fun bufs ->
      let cfg = { Soc.tcore16 with Soc.scan_link_buffers = bufs } in
      let nl = Soc.generate cfg in
      let mission = Olfu.Mission.of_soc cfg nl in
      let r = Olfu.Flow.run rc nl mission in
      let scan = Olfu.Flow.step_count r Olfu.Flow.Scan in
      Format.printf "  %d buffers/link: scan %6d of %6d = %.1f%%@." bufs scan
        r.Olfu.Flow.universe
        (100. *. float_of_int scan /. float_of_int r.Olfu.Flow.universe))
    [ 0; 1; 2; 3 ]

let print_ablation_podem_confirm () =
  section "Ablation — implication-only vs PODEM confirmation (sampled)";
  let nl, ff = scan_cell () in
  ignore ff;
  let t = Untestable.analyze nl in
  let u = Fault.universe nl in
  let confirmed = ref 0 and total = ref 0 in
  Array.iter
    (fun f ->
      if f.Fault.site.Fault.pin <> Cell.Pin.Clk then
        match Untestable.fault_verdict t f with
        | Some _ ->
          incr total;
          (match Podem.run nl f with
          | Podem.Proved_untestable -> incr confirmed
          | _ -> ())
        | None -> ())
    u;
  Format.printf
    "  scan cell: %d/%d implication verdicts confirmed by exhaustive PODEM@."
    !confirmed !total;
  (* and on a slice of the SoC-scale list the engine is merely sound *)
  let nl16 = Lazy.force t16 in
  let t16a = Untestable.analyze nl16 in
  let u16 = Fault.universe nl16 in
  let proved = ref 0 and tested = ref 0 and aborted = ref 0 and total = ref 0 in
  Array.iteri
    (fun i f ->
      if i mod 29 = 0 && f.Fault.site.Fault.pin <> Cell.Pin.Clk then
        match Untestable.fault_verdict t16a f with
        | Some _ -> (
          incr total;
          match Podem.run ~backtrack_limit:200 nl16 f with
          | Podem.Proved_untestable -> incr proved
          | Podem.Test _ -> incr tested
          | Podem.Aborted -> incr aborted)
        | None -> ())
    u16;
  Format.printf
    "  tcore16 sample: %d verdicts -> PODEM proved %d, aborted %d, refuted \
     %d (refutations indicate full-access vs mission observability gap)@."
    !total !proved !aborted !tested

(* ---------------------------------------------------------------- *)
(* Bechamel driver                                                  *)
(* ---------------------------------------------------------------- *)

let micro_benchmarks =
  [
    bench_table1; bench_fig1; bench_fig2; bench_fig3; bench_fig4; bench_fig5;
    bench_fig6; bench_screening; bench_memmap; bench_coverage_unit;
    bench_tdf; bench_lint; bench_absint;
  ]

let run_benchmarks () =
  section "Bechamel micro-benchmarks (one per table/figure)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"olfu" micro_benchmarks)
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some [ t ] -> t
        | _ -> nan
      in
      Format.printf "  %-32s %12.1f us/run@." name (est /. 1_000.))
    (List.sort compare rows)

(* ---------------------------------------------------------------- *)
(* fsim mode: fault-simulation throughput (BENCH_fsim.json)          *)
(* ---------------------------------------------------------------- *)

(* Measures the cone-limited PPSFP engine against the full-settle
   baseline on tcore32 (evenly spaced fault sample, 128 patterns) and
   cross-checks that both engines — and parallel runs — produce
   bit-identical fault statuses.  Run with: dune exec bench/main.exe -- fsim *)
let fsim_bench () =
  let module CF = Olfu_fsim.Comb_fsim in
  section "fsim throughput — cone engine vs full-settle baseline (tcore32)";
  let nl = Lazy.force t32 in
  let universe = Fault.universe nl in
  let total = Array.length universe in
  let sample_n = min 1000 total in
  let stride = max 1 (total / sample_n) in
  let faults =
    Array.init sample_n (fun k -> universe.(min (k * stride) (total - 1)))
  in
  let npat = 128 in
  let patterns = CF.random_patterns ~seed:7 nl npat in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let run_cfg ~engine ~jobs =
    let fl = Flist.create nl faults in
    let r, secs = time (fun () -> CF.run ~engine ~jobs nl fl patterns) in
    (fl, r, secs)
  in
  (* min-of-N per configuration: single timings on a shared host swing by
     several percent of scheduler noise, which is exactly the scale the
     monotone gate resolves *)
  let run_cfg_min ?(reps = 5) ~engine ~jobs () =
    let best = ref None in
    for _ = 1 to reps do
      let fl, r, secs = run_cfg ~engine ~jobs in
      match !best with
      | Some (_, _, s) when s <= secs -> ()
      | _ -> best := Some (fl, r, secs)
    done;
    Option.get !best
  in
  (* per-worker utilization of the last pool dispatch, off the pool
     gauges of a separately traced (untimed) run *)
  let utilization ~jobs =
    let module Trace = Olfu_obs.Trace in
    let trace = Trace.create () in
    let fl = Flist.create nl faults in
    ignore (CF.run ~engine:CF.Cone ~jobs ~trace nl fl patterns : CF.report);
    Option.value ~default:1.0
      (List.assoc_opt "pool.last_utilization" (Trace.gauges trace))
  in
  let statuses fl = Array.init (Flist.size fl) (Flist.status fl) in
  let evals secs = float_of_int (sample_n * npat) /. secs in
  (* warm the per-netlist cone memo so steady-state throughput is measured *)
  ignore (run_cfg ~engine:CF.Cone ~jobs:1);
  let flb, rb, base_secs = run_cfg_min ~reps:3 ~engine:CF.Full_settle ~jobs:1 () in
  Format.printf "  full-settle jobs=1: %.3f s  (%.0f fault-pat evals/s)@."
    base_secs (evals base_secs);
  (* round-robin the cone configurations within each rep (major
     collection before each timed run) so slow load drift and heap
     growth hit every jobs value equally instead of biasing the later
     configurations — the monotone gate compares them against each
     other.  The order rotates per rep: periodic background load on a
     shared host can alias onto one slot of a fixed rotation, which
     min-of-N cannot filter out *)
  let best : (int, Flist.t * CF.report * float) Hashtbl.t =
    Hashtbl.create 3
  in
  let cone_jobs = [| 1; 2; 4 |] in
  let nc = Array.length cone_jobs in
  for rep = 0 to (2 * nc) - 1 do
    for k = 0 to nc - 1 do
      let jobs = cone_jobs.((rep + k) mod nc) in
      Gc.full_major ();
      let fl, r, secs = run_cfg ~engine:CF.Cone ~jobs in
      match Hashtbl.find_opt best jobs with
      | Some (_, _, s) when s <= secs -> ()
      | _ -> Hashtbl.replace best jobs (fl, r, secs)
    done
  done;
  let cone =
    List.map
      (fun jobs ->
        let fl, r, secs = Hashtbl.find best jobs in
        let util = utilization ~jobs in
        Format.printf
          "  cone        jobs=%d: %.3f s  (%.0f fault-pat evals/s, \
           utilization %.2f)@."
          jobs secs (evals secs) util;
        (jobs, fl, r, secs, util))
      [ 1; 2; 4 ]
  in
  let _, fl2, _, _, _ = List.nth cone 1 in
  let ok =
    statuses flb = statuses fl2
    && List.for_all (fun (_, fl, _, _, _) -> statuses fl = statuses flb) cone
  in
  let _, _, r4, secs4, _ =
    List.find (fun (j, _, _, _, _) -> j = 4) cone
  in
  ignore (r4 : CF.report);
  let speedup = base_secs /. secs4 in
  (* non-increasing seconds across jobs 1 -> 2 -> 4, within tolerance:
     on a single-core host the clamped configurations must at least stay
     flat; on a multi-core host they must speed up *)
  (* 1.10: the regression this guards against is a 1.7x-4.8x inversion;
     run-to-run noise on a busy shared host reaches ~9% even on min-of-N *)
  let monotone_tolerance = 1.10 in
  let speedup_monotone =
    let rec chk = function
      | (_, _, _, a, _) :: ((_, _, _, b, _) :: _ as tl) ->
        b <= (a *. monotone_tolerance) && chk tl
      | _ -> true
    in
    chk cone
  in
  Format.printf "  statuses identical across engines/jobs: %b@." ok;
  Format.printf "  speedup cone/jobs=4 vs full-settle/jobs=1: %.2fx@." speedup;
  Format.printf "  seconds monotone non-increasing over jobs: %b@."
    speedup_monotone;
  (* observability overhead: the engine is permanently instrumented, so
     compare the default no-op sink against an actively recording one
     (the no-op branch does strictly less work per call site than the
     recording branch, so this bounds the sink dispatch cost).
     Min-of-N to shed scheduler noise. *)
  let module Trace = Olfu_obs.Trace in
  (* Scheduler noise here swings individual timings by several percent,
     far above the probe cost, so no single comparison can resolve a
     <2% difference.  Measure paired regions of 4 back-to-back runs,
     alternating which side goes first (cancels drift and cache-warming
     bias), and gate on the MEDIAN of the per-pair deltas — the robust
     center that the spiked pairs cannot move. *)
  let runs_per_region = 8 in
  let region trace =
    snd
      (time (fun () ->
           for _ = 1 to runs_per_region do
             let fl = Flist.create nl faults in
             ignore (CF.run ~engine:CF.Cone ~jobs:1 ~trace nl fl patterns)
           done))
  in
  let pairs = 15 in
  let deltas = Array.make pairs 0. in
  let null_s = ref infinity and rec_s = ref infinity in
  for i = 0 to pairs - 1 do
    let n, r =
      if i mod 2 = 0 then
        let n = region Trace.null in
        (n, region (Trace.create ()))
      else
        let r = region (Trace.create ()) in
        (region Trace.null, r)
    in
    null_s := min !null_s (n /. float_of_int runs_per_region);
    rec_s := min !rec_s (r /. float_of_int runs_per_region);
    deltas.(i) <- 100. *. (r -. n) /. n
  done;
  Array.sort compare deltas;
  let overhead_pct = deltas.(pairs / 2) in
  let null_s = !null_s and rec_s = !rec_s in
  (* second, burst-immune estimator: a load burst can inflate a region
     but never deflate one, so the delta of the per-side MIN region
     times stays clean through a burst long enough to move the median.
     A real systematic sink cost shows up in both. *)
  let min_pct = 100. *. (rec_s -. null_s) /. null_s in
  Format.printf
    "  sink overhead: null %.3f s, recording %.3f s  (median delta \
     %+.2f%%, min delta %+.2f%%, gate <2%%)@."
    null_s rec_s overhead_pct min_pct;
  let obs_ok = overhead_pct < 2.0 || min_pct < 2.0 in
  let oc = open_out "BENCH_fsim.json" in
  let pc oc (jobs, _, (r : CF.report), secs, util) =
    Printf.fprintf oc
      "    { \"jobs\": %d, \"seconds\": %.6f, \"evals_per_sec\": %.0f, \
       \"detected\": %d, \"possibly\": %d, \"utilization\": %.3f }"
      jobs secs (evals secs) r.CF.detected r.CF.possibly util
  in
  Printf.fprintf oc
    "{\n  \"netlist\": \"tcore32\",\n  \"faults_sampled\": %d,\n\
    \  \"patterns\": %d,\n\
    \  \"baseline_full_settle_jobs1\": { \"seconds\": %.6f, \
     \"evals_per_sec\": %.0f, \"detected\": %d, \"possibly\": %d },\n\
    \  \"cone\": [\n"
    sample_n npat base_secs (evals base_secs) rb.CF.detected rb.CF.possibly;
  List.iteri
    (fun k c ->
      pc oc c;
      output_string oc (if k < List.length cone - 1 then ",\n" else "\n"))
    cone;
  Printf.fprintf oc
    "  ],\n  \"speedup_4j_vs_baseline\": %.3f,\n\
    \  \"statuses_identical\": %b,\n\
    \  \"speedup_monotone\": %b,\n\
    \  \"monotone_tolerance\": %.2f,\n\
    \  \"obs\": { \"null_sink_seconds\": %.6f, \"recording_sink_seconds\": \
     %.6f, \"overhead_pct\": %.3f, \"min_overhead_pct\": %.3f, \
     \"gate_pct\": 2.0, \"ok\": %b },\n\
    \  \"peak_heap_bytes\": %d\n}\n"
    speedup ok speedup_monotone monotone_tolerance null_s rec_s overhead_pct
    min_pct obs_ok (peak_heap_bytes ());
  close_out oc;
  Format.printf "  wrote BENCH_fsim.json@.";
  if not ok then begin
    prerr_endline
      "fsim: cone-engine statuses diverge from the full-settle baseline";
    exit 1
  end;
  if not speedup_monotone then begin
    prerr_endline "fsim: seconds not monotone non-increasing over jobs 1/2/4";
    exit 1
  end;
  if not obs_ok then begin
    prerr_endline "fsim: recording-sink overhead exceeds the 2% gate";
    exit 1
  end

(* ---------------------------------------------------------------- *)
(* implic mode: conflict-engine gain and cost (BENCH_implic.json)    *)
(* ---------------------------------------------------------------- *)

(* Runs the full mission flow on tcore32 with the static implication
   engine off and on (jobs 1 and 4), reports classification wall-time,
   conflict-proof counts and the residue left for search, cross-checks
   jobs-invariance and the structural invariants, and spot-checks a
   sample of UC verdicts against the bounded model checker on the
   mission machine.  Run with: dune exec bench/main.exe -- implic *)
let implic_bench () =
  section "implic — conflict-engine gain on the mission flow (tcore32)";
  let nl = Lazy.force t32 in
  let mission = Lazy.force mission32 in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let statuses fl = Array.init (Flist.size fl) (Flist.status fl) in
  let conflicts (r : Olfu.Flow.report) =
    Flist.count_status r.Olfu.Flow.flist
      (Status.Undetectable Status.Conflict)
  in
  let residue (r : Olfu.Flow.report) =
    Flist.size r.Olfu.Flow.flist - r.Olfu.Flow.total_olfu
  in
  let run_with ~implic ~jobs =
    Olfu.Flow.run { rc with Olfu.Run_config.implic; jobs } nl mission
  in
  (* The monotone gate compares per-jobs seconds at noise scale, so two
     biases must be controlled: scheduler outliers (min over rounds) and
     heap growth across the bench — a fixed config order would bill the
     later configurations for the garbage of the earlier ones, so the
     configs are interleaved round-robin with a full major collection
     before every timed run. *)
  let all_configs =
    [| (false, 1); (true, 1); (false, 2); (true, 2); (false, 4); (true, 4) |]
  in
  let best = Hashtbl.create 7 in
  ignore (run_with ~implic:true ~jobs:1 : Olfu.Flow.report) (* warm-up *);
  (* the order rotates per rep: periodic background load can alias onto
     one slot of a fixed rotation, which min-of-N cannot filter out *)
  let nc = Array.length all_configs in
  for rep = 0 to 4 do
    for k = 0 to nc - 1 do
      let ((implic, jobs) as cfg) = all_configs.((rep + k) mod nc) in
      Gc.full_major ();
      let r, s = time (fun () -> run_with ~implic ~jobs) in
      match Hashtbl.find_opt best cfg with
      | Some (_, s0) when s0 <= s -> ()
      | _ -> Hashtbl.replace best cfg (r, s)
    done
  done;
  let run_min ~implic ~jobs = Hashtbl.find best (implic, jobs) in
  (* per-worker utilization of the classify pool, off the pool gauges of
     a separately traced run *)
  let utilization ~jobs =
    let module Trace = Olfu_obs.Trace in
    let trace = Trace.create () in
    ignore
      (Olfu.Flow.run
         { rc with Olfu.Run_config.implic = true; jobs; trace }
         nl mission
        : Olfu.Flow.report);
    Option.value ~default:1.0
      (List.assoc_opt "pool.last_utilization" (Trace.gauges trace))
  in
  let off1, off1_s = run_min ~implic:false ~jobs:1 in
  let on1, on1_s = run_min ~implic:true ~jobs:1 in
  let off2, off2_s = run_min ~implic:false ~jobs:2 in
  let on2, on2_s = run_min ~implic:true ~jobs:2 in
  let off4, off4_s = run_min ~implic:false ~jobs:4 in
  let on4, on4_s = run_min ~implic:true ~jobs:4 in
  let util1 = utilization ~jobs:1 in
  let util2 = utilization ~jobs:2 in
  let util4 = utilization ~jobs:4 in
  let row name secs (r : Olfu.Flow.report) =
    Format.printf "  %-14s %7.3f s   classified %6d   UC %5d   residue %6d@."
      name secs r.Olfu.Flow.total_olfu (conflicts r) (residue r)
  in
  row "off jobs=1" off1_s off1;
  row "on  jobs=1" on1_s on1;
  row "off jobs=2" off2_s off2;
  row "on  jobs=2" on2_s on2;
  row "off jobs=4" off4_s off4;
  row "on  jobs=4" on4_s on4;
  let gain = on1.Olfu.Flow.total_olfu - off1.Olfu.Flow.total_olfu in
  Format.printf "  gain over UT+UB: %d faults (%d conflict proofs)@." gain
    (conflicts on1);
  let jobs_ok =
    statuses on1.Olfu.Flow.flist = statuses on2.Olfu.Flow.flist
    && statuses on1.Olfu.Flow.flist = statuses on4.Olfu.Flow.flist
    && statuses off1.Olfu.Flow.flist = statuses off2.Olfu.Flow.flist
    && statuses off1.Olfu.Flow.flist = statuses off4.Olfu.Flow.flist
  in
  (* non-increasing seconds across jobs 1 -> 2 -> 4 within tolerance, for
     both the implic-off and implic-on series *)
  (* 1.10: the regression this guards against is a 1.7x-4.8x inversion;
     run-to-run noise on a busy shared host reaches ~9% even on min-of-N *)
  let monotone_tolerance = 1.10 in
  let non_increasing series =
    let rec chk = function
      | a :: (b :: _ as tl) -> b <= (a *. monotone_tolerance) && chk tl
      | _ -> true
    in
    chk series
  in
  let speedup_monotone =
    non_increasing [ off1_s; off2_s; off4_s ]
    && non_increasing [ on1_s; on2_s; on4_s ]
  in
  (* the engine only adds verdicts: anything UT+UB classifies stays
     classified with the engine on *)
  let monotone =
    let son = statuses on1.Olfu.Flow.flist
    and soff = statuses off1.Olfu.Flow.flist in
    let ok = ref (Array.length son = Array.length soff) in
    Array.iteri
      (fun i st ->
        if Status.is_undetectable st && not (Status.is_undetectable son.(i))
        then ok := false)
      soff;
    !ok
  in
  (* spot-check conflict proofs against the bounded model checker on the
     full mission machine (scan pins held functional) *)
  let mnl =
    Olfu_manip.Script.apply on1.Olfu.Flow.mission_netlist
      [
        Olfu_manip.Script.Tie_input ("scan_en", Logic4.L0);
        Olfu_manip.Script.Tie_input ("scan_in0", Logic4.L0);
      ]
  in
  let observable = Olfu.Mission.observed_in_field mission mnl in
  let oracle_ok = ref true in
  let oracle_checked = ref 0 in
  Flist.iteri
    (fun _ f st ->
      if
        !oracle_checked < 6
        && st = Status.Undetectable Status.Conflict
        && f.Fault.site.Fault.pin <> Cell.Pin.Clk
      then begin
        incr oracle_checked;
        match
          Bmc.run ~cycles:3 ~observable_output:observable
            ~conflict_limit:20_000 mnl f
        with
        | Bmc.Test stim ->
          if Bmc.confirm_test ~observable_output:observable mnl f stim then begin
            Format.printf "  ORACLE REFUTED: %s@." (Fault.to_string mnl f);
            oracle_ok := false
          end
        | Bmc.No_test_within _ | Bmc.Unknown -> ()
      end)
    on1.Olfu.Flow.flist;
  Format.printf
    "  jobs invariant: %b   monotone over UT+UB: %b   oracle sample: %d \
     checked, ok %b@."
    jobs_ok monotone !oracle_checked !oracle_ok;
  Format.printf
    "  seconds monotone non-increasing over jobs: %b   utilization \
     j1/j2/j4: %.2f/%.2f/%.2f@."
    speedup_monotone util1 util2 util4;
  let oc = open_out "BENCH_implic.json" in
  let pr name secs (r : Olfu.Flow.report) last =
    Printf.fprintf oc
      "    { \"config\": %S, \"seconds\": %.6f, \"classified\": %d, \
       \"conflict\": %d, \"residue\": %d }%s\n"
      name secs r.Olfu.Flow.total_olfu (conflicts r) (residue r)
      (if last then "" else ",")
  in
  Printf.fprintf oc "{\n  \"netlist\": \"tcore32\",\n  \"runs\": [\n";
  pr "implic_off_jobs1" off1_s off1 false;
  pr "implic_off_jobs2" off2_s off2 false;
  pr "implic_off_jobs4" off4_s off4 false;
  pr "implic_on_jobs1" on1_s on1 false;
  pr "implic_on_jobs2" on2_s on2 false;
  pr "implic_on_jobs4" on4_s on4 true;
  Printf.fprintf oc
    "  ],\n  \"gain\": %d,\n  \"jobs_invariant\": %b,\n\
    \  \"monotone\": %b,\n  \"speedup_monotone\": %b,\n\
    \  \"monotone_tolerance\": %.2f,\n\
    \  \"utilization\": { \"jobs1\": %.3f, \"jobs2\": %.3f, \"jobs4\": \
     %.3f },\n\
    \  \"oracle_checked\": %d,\n  \"oracle_ok\": %b,\n\
    \  \"peak_heap_bytes\": %d\n}\n"
    gain jobs_ok monotone speedup_monotone monotone_tolerance util1 util2
    util4 !oracle_checked !oracle_ok (peak_heap_bytes ());
  close_out oc;
  Format.printf "  wrote BENCH_implic.json@.";
  if not (jobs_ok && monotone && !oracle_ok && gain > 0) then begin
    prerr_endline "implic: gate violated (gain/invariance/oracle)";
    exit 1
  end;
  if not speedup_monotone then begin
    prerr_endline
      "implic: seconds not monotone non-increasing over jobs 1/2/4";
    exit 1
  end

(* ---------------------------------------------------------------- *)
(* obs mode: observability-layer gates (BENCH_obs.json)              *)
(* ---------------------------------------------------------------- *)

(* Gates for the olfu_obs layer on the mission flow (tcore16):
   (a) counter totals are invariant under jobs ∈ {1,2,4};
   (b) the run manifest and Chrome trace survive a strict JSON
       round-trip, and the manifest's per-engine and per-step seconds
       each sum to within 5% of the flow's wall time;
   (c) the cost of a recording sink vs the default no-op sink is
       reported (the hard <2% gate lives in the fsim mode, where
       min-of-N runs shed the noise).
   Extra argv entries name a manifest and optionally a trace file
   written by the CLI (tools/check.sh passes what
   `olfu analyze --manifest --trace` wrote); both are re-parsed and
   schema-checked here.  Run with:
   dune exec bench/main.exe -- obs [MANIFEST [TRACE]] *)
let obs_bench files =
  let module J = Olfu_obs.Json in
  let module Trace = Olfu_obs.Trace in
  let module Manifest = Olfu_obs.Manifest in
  let module Export = Olfu_obs.Export in
  section "obs — observability gates on the mission flow (tcore16)";
  let nl = Lazy.force t16 and mission = Lazy.force mission16 in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let run_rec jobs =
    let sink = Trace.create () in
    let report, wall =
      time (fun () ->
          Olfu.Flow.run
            { rc with Olfu.Run_config.jobs; trace = sink }
            nl mission)
    in
    (sink, report, wall)
  in
  let s1, r1, w1 = run_rec 1 in
  let s2, _, _ = run_rec 2 in
  let s4, _, _ = run_rec 4 in
  let counters_ok =
    Trace.counters s1 = Trace.counters s2
    && Trace.counters s1 = Trace.counters s4
  in
  Format.printf "  counters invariant under jobs {1,2,4}: %b  (%d counters)@."
    counters_ok
    (List.length (Trace.counters s1));
  (* strict schema check shared between the in-process manifest and any
     CLI-written one *)
  let check_manifest name j =
    let fail msg =
      Format.printf "  manifest %s: FAIL — %s@." name msg;
      false
    in
    let fget k = Option.bind (J.member k j) J.to_float_opt in
    match
      ( fget "wall_seconds", fget "engine_seconds_total",
        fget "step_seconds_total", J.member "engines" j, J.member "steps" j,
        J.member "counters" j,
        Option.bind (J.member "schema" j) J.to_int_opt,
        Option.bind (J.member "git" j) J.to_string_opt )
    with
    | ( Some wall, Some eng, Some stp, Some (J.Obj engines),
        Some (J.List steps), Some (J.Obj _), Some 1, Some _ ) ->
      let within what total =
        if abs_float (total -. wall) <= 0.05 *. wall then true
        else
          fail
            (Printf.sprintf "%s seconds %.3f vs wall %.3f beyond 5%%" what
               total wall)
      in
      if wall <= 0. || eng <= 0. || stp <= 0. || engines = [] || steps = []
      then fail "zero or missing seconds"
      else if within "engine" eng && within "step" stp then begin
        Format.printf
          "  manifest %s: engines %.3f s, steps %.3f s, wall %.3f s — \
           within 5%%@."
          name eng stp wall;
        true
      end
      else false
    | _ -> fail "schema fields missing"
  in
  let check_trace name j =
    match J.member "traceEvents" j with
    | Some (J.List evs) ->
      let xs =
        List.filter
          (fun e ->
            Option.bind (J.member "ph" e) J.to_string_opt = Some "X"
            && J.member "name" e <> None
            && Option.bind (J.member "ts" e) J.to_float_opt <> None
            && Option.bind (J.member "dur" e) J.to_float_opt <> None)
          evs
      in
      if xs = [] then begin
        Format.printf "  trace %s: FAIL — no complete (ph=X) events@." name;
        false
      end
      else begin
        Format.printf "  trace %s: %d events, %d spans@." name
          (List.length evs) (List.length xs);
        true
      end
    | _ ->
      Format.printf "  trace %s: FAIL — no traceEvents array@." name;
      false
  in
  let roundtrip name j =
    match J.parse (J.to_string ~indent:true j) with
    | Ok j' -> Some j'
    | Error e ->
      Format.printf "  %s: FAIL — emitted JSON does not reparse: %s@." name e;
      None
  in
  let steps =
    List.map
      (fun (s : Olfu.Flow.step_report) ->
        {
          Manifest.name = Olfu.Flow.source_name s.Olfu.Flow.source;
          seconds = s.Olfu.Flow.seconds;
          classified = s.Olfu.Flow.classified;
          verdicts =
            List.map
              (fun (u, n) ->
                (Status.code (Status.Undetectable u), n))
              s.Olfu.Flow.by_verdict;
        })
      r1.Olfu.Flow.steps
  in
  let manifest =
    Manifest.make ~steps ~prep:r1.Olfu.Flow.prep ~wall_seconds:w1 s1
  in
  let manifest_ok =
    match roundtrip "manifest" manifest with
    | Some j -> check_manifest "in-process" j
    | None -> false
  in
  let trace_ok =
    match roundtrip "trace" (Export.chrome_json s1) with
    | Some j -> check_trace "in-process" j
    | None -> false
  in
  (* CLI-written files, if any were passed on the command line *)
  let read_file path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let check_file kind path =
    match J.parse (read_file path) with
    | Error e ->
      Format.printf "  %s %s: FAIL — %s@." kind path e;
      false
    | Ok j ->
      if kind = "manifest" then check_manifest path j else check_trace path j
  in
  let files_ok =
    match files with
    | [] -> true
    | [ m ] -> check_file "manifest" m
    | m :: t :: _ -> check_file "manifest" m && check_file "trace" t
  in
  (* sink cost on the full flow, informational (gated in fsim mode) *)
  let _, null_s =
    time (fun () -> Olfu.Flow.run { rc with Olfu.Run_config.jobs = 1 } nl mission)
  in
  let overhead_pct = 100. *. (w1 -. null_s) /. null_s in
  Format.printf
    "  flow wall: no-op sink %.3f s, recording sink %.3f s  (%+.2f%%)@."
    null_s w1 overhead_pct;
  J.to_file ~indent:true "BENCH_obs.json"
    (J.Obj
       [
         ("netlist", J.Str "tcore16");
         ("counters_jobs_invariant", J.Bool counters_ok);
         ( "counters",
           J.Obj (List.map (fun (k, v) -> (k, J.Int v)) (Trace.counters s1))
         );
         ("manifest_ok", J.Bool manifest_ok);
         ("trace_ok", J.Bool trace_ok);
         ("external_files_ok", J.Bool files_ok);
         ("noop_sink_seconds", J.Float null_s);
         ("recording_sink_seconds", J.Float w1);
         ("recording_overhead_pct", J.Float overhead_pct);
         ("peak_heap_bytes", J.Int (peak_heap_bytes ()));
       ]);
  Format.printf "  wrote BENCH_obs.json@.";
  if not (counters_ok && manifest_ok && trace_ok && files_ok) then begin
    prerr_endline "obs: gate violated (invariance/manifest/trace)";
    exit 1
  end

(* ---------------------------------------------------------------- *)
(* safety mode: safe-fault taxonomy gates (BENCH_safety.json)        *)
(* ---------------------------------------------------------------- *)

(* Gates for the olfu_safety classifier:
   (a) the taxonomy is consistent on every core (partition, untouched
       structural/conflict populations, no detected fault rewritten);
   (b) the software pass proves >= 1 new safe fault on tcore32 and the
       SEU axis finds >= 1 unmasked flop there;
   (c) classes and SEU verdicts are identical for jobs 1 vs 4 (tcore16);
   (d) BMC oracle: sampled software-safe faults stay untestable when the
       software facts are tied into the bounded model checker's netlist;
   (e) replay oracle: flops the BMC calls masked show no concrete
       divergence when the bit-flip is injected in Seq_fsim over random
       windows of the same length.
   Run with: dune exec bench/main.exe -- safety *)
let safety_bench () =
  let module A = Olfu_absint.Absint in
  let module P = Olfu_sbst.Programs in
  let module Sc = Olfu_safety.Classify in
  let module T = Olfu_safety.Taxonomy in
  let module Seu = Olfu_safety.Seu in
  section "safety — safe-fault taxonomy gates";
  let window = 3 in
  let classify cfg nl mission ~jobs ~seu_limit =
    let named =
      List.map (fun p -> (p.P.pname, A.of_program cfg p)) (P.suite cfg)
    in
    let facts =
      A.activation_facts ~label:(cfg.Soc.name ^ "-suite") cfg named
    in
    ( Sc.run
        ~config:
          {
            Sc.rc = { rc with Olfu.Run_config.jobs };
            window;
            seu_limit;
            conflict_limit = 50_000;
            (* the invariant pass has its own bench mode (invar) with a
               dedicated UC-delta gate; keep this mode's gates pinned to
               the software/SEU axes *)
            invariants = false;
          }
        ~facts nl mission,
      List.map snd named )
  in
  let cnt r c = List.assoc c r.Sc.counts in
  let row name (r : Sc.report) =
    Format.printf
      "  %-12s universe %6d  structural %5d  conflict %3d  software %4d  \
       SEU m/p/v/u %d/%d/%d/%d  %6.2f s  consistent %b@."
      name r.Sc.universe
      (cnt r T.Structural_uc)
      (cnt r T.Conflict_uc)
      (cnt r T.Software_safe)
      r.Sc.seu.Seu.masked r.Sc.seu.Seu.protected_ r.Sc.seu.Seu.vulnerable
      r.Sc.seu.Seu.unknown r.Sc.seconds (Sc.consistent r)
  in
  let r16, _ =
    classify Soc.tcore16 (Lazy.force t16) (Lazy.force mission16) ~jobs:1
      ~seu_limit:16
  in
  let r16j4, _ =
    classify Soc.tcore16 (Lazy.force t16) (Lazy.force mission16) ~jobs:4
      ~seu_limit:16
  in
  let r32, ts32 =
    classify Soc.tcore32 (Lazy.force t32) (Lazy.force mission32) ~jobs:4
      ~seu_limit:16
  in
  let dft = Soc.generate Soc.tcore32_dft in
  let rdft, _ =
    classify Soc.tcore32_dft dft
      (Olfu.Mission.of_soc Soc.tcore32_dft dft)
      ~jobs:4 ~seu_limit:16
  in
  row "tcore16" r16;
  row "tcore32" r32;
  row "tcore32_dft" rdft;
  let seu_cls (r : Sc.report) =
    Array.map (fun x -> (x.Seu.ff, x.Seu.cls)) r.Sc.seu.Seu.results
  in
  let jobs_ok = r16.Sc.classes = r16j4.Sc.classes && seu_cls r16 = seu_cls r16j4 in
  let consistent_all =
    Sc.consistent r16 && Sc.consistent r32 && Sc.consistent rdft
  in
  (* (d) BMC oracle: a software-safe verdict means the activation
     condition contradicts the software facts — tie those facts into the
     BMC machine and the fault must stay untestable there *)
  let swnl =
    Script.apply r32.Sc.bmc_netlist
      (A.assume_script ~width:Soc.tcore32.Soc.xlen ts32 r32.Sc.bmc_netlist)
  in
  let oracle_ok = ref true in
  let oracle_checked = ref 0 in
  Flist.iteri
    (fun _ f st ->
      if
        !oracle_checked < 4
        && st = Status.Undetectable Status.Software
        && f.Fault.site.Fault.pin <> Cell.Pin.Clk
      then begin
        incr oracle_checked;
        match
          Bmc.run ~cycles:3 ~observable_output:r32.Sc.observable
            ~conflict_limit:20_000 swnl f
        with
        | Bmc.Test stim ->
          if Bmc.confirm_test ~observable_output:r32.Sc.observable swnl f stim
          then begin
            Format.printf "  ORACLE REFUTED: %s@." (Fault.to_string swnl f);
            oracle_ok := false
          end
        | Bmc.No_test_within _ | Bmc.Unknown -> ()
      end)
    r32.Sc.flow.Olfu.Flow.flist;
  (* (e) replay oracle: BMC-masked flops must not diverge concretely *)
  let bnl = r16.Sc.bmc_netlist in
  let masked =
    Array.of_list
      (List.filter_map
         (fun (x : Seu.ff_result) ->
           if x.Seu.cls = T.Seu_masked then Some x.Seu.ff else None)
         (Array.to_list r16.Sc.seu.Seu.results))
  in
  let replay_ok = ref true in
  let replay_checked = Array.length masked in
  if replay_checked > 0 then begin
    Random.init 42;
    let inputs = Array.to_list (Netlist.inputs bnl) in
    for _trial = 1 to 5 do
      let stim =
        Array.init window (fun _ ->
            {
              Olfu_fsim.Seq_fsim.assign =
                List.map
                  (fun i ->
                    ( i,
                      if Netlist.has_role bnl i Netlist.Reset then Logic4.L1
                      else if Random.bool () then Logic4.L1
                      else Logic4.L0 ))
                  inputs;
              strobe = true;
            })
      in
      let obs =
        Olfu_fsim.Seq_fsim.run_seu ~init:Logic4.L0
          ~observe:r16.Sc.observable
          ~alarm:(Seu.default_alarm bnl) bnl ~ffs:masked stim
      in
      Array.iter
        (fun (o : Olfu_fsim.Seq_fsim.seu_obs) ->
          if o.Olfu_fsim.Seq_fsim.seu_diverged then begin
            Format.printf "  REPLAY REFUTED: masked flop %d diverged@."
              o.Olfu_fsim.Seq_fsim.seu_ff;
            replay_ok := false
          end)
        obs
    done
  end;
  let sw_gain = cnt r32 T.Software_safe in
  let unmasked32 = r32.Sc.seu.Seu.protected_ + r32.Sc.seu.Seu.vulnerable in
  Format.printf
    "  jobs invariant: %b   consistent: %b   software gain (t32): %d   \
     unmasked flops (t32): %d@."
    jobs_ok consistent_all sw_gain unmasked32;
  Format.printf "  oracle: %d checked, ok %b   replay: %d flops x5, ok %b@."
    !oracle_checked !oracle_ok replay_checked !replay_ok;
  let oc = open_out "BENCH_safety.json" in
  let core name (r : Sc.report) last =
    Printf.fprintf oc
      "    { \"config\": %S, \"universe\": %d, \"structural_uc\": %d, \
       \"conflict_uc\": %d, \"software_safe\": %d, \"unclassified\": %d, \
       \"seu_checked\": %d, \"seu_masked\": %d, \"seu_protected\": %d, \
       \"seu_vulnerable\": %d, \"seu_unknown\": %d, \"consistent\": %b, \
       \"seconds\": %.6f }%s\n"
      name r.Sc.universe
      (cnt r T.Structural_uc)
      (cnt r T.Conflict_uc)
      (cnt r T.Software_safe)
      (cnt r T.Unclassified)
      (Array.length r.Sc.seu.Seu.results)
      r.Sc.seu.Seu.masked r.Sc.seu.Seu.protected_ r.Sc.seu.Seu.vulnerable
      r.Sc.seu.Seu.unknown (Sc.consistent r) r.Sc.seconds
      (if last then "" else ",")
  in
  Printf.fprintf oc "{\n  \"window\": %d,\n  \"cores\": [\n" window;
  core "tcore16" r16 false;
  core "tcore32" r32 false;
  core "tcore32_dft" rdft true;
  Printf.fprintf oc
    "  ],\n  \"jobs_invariant\": %b,\n  \"software_gain\": %d,\n\
    \  \"unmasked_flops\": %d,\n  \"oracle_checked\": %d,\n\
    \  \"oracle_ok\": %b,\n  \"replay_checked\": %d,\n  \"replay_ok\": %b,\n\
    \  \"peak_heap_bytes\": %d\n}\n"
    jobs_ok sw_gain unmasked32 !oracle_checked !oracle_ok replay_checked
    !replay_ok (peak_heap_bytes ());
  close_out oc;
  Format.printf "  wrote BENCH_safety.json@.";
  if
    not
      (jobs_ok && consistent_all && sw_gain > 0 && unmasked32 > 0
     && !oracle_ok && !replay_ok)
  then begin
    prerr_endline
      "safety: gate violated (consistency/invariance/gain/oracle/replay)";
    exit 1
  end

(* ---------------------------------------------------------------- *)
(* invar mode: invariant-engine gates (BENCH_invar.json)             *)
(* ---------------------------------------------------------------- *)

(* Gates for the olfu_invar mine/filter/prove pipeline:
   (a) every core yields proved invariants, with >= 1 non-constant class
       (mutex / at-most-one / range) proved on tcore32;
   (b) the proved set is identical for jobs 1 vs 4 (tcore16) — the
       greatest inductive subset is unique;
   (c) BMC oracle: 4 sampled proved invariants (non-constant classes
       first) are re-checked by a bounded reachability query from reset
       that shares none of the induction structure;
   (d) UC-delta: the invariant-strengthened implication database closes
       conflict faults on tcore32 that the plain mission analysis leaves
       open (recorded and gated >= 1).
   Run with: dune exec bench/main.exe -- invar *)
let invar_bench () =
  let module Inv = Olfu_invar.Invar in
  let module Sc = Olfu_safety.Classify in
  let module U = Untestable in
  section "invar — sequential invariant engine gates";
  let machine nl mission =
    let flow = Olfu.Flow.run { rc with Olfu.Run_config.jobs = 4 } nl mission in
    (Sc.bmc_machine flow.Olfu.Flow.mission_netlist, flow)
  in
  let m16, _ = machine (Lazy.force t16) (Lazy.force mission16) in
  let m32, flow32 = machine (Lazy.force t32) (Lazy.force mission32) in
  let dft = Soc.generate Soc.tcore32_dft in
  let mdft, _ = machine dft (Olfu.Mission.of_soc Soc.tcore32_dft dft) in
  let r16 = Inv.run ~jobs:1 m16 in
  let r16j4 = Inv.run ~jobs:4 m16 in
  let r32 = Inv.run ~jobs:4 m32 in
  let rdft = Inv.run ~jobs:4 mdft in
  let nonconst r =
    List.length
      (List.filter (fun (i : Inv.invariant) -> not (Inv.is_const i.Inv.form))
         r.Inv.proved)
  in
  let row name (r : Inv.report) =
    Format.printf
      "  %-12s flops %4d  mined %4d  killed %3d  unproved %3d  proved %4d \
       (non-const %d)  %6.2f s@."
      name r.Inv.total_ffs
      (List.length r.Inv.mined)
      (List.length r.Inv.killed)
      (List.length r.Inv.unproved)
      (List.length r.Inv.proved)
      (nonconst r) r.Inv.seconds
  in
  row "tcore16" r16;
  row "tcore32" r32;
  row "tcore32_dft" rdft;
  let jobs_ok = r16.Inv.proved = r16j4.Inv.proved in
  (* (c) bounded oracle on 4 proved invariants, non-constant first *)
  let sample =
    let nc, c =
      List.partition
        (fun (i : Inv.invariant) -> not (Inv.is_const i.Inv.form))
        r32.Inv.proved
    in
    let rec take n = function
      | x :: rest when n > 0 -> x :: take (n - 1) rest
      | _ -> []
    in
    take 4 (nc @ c)
  in
  let oracle_ok =
    List.for_all
      (fun (i : Inv.invariant) ->
        let ok = Inv.bounded_check ~cycles:6 m32 i.Inv.form in
        if not ok then
          Format.printf "  ORACLE REFUTED: %a@." (Inv.pp_candidate m32)
            i.Inv.form;
        ok)
      sample
  in
  (* (d) UC-delta on tcore32: what only the strengthened database closes *)
  let observable =
    Olfu.Mission.observed_in_field
      (Lazy.force mission32)
      flow32.Olfu.Flow.mission_netlist
  in
  let base = U.analyze ~observable_output:observable m32 in
  let strengthened =
    U.analyze ~observable_output:observable
      ~consts:(Ternary.run ~assume:(Inv.assume_facts r32) m32)
      ~extra_edges:(Inv.edges r32) m32
  in
  let breakdown = U.untestable_breakdown ~invariant:strengthened base m32 in
  let uc_delta = List.assoc Status.Invariant breakdown in
  Format.printf
    "  jobs invariant: %b   oracle: %d checked, ok %b   UC-delta (t32): \
     %d@."
    jobs_ok (List.length sample) oracle_ok uc_delta;
  let oc = open_out "BENCH_invar.json" in
  let core name (r : Inv.report) last =
    Printf.fprintf oc
      "    { \"config\": %S, \"flops\": %d, \"mined\": %d, \
       \"killed\": %d, \"unproved\": %d, \"proved\": %d, \
       \"nonconst_proved\": %d, \"k\": %d, \"seconds\": %.6f }%s\n"
      name r.Inv.total_ffs
      (List.length r.Inv.mined)
      (List.length r.Inv.killed)
      (List.length r.Inv.unproved)
      (List.length r.Inv.proved)
      (nonconst r) r.Inv.k r.Inv.seconds
      (if last then "" else ",")
  in
  Printf.fprintf oc "{\n  \"cores\": [\n";
  core "tcore16" r16 false;
  core "tcore32" r32 false;
  core "tcore32_dft" rdft true;
  Printf.fprintf oc
    "  ],\n  \"jobs_invariant\": %b,\n  \"oracle_checked\": %d,\n\
    \  \"oracle_ok\": %b,\n  \"uc_delta\": %d,\n\
    \  \"peak_heap_bytes\": %d\n}\n"
    jobs_ok (List.length sample) oracle_ok uc_delta (peak_heap_bytes ());
  close_out oc;
  Format.printf "  wrote BENCH_invar.json@.";
  if
    not
      (jobs_ok && oracle_ok && uc_delta >= 1
      && nonconst r32 >= 1
      && List.length r16.Inv.proved > 0
      && List.length rdft.Inv.proved > 0)
  then begin
    prerr_endline "invar: gate violated (invariance/oracle/uc-delta/counts)";
    exit 1
  end

(* ---------------------------------------------------------------- *)
(* slice mode: cone-of-influence slicing gates (BENCH_slice.json)    *)
(* ---------------------------------------------------------------- *)

(* Gates for the olfu_slice engine, plus the every-flop SEU sweeps:
   (a) per core: the severed (hard/mission) backward slice-size
       distribution must improve on the structural cone (mean no
       larger), plus edge counts and the mission SCC condensation;
   (b) bit-identity on tcore16 — the whole point of the hard-constant
       discipline: the invariant proved set (with certificates) is
       identical sliced vs unsliced;
   (c) every-flop window-3 SEU sweeps of tcore16 and tcore32 (no
       sampling, no invariants), timed, must reproduce the pinned
       masked/protected/vulnerable/unknown counts.
   Run with: dune exec bench/main.exe -- slice *)
let slice_bench () =
  let module Sl = Olfu_slice.Slice in
  let module Sc = Olfu_safety.Classify in
  let module Seu = Olfu_safety.Seu in
  let module Inv = Olfu_invar.Invar in
  section "slice — constant-severed cone-of-influence gates";
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let machine nl mission =
    let flow = Olfu.Flow.run { rc with Olfu.Run_config.jobs = 4 } nl mission in
    Sc.bmc_machine flow.Olfu.Flow.mission_netlist
  in
  let m16 = machine (Lazy.force t16) (Lazy.force mission16) in
  let m32 = machine (Lazy.force t32) (Lazy.force mission32) in
  let dft = Soc.generate Soc.tcore32_dft in
  let mdft = machine dft (Olfu.Mission.of_soc Soc.tcore32_dft dft) in
  let edge_count (e : Sl.edges) =
    Array.fold_left (fun a s -> a + Array.length s) 0 e.Sl.supports
  in
  let core_stats name m =
    let g, secs = time (fun () -> Sl.get m) in
    let d e = Sl.dist_of (Sl.backward_sizes g e) in
    let ds = d g.Sl.structural
    and dh = d g.Sl.hard_edges
    and dm = d g.Sl.mission_edges in
    let sc = Sl.scc g.Sl.mission_edges (Array.length g.Sl.flops) in
    Format.printf
      "  %-12s flops %4d  edges s/h/m %d/%d/%d  slice mean s/h/m \
       %.1f/%.1f/%.1f  sccs %d  %5.2f s@."
      name (Array.length g.Sl.flops)
      (edge_count g.Sl.structural)
      (edge_count g.Sl.hard_edges)
      (edge_count g.Sl.mission_edges)
      ds.Sl.mean dh.Sl.mean dm.Sl.mean
      (Array.length sc.Sl.comps) secs;
    (name, g, ds, dh, dm, sc, secs)
  in
  let stats =
    [ core_stats "tcore16" m16; core_stats "tcore32" m32;
      core_stats "tcore32_dft" mdft ]
  in
  let severing_ok =
    List.for_all
      (fun (_, _, ds, dh, dm, _, _) ->
        dh.Sl.mean <= ds.Sl.mean +. 1e-9 && dm.Sl.mean <= dh.Sl.mean +. 1e-9)
      stats
  in
  (* (b) invariant proved set, certificates included *)
  let cands = Inv.mine m16 in
  let inv_s, inv_s_t =
    time (fun () -> Inv.prove ~jobs:4 ~sliced:true m16 cands)
  in
  let inv_f, inv_f_t =
    time (fun () -> Inv.prove ~jobs:4 ~sliced:false m16 cands)
  in
  let invar_identical = inv_s = inv_f in
  Format.printf
    "  invar cross-check (t16, %d candidates): sliced %.2f s vs full %.2f \
     s, identical %b@."
    (List.length cands) inv_s_t inv_f_t invar_identical;
  (* (c) every-flop SEU sweeps against pinned verdict counts *)
  let seu_window = 3 in
  let sweep name m pin =
    let r, secs =
      time (fun () -> Seu.run ~window:seu_window ~jobs:4 ~limit:0 m)
    in
    let counts =
      (r.Seu.masked, r.Seu.protected_, r.Seu.vulnerable, r.Seu.unknown)
    in
    let mpvu (a, b, c, d) = Printf.sprintf "%d/%d/%d/%d" a b c d in
    Format.printf
      "  full sweep (%s, %d flops, window %d): m/p/v/u %s (pinned %s) in \
       %.2f s@."
      name r.Seu.total_ffs seu_window (mpvu counts) (mpvu pin) secs;
    (r.Seu.total_ffs, mpvu counts, secs, counts = pin)
  in
  let f16, c16, t16s, ok16 = sweep "tcore16" m16 (128, 0, 301, 0) in
  let f32, c32, t32s, ok32 = sweep "tcore32" m32 (230, 0, 599, 0) in
  let pins_ok = ok16 && ok32 in
  let oc = open_out "BENCH_slice.json" in
  let dist_fields label (d : Sl.dist) =
    Printf.sprintf
      "\"%s\": { \"min\": %d, \"max\": %d, \"mean\": %.2f, \"median\": %d, \
       \"p90\": %d }"
      label d.Sl.min_ d.Sl.max_ d.Sl.mean d.Sl.median d.Sl.p90
  in
  Printf.fprintf oc "{\n  \"cores\": [\n";
  List.iteri
    (fun k (name, g, ds, dh, dm, sc, secs) ->
      Printf.fprintf oc
        "    { \"config\": %S, \"flops\": %d, \"edges_structural\": %d, \
         \"edges_hard\": %d, \"edges_mission\": %d, %s, %s, %s, \
         \"mission_sccs\": %d, \"seconds\": %.6f }%s\n"
        name
        (Array.length g.Sl.flops)
        (edge_count g.Sl.structural)
        (edge_count g.Sl.hard_edges)
        (edge_count g.Sl.mission_edges)
        (dist_fields "slice_structural" ds)
        (dist_fields "slice_hard" dh)
        (dist_fields "slice_mission" dm)
        (Array.length sc.Sl.comps)
        secs
        (if k < List.length stats - 1 then "," else ""))
    stats;
  Printf.fprintf oc
    "  ],\n  \"severing_ok\": %b,\n  \"invar_identical\": %b,\n\
    \  \"invar_candidates\": %d,\n  \"sweep_window\": %d,\n\
    \  \"full16_flops\": %d,\n  \"full16_mpvu\": %S,\n\
    \  \"full16_seconds\": %.6f,\n  \"full32_flops\": %d,\n\
    \  \"full32_mpvu\": %S,\n  \"full32_seconds\": %.6f,\n\
    \  \"pins_ok\": %b,\n  \"peak_heap_bytes\": %d\n}\n"
    severing_ok invar_identical (List.length cands) seu_window f16 c16 t16s
    f32 c32 t32s pins_ok (peak_heap_bytes ());
  close_out oc;
  Format.printf "  wrote BENCH_slice.json@.";
  if not (severing_ok && invar_identical && pins_ok) then begin
    prerr_endline "slice: gate violated (severing/invar identity/SEU pins)";
    exit 1
  end

let main () =
  Format.printf
    "OLFU reproduction harness — every table and figure of the paper@.";
  print_table1 ();
  print_fig1 ();
  print_fig2456 ();
  print_fig3 ();
  print_screening ();
  print_memmap ();
  print_coverage 200;
  print_tdf ();
  print_full_dft ();
  print_atpg_effort ();
  print_bmc_check ();
  print_pathdelay ();
  print_lint ();
  print_absint ();
  print_ablation_sweep ();
  print_ablation_ff_mode ();
  print_ablation_collapse ();
  print_ablation_scan_bufs ();
  print_ablation_podem_confirm ();
  run_benchmarks ();
  Format.printf "@.done.@."

(* ---------------------------------------------------------------- *)
(* serve mode: resident daemon gates (BENCH_serve.json)              *)
(* ---------------------------------------------------------------- *)

(* Gates for the olfu serve daemon:
   (a) a warm analyze of tcore32 through the daemon is a cache hit and
       takes < 0.5x the cold request (the acceptance floor is 2x;
       in practice the hit is orders of magnitude faster);
   (b) the daemon's bytes are identical to a fresh local execute of the
       same request;
   (c) sustained throughput on warm requests at connection concurrency
       1 / 2 / 4, as a protocol + dispatch overhead measure.
   Run with: dune exec bench/main.exe -- serve *)
let serve_bench () =
  let module Sv = Olfu_service in
  section "serve — resident analysis daemon gates";
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "olfu-b%d.sock" (Unix.getpid ()))
  in
  let server =
    Domain.spawn (fun () ->
        Sv.Server.serve { (Sv.Server.default ~socket) with workers = 4 })
  in
  let analyze32 id =
    Sv.Request.run ~id ~fmt:Sv.Request.Json ~jobs:4
      (Sv.Request.Config "tcore32")
      (Sv.Request.Analyze { paper = false })
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let rpc_exn conn req =
    match Sv.Client.rpc conn req with
    | Ok r -> r
    | Error e -> failwith ("serve bench rpc: " ^ e)
  in
  let conn =
    match Sv.Client.connect ~wait_seconds:10. socket with
    | Ok c -> c
    | Error e -> failwith ("serve bench connect: " ^ e)
  in
  let cold, cold_t = time (fun () -> rpc_exn conn (analyze32 1)) in
  let warm, warm_t = time (fun () -> rpc_exn conn (analyze32 2)) in
  Sv.Client.close conn;
  let speedup = cold_t /. Float.max warm_t 1e-9 in
  Format.printf
    "  analyze t32: cold %.2f s, warm %.4f s (%.0fx), cache_hit %b@."
    cold_t warm_t speedup warm.Sv.Response.cache_hit;
  (* (b) byte-identity against a fresh one-shot execution *)
  let local, _ =
    Sv.Service.execute (Sv.Session.create ()) (analyze32 1)
  in
  let identity_ok =
    local.Sv.Response.output = cold.Sv.Response.output
    && cold.Sv.Response.output = warm.Sv.Response.output
  in
  Format.printf "  daemon vs one-shot bytes identical: %b@." identity_ok;
  (* (c) warm-request throughput per connection concurrency *)
  let reqs_per_client = 50 in
  let throughput conc =
    let clients () =
      List.init conc (fun c ->
          Domain.spawn (fun () ->
              match Sv.Client.connect socket with
              | Error e -> failwith ("serve bench client: " ^ e)
              | Ok conn ->
                Fun.protect
                  ~finally:(fun () -> Sv.Client.close conn)
                  (fun () ->
                    for i = 1 to reqs_per_client do
                      ignore (rpc_exn conn (analyze32 ((c * 1000) + i)))
                    done)))
    in
    let ds, wall = time (fun () -> List.iter Domain.join (clients ())) in
    ignore ds;
    let rps = float_of_int (conc * reqs_per_client) /. wall in
    Format.printf "  warm throughput, %d conn: %7.0f req/s@." conc rps;
    (conc, rps)
  in
  let rates = List.map throughput [ 1; 2; 4 ] in
  (match
     Sv.Client.request ~wait_seconds:1. ~socket
       { Sv.Request.id = 0; body = Sv.Request.Shutdown }
   with
  | Ok _ -> ()
  | Error e -> failwith ("serve bench shutdown: " ^ e));
  Domain.join server;
  let oc = open_out "BENCH_serve.json" in
  Printf.fprintf oc
    "{\n  \"cold_seconds\": %.6f,\n  \"warm_seconds\": %.6f,\n\
    \  \"speedup\": %.1f,\n  \"warm_cache_hit\": %b,\n\
    \  \"identity_ok\": %b,\n  \"requests_per_client\": %d,\n\
    \  \"warm_rps\": { %s },\n  \"peak_heap_bytes\": %d\n}\n"
    cold_t warm_t speedup warm.Sv.Response.cache_hit identity_ok
    reqs_per_client
    (String.concat ", "
       (List.map (fun (c, r) -> Printf.sprintf "\"%d\": %.1f" c r) rates))
    (peak_heap_bytes ());
  close_out oc;
  Format.printf "  wrote BENCH_serve.json@.";
  if not (warm.Sv.Response.cache_hit && warm_t < 0.5 *. cold_t && identity_ok)
  then begin
    prerr_endline "serve: gate violated (cache hit / 2x warm speedup / identity)";
    exit 1
  end

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "fsim" then fsim_bench ()
  else if Array.length Sys.argv > 1 && Sys.argv.(1) = "implic" then
    implic_bench ()
  else if Array.length Sys.argv > 1 && Sys.argv.(1) = "obs" then
    obs_bench
      (Array.to_list (Array.sub Sys.argv 2 (Array.length Sys.argv - 2)))
  else if Array.length Sys.argv > 1 && Sys.argv.(1) = "safety" then
    safety_bench ()
  else if Array.length Sys.argv > 1 && Sys.argv.(1) = "invar" then
    invar_bench ()
  else if Array.length Sys.argv > 1 && Sys.argv.(1) = "slice" then
    slice_bench ()
  else if Array.length Sys.argv > 1 && Sys.argv.(1) = "serve" then
    serve_bench ()
  else main ()

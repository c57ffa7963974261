(* Reproduction harness and bench gates.

   With no argument this prints every table and figure of the paper next
   to the paper's numbers, then the extensions and the ablations from
   DESIGN.md.  With a mode argument (fsim, implic, obs, safety, invar,
   slice) it runs that mode's gates instead: it prints its rows, writes
   BENCH_<mode>.json and exits 1 when a gate fails.  Wall-clock figures
   for the user-facing paths come from benchmark/, not from here.

   Run with: dune exec bench/main.exe [-- MODE] *)

open Olfu_logic
open Olfu_netlist
open Olfu_fault
open Olfu_atpg
open Olfu_manip
open Olfu_soc
module B = Netlist.Builder
module J = Olfu_obs.Json
module Sc = Olfu_safety.Classify

let section title =
  Format.printf "@.==== %s ====@." title

(* Shared inputs, generated once. *)
let t32 = lazy (Soc.generate Soc.tcore32)
let t16 = lazy (Soc.generate Soc.tcore16)
let tdft = lazy (Soc.generate Soc.tcore32_dft)
let mission32 = lazy (Olfu.Mission.of_soc Soc.tcore32 (Lazy.force t32))
let mission16 = lazy (Olfu.Mission.of_soc Soc.tcore16 (Lazy.force t16))
let mission_dft = lazy (Olfu.Mission.of_soc Soc.tcore32_dft (Lazy.force tdft))

(* Every flow run here goes through the one Run_config record. *)
let rc = Olfu.Run_config.default

(* ---------------------------------------------------------------- *)
(* Shared core of the gate modes                                    *)
(* ---------------------------------------------------------------- *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* The one BENCH writer: [fields] plus the gate verdicts, provenance and
   the process's GC high-water mark (bytes) go to BENCH_<mode>.json.
   Each gate is named once: that name is its key in the "gates" object
   and the name printed before exit 1. *)
let emit mode ~gates fields =
  let file = Printf.sprintf "BENCH_%s.json" mode in
  J.to_file ~indent:true file
    (J.Obj
       (fields
       @ [
           ("gates", J.Obj (List.map (fun (g, ok) -> (g, J.Bool ok)) gates));
           ("git", J.Str (Olfu_obs.Manifest.git_describe ()));
           ("ocaml", J.Str Sys.ocaml_version);
           ( "recommended_domain_count",
             J.Int (Domain.recommended_domain_count ()) );
           ( "peak_heap_bytes",
             J.Int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
           );
         ]));
  Format.printf "  wrote %s@." file;
  match List.filter (fun (_, ok) -> not ok) gates with
  | [] -> ()
  | failed ->
    prerr_endline
      (Printf.sprintf "%s: gate violated: %s" mode
         (String.concat ", " (List.map fst failed)));
    exit 1

(* Min-of-N over configurations whose seconds a gate compares against
   each other.  Single timings on a shared host swing by several percent
   of scheduler noise, which is exactly the scale the monotone gates
   resolve, so each configuration keeps its best of [rounds] runs.
   Within a round the configurations run round-robin with a major
   collection before each timed run, so slow load drift and heap growth
   hit every configuration equally instead of billing the later ones for
   the garbage of the earlier ones.  The order rotates per round:
   periodic background load on a shared host can alias onto one slot of
   a fixed rotation, which min-of-N cannot filter out.  Returns (result,
   best seconds) per configuration, in the order of [configs]. *)
let min_of_n ~rounds configs run =
  let cs = Array.of_list configs in
  let n = Array.length cs in
  let best = Array.make n None in
  for round = 0 to rounds - 1 do
    for k = 0 to n - 1 do
      let i = (round + k) mod n in
      Gc.full_major ();
      let r, secs = time (fun () -> run cs.(i)) in
      match best.(i) with
      | Some (_, s) when s <= secs -> ()
      | _ -> best.(i) <- Some (r, secs)
    done
  done;
  Array.to_list (Array.map Option.get best)

(* Per-worker utilization of the last pool dispatch of [run], off the
   pool gauges of a separately traced (untimed) run. *)
let utilization run =
  let trace = Olfu_obs.Trace.create () in
  run trace;
  Option.value ~default:1.0
    (List.assoc_opt "pool.last_utilization" (Olfu_obs.Trace.gauges trace))

(* 1.10: the regression the monotone gates guard against is a 1.7x-4.8x
   inversion; run-to-run noise on a busy shared host reaches ~9% even on
   min-of-N *)
let monotone_tolerance = 1.10

(* Non-increasing seconds across growing pool sizes, within tolerance:
   the clamped configurations must at least stay flat; on a multi-core
   host they must speed up. *)
let rec non_increasing = function
  | a :: (b :: _ as tl) -> b <= a *. monotone_tolerance && non_increasing tl
  | _ -> true

(* The jobs values a scaling gate compares: the first of each distinct
   effective pool size.  On a host with fewer hardware threads than a
   jobs value, the pool clamps it, so two values can run on one pool
   size; their ratio compares two samples of one configuration, which
   is noise, not scaling.  Every value is still run, printed and
   recorded. *)
let scaling_jobs jobs =
  let sizes =
    List.map (fun j -> (Olfu_pool.Pool.with_pool ~jobs:j Olfu_pool.Pool.jobs, j)) jobs
  in
  List.filter_map
    (fun (size, j) -> if List.assoc size sizes = j then Some j else None)
    sizes

let jobs_list jobs = String.concat "/" (List.map string_of_int jobs)

(* What a recording trace sink costs a run, counted rather than raced:
   two timed runs of a ~0.1 s region swing by far more than the 2% gate
   on a shared host.  Each event kind is timed on a recording sink for
   at least 0.1 s, on a fresh sink per 1,000 events (a run takes
   hundreds of events, so the sink stays run-sized), once per process. *)
let event_seconds =
  lazy
    (let module Trace = Olfu_obs.Trace in
     let batch = 1_000 in
     let per_event probe =
       let t0 = Unix.gettimeofday () in
       let rec go n =
         let sink = Trace.create () in
         for _ = 1 to batch do
           probe sink
         done;
         let dt = Unix.gettimeofday () -. t0 in
         if dt < 0.1 then go (n + batch) else dt /. float_of_int (n + batch)
       in
       go 0
     in
     [
       ("span", per_event (fun s -> Trace.span s "e" ignore));
       ("record", per_event (fun s -> Trace.record s ~dur:0. "e"));
       ("add", per_event (fun s -> Trace.add s "e" 1));
       ("gauge", per_event (fun s -> Trace.gauge s "e" 1.));
     ])

let sink_gate_pct = 2.0

(* The share of a run of [seconds] that recording its [events] can have
   cost: 100 x events x the dearest kind's seconds per event / seconds.
   Prints the figures; returns whether the bound is under the gate, and
   the BENCH object recording it. *)
let sink_overhead ~events ~seconds =
  let costs = Lazy.force event_seconds in
  let dearest = List.fold_left (fun m (_, s) -> Float.max m s) 0. costs in
  let bound_pct = 100. *. float_of_int events *. dearest /. seconds in
  Format.printf "  sink event cost (ns): %s@."
    (String.concat ", "
       (List.map (fun (k, s) -> Printf.sprintf "%s %.0f" k (s *. 1e9)) costs));
  Format.printf
    "  sink overhead: %d events x %.0f ns = %.4f%% of %.3f s  (gate < %.0f%%)@."
    events (dearest *. 1e9) bound_pct seconds sink_gate_pct;
  ( bound_pct < sink_gate_pct,
    J.Obj
      [
        ("events", J.Int events); ("ns_per_event", J.Float (dearest *. 1e9));
        ("bound_pct", J.Float bound_pct); ("gate_pct", J.Float sink_gate_pct);
      ] )

type refutation = { checked : int; refuted : Fault.t list; timeouts : int }

(* The BMC refutation sampler: the first [n] faults of [fl], in index
   order, whose status passes [keep] (clock pins excepted) each get a
   3-cycle functional search on the machine [mnl].  A test found counts
   as a refutation only once it replays on the 4-valued simulator; each
   one is printed. *)
let refute ~observable ~conflict_limit ~n keep mnl fl =
  let checked = ref 0 and refuted = ref [] and timeouts = ref 0 in
  Flist.iteri
    (fun i f st ->
      if !checked < n && keep i st && f.Fault.site.Fault.pin <> Cell.Pin.Clk
      then begin
        incr checked;
        match
          Bmc.run ~cycles:3 ~observable_output:observable ~conflict_limit mnl f
        with
        | Bmc.Test stim ->
          if Bmc.confirm_test ~observable_output:observable mnl f stim then begin
            Format.printf "  REFUTED: %s@." (Fault.to_string mnl f);
            refuted := f :: !refuted
          end
        | Bmc.Unknown -> incr timeouts
        | Bmc.No_test_within _ -> ()
      end)
    fl;
  { checked = !checked; refuted = List.rev !refuted; timeouts = !timeouts }

(* The on-line machine that BMC and the invariant engine run on. *)
let machine nl mission =
  Sc.bmc_machine
    (Olfu.Flow.mission_netlist (Lazy.force nl) (Lazy.force mission))

(* ---------------------------------------------------------------- *)
(* Table I                                                          *)
(* ---------------------------------------------------------------- *)

(* Table I's flow, which the transition-delay extension reads too *)
let flow32 = lazy (Olfu.Flow.run rc (Lazy.force t32) (Lazy.force mission32))

let print_table1 () =
  section "Table I — on-line functionally untestable faults (tcore32)";
  Format.printf "%a@." (Olfu.Flow.pp_table1 ~paper:true) (Lazy.force flow32)

(* ---------------------------------------------------------------- *)
(* Fig. 1 — fault-category lattice                                  *)
(* ---------------------------------------------------------------- *)

let print_fig1 () =
  section "Fig. 1 — fault-category lattice (tcore16)";
  let s = Olfu.Categories.compute (Lazy.force t16) (Lazy.force mission16) in
  Format.printf "%a@." Olfu.Categories.pp s

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
  B.freeze_exn b

let debug_cell () =
  let b = B.create () in
  let fi = B.input b "FI" in
  let di = B.input b "DI" in
  let de = B.tie b Logic4.L0 in
  let m = B.mux2 b ~name:"dbg_mux" ~sel:de ~a:fi ~b:di in
  let ff = B.dff b ~name:"ff" ~d:m in
  let _ = B.output b "FO" ff in
  B.freeze_exn b

let const_dffr () =
  let b = B.create () in
  let d = B.tie b Logic4.L0 in
  let rstn = B.tie b Logic4.L1 in
  let ff = B.dffr b ~name:"areg" ~d ~rstn in
  let _ = B.output b "AOUT" ff in
  B.freeze_exn b

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

let print_cell name expect nl =
  let t = Untestable.analyze nl in
  let fl = Flist.full nl in
  let n = Untestable.classify t fl in
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
    (scan_cell ());
  section "Fig. 4 — debug cell with DE tied";
  print_cell "debug cell" "paper: DE s@0 and both DI faults untestable"
    (debug_cell ());
  section "Fig. 5 — DFF with constant 0";
  print_cell "constant DFFR" "paper: only D s@1 and Q s@1 remain testable"
    (const_dffr ());
  section "Fig. 6 — constant register propagating into address logic";
  print_cell "fig6 cone" "paper: downstream gate faults become untestable"
    (fig6_circuit ())

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

(* ---------------------------------------------------------------- *)
(* Sec. 4 — activity screening of debug inputs                      *)
(* ---------------------------------------------------------------- *)

let print_screening () =
  section "Sec. 4 — toggle screening for suspect (mission-unused) inputs";
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

(* ---------------------------------------------------------------- *)
(* Sec. 4 — memory map                                              *)
(* ---------------------------------------------------------------- *)

let print_memmap () =
  section "Sec. 4 — memory-map analysis (paper's ranges)";
  Format.printf "%a@." (Memmap.pp_report ~width:32) (Memmap.paper_case_study ());
  Format.printf
    "(paper text: 18 LSBs + bit 30; exact computation also frees bit 18)@."

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
  let summary, secs =
    time (fun () ->
        Olfu_sbst.Coverage.grade cfg nl sub (Olfu_sbst.Programs.suite cfg))
  in
  Format.printf "%a@." Olfu_sbst.Coverage.pp_summary summary;
  Format.printf "grading wall time: %.1f s@." secs;
  Format.printf
    "pruning gain: %+.1f points (paper: ~13 points on its mature suite)@."
    (100.
    *. (summary.Olfu_sbst.Coverage.pruned_coverage
       -. summary.Olfu_sbst.Coverage.raw_coverage))

(* ---------------------------------------------------------------- *)
(* Extension — transition-delay fault model (paper's conclusion)    *)
(* ---------------------------------------------------------------- *)

let print_tdf () =
  section "Extension — transition-delay faults (paper: future work)";
  Format.printf "%a@." Olfu.Tdf_flow.pp
    (Olfu.Tdf_flow.of_flow (Lazy.force flow32))

let print_full_dft () =
  section "Extension — full DfT population (BIST + boundary scan, Sec. 3)";
  let r = Olfu.Flow.run rc (Lazy.force tdft) (Lazy.force mission_dft) in
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
  let mnl = Sc.bmc_machine report.Olfu.Flow.mission_netlist in
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
    let attempts = ref 0 and tests = ref 0 and dead = ref 0 and unk = ref 0 in
    let (), secs =
      time (fun () ->
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
            !sample)
    in
    (!attempts, !tests, !dead, !unk, secs)
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
(* Extension — path-delay faults (the authors' MTV'08 companion)     *)
(* ---------------------------------------------------------------- *)

let print_pathdelay () =
  section "Extension — functionally untestable path-delay faults (ref [9])";
  let nl = Lazy.force t16 in
  let raw = Untestable.analyze nl in
  let c_raw = Pathdelay.classify ~max_paths:20_000 raw nl in
  let mission_nl = Olfu.Flow.mission_netlist nl (Lazy.force mission16) in
  let mission = Untestable.analyze mission_nl in
  let c_mis = Pathdelay.classify ~max_paths:20_000 mission mission_nl in
  Format.printf "  raw netlist:     %a@." Pathdelay.pp_census c_raw;
  Format.printf "  mission config:  %a@." Pathdelay.pp_census c_mis

(* ---------------------------------------------------------------- *)
(* Extension — bounded sequential refutation of the flow's verdicts  *)
(* ---------------------------------------------------------------- *)

let print_bmc_check () =
  section
    "Extension — BMC refutation attempts on flow verdicts (tcore16, 3 \
     cycles)";
  let mission = Lazy.force mission16 in
  let report = Olfu.Flow.run rc (Lazy.force t16) mission in
  let mnl = Sc.bmc_machine report.Olfu.Flow.mission_netlist in
  let o =
    refute
      ~observable:(Olfu.Mission.observed_in_field mission mnl)
      ~conflict_limit:15_000 ~n:24
      (fun i st -> i mod 401 = 0 && Status.is_undetectable st)
      mnl report.Olfu.Flow.flist
  in
  Format.printf
    "  %d sampled untestable verdicts, %d refuted by 3-cycle functional \
     search, %d search timeouts@."
    o.checked (List.length o.refuted) o.timeouts;
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

(* ---------------------------------------------------------------- *)
(* Static analysis — abstract interpretation of the SBST suite      *)
(* ---------------------------------------------------------------- *)

let print_absint () =
  section "Static analysis — absint over the SBST suite (tcore32)";
  let cfg = Soc.tcore32 in
  let summaries =
    List.map
      (fun p -> Olfu_absint.Absint.of_program cfg p)
      (Olfu_sbst.Programs.suite cfg)
  in
  let consts = Olfu_absint.Absint.constant_addr_bits ~width:cfg.Soc.xlen summaries in
  let check =
    Olfu_absint.Absint.cross_check ~width:cfg.Soc.xlen summaries
      (Memmap.paper_case_study ())
  in
  Format.printf
    "  %d programs analysed, %d constant address bits, map cross-check: %s@."
    (List.length summaries) (List.length consts)
    (if check.Olfu_absint.Absint.ok then "OK" else "VIOLATION")

(* ---------------------------------------------------------------- *)
(* Ablations (DESIGN.md section 5)                                  *)
(* ---------------------------------------------------------------- *)

let print_ablation_sweep () =
  section "Ablation — dead-logic sweep of the mission netlist";
  let mnl = Olfu.Flow.mission_netlist (Lazy.force t16) (Lazy.force mission16) in
  let _, removed = Sweep.sweep mnl in
  Format.printf
    "  mission netlist: %d nodes; a synthesis-style sweep would remove %d      (%.1f%%), the rest of the untestable faults sit in logic that stays@."
    (Netlist.length mnl) removed
    (100. *. float_of_int removed /. float_of_int (Netlist.length mnl))

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
      (* the flow's scan step: the first to classify the universe *)
      let fl = Flist.full nl in
      let scan = Scan_trace.prune nl fl in
      Format.printf "  %d buffers/link: scan %6d of %6d = %.1f%%@." bufs scan
        (Flist.size fl)
        (100. *. float_of_int scan /. float_of_int (Flist.size fl)))
    [ 0; 1; 2; 3 ]

let print_ablation_podem_confirm () =
  section "Ablation — implication-only vs PODEM confirmation (sampled)";
  let nl = scan_cell () in
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
  Format.printf "@.done.@."

(* ---------------------------------------------------------------- *)
(* fsim mode: fault-simulation throughput (BENCH_fsim.json)          *)
(* ---------------------------------------------------------------- *)

(* Measures the cone-limited PPSFP engine against the full-settle
   baseline on tcore32 (evenly spaced fault sample, 128 patterns) and
   cross-checks that both engines — and parallel runs — produce
   bit-identical fault statuses.  Run with: dune exec bench/main.exe -- fsim *)
let fsim_bench () =
  let module CF = Olfu_fsim.Comb_fsim in
  let module Trace = Olfu_obs.Trace in
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
  let run ?(trace = Trace.null) (engine, jobs) =
    let fl = Flist.create nl faults in
    (fl, CF.run ~engine ~jobs ~trace nl fl patterns)
  in
  let statuses fl = Array.init (Flist.size fl) (Flist.status fl) in
  let evals secs = float_of_int (sample_n * npat) /. secs in
  (* warm the per-netlist cone memo so steady-state throughput is measured *)
  ignore (run (CF.Cone, 1));
  let (flb, rb), base_secs =
    List.hd (min_of_n ~rounds:3 [ (CF.Full_settle, 1) ] (fun c -> run c))
  in
  Format.printf "  full-settle jobs=1: %.3f s  (%.0f fault-pat evals/s)@."
    base_secs (evals base_secs);
  let cone_jobs = [ 1; 2; 4 ] in
  let cone =
    List.map2
      (fun jobs ((fl, r), secs) ->
        let util =
          utilization (fun trace -> ignore (run ~trace (CF.Cone, jobs)))
        in
        Format.printf
          "  cone        jobs=%d: %.3f s  (%.0f fault-pat evals/s, \
           utilization %.2f)@."
          jobs secs (evals secs) util;
        (jobs, fl, r, secs, util))
      cone_jobs
      (min_of_n ~rounds:6
         (List.map (fun jobs -> (CF.Cone, jobs)) cone_jobs)
         (fun c -> run c))
  in
  let ok =
    List.for_all (fun (_, fl, _, _, _) -> statuses fl = statuses flb) cone
  in
  let cone_secs jobs =
    let _, _, _, secs, _ = List.find (fun (j, _, _, _, _) -> j = jobs) cone in
    secs
  in
  let speedup = base_secs /. cone_secs 4 in
  let compared = scaling_jobs cone_jobs in
  let speedup_monotone = non_increasing (List.map cone_secs compared) in
  Format.printf "  statuses identical across engines/jobs: %b@." ok;
  Format.printf "  speedup cone/jobs=4 vs full-settle/jobs=1: %.2fx@." speedup;
  Format.printf "  seconds monotone non-increasing over jobs %s: %b@."
    (jobs_list compared) speedup_monotone;
  (* recording's share of the jobs-1 cone run, from its event count *)
  let sink_ok, sink_obs =
    let trace = Trace.create () in
    ignore (run ~trace (CF.Cone, 1));
    sink_overhead ~events:(Trace.events trace) ~seconds:(cone_secs 1)
  in
  let throughput secs (r : CF.report) =
    [
      ("seconds", J.Float secs); ("evals_per_sec", J.Float (evals secs));
      ("detected", J.Int r.CF.detected); ("possibly", J.Int r.CF.possibly);
    ]
  in
  emit "fsim"
    ~gates:
      [
        ("statuses_identical", ok); ("speedup_monotone", speedup_monotone);
        ("sink_overhead", sink_ok);
      ]
    [
      ("netlist", J.Str "tcore32"); ("faults_sampled", J.Int sample_n);
      ("patterns", J.Int npat);
      ("baseline_full_settle_jobs1", J.Obj (throughput base_secs rb));
      ( "cone",
        J.List
          (List.map
             (fun (jobs, _, r, secs, util) ->
               J.Obj
                 ((("jobs", J.Int jobs) :: throughput secs r)
                 @ [ ("utilization", J.Float util) ]))
             cone) );
      ("speedup_4j_vs_baseline", J.Float speedup);
      ("monotone_tolerance", J.Float monotone_tolerance);
      ("monotone_jobs", J.List (List.map (fun j -> J.Int j) compared));
      ("obs", sink_obs);
    ]

(* ---------------------------------------------------------------- *)
(* implic mode: conflict-engine gain and cost (BENCH_implic.json)    *)
(* ---------------------------------------------------------------- *)

(* Runs the full mission flow on tcore32 with the static implication
   engine off and on (jobs 1, 2 and 4), reports classification
   wall-time, conflict-proof counts and the residue left for search,
   cross-checks jobs-invariance and the structural invariants, and
   spot-checks a sample of UC verdicts against the bounded model checker
   on the mission machine.  Run with: dune exec bench/main.exe -- implic *)
let implic_bench () =
  section "implic — conflict-engine gain on the mission flow (tcore32)";
  let nl = Lazy.force t32 in
  let mission = Lazy.force mission32 in
  let statuses (r : Olfu.Flow.report) =
    Array.init (Flist.size r.Olfu.Flow.flist) (Flist.status r.Olfu.Flow.flist)
  in
  let conflicts (r : Olfu.Flow.report) =
    Flist.count_status r.Olfu.Flow.flist
      (Status.Undetectable Status.Conflict)
  in
  let residue (r : Olfu.Flow.report) =
    Flist.size r.Olfu.Flow.flist - r.Olfu.Flow.total_olfu
  in
  let run ?(trace = rc.Olfu.Run_config.trace) (implic, jobs) =
    Olfu.Flow.run { rc with Olfu.Run_config.implic; jobs; trace } nl mission
  in
  ignore (run (true, 1) : Olfu.Flow.report) (* warm-up *);
  let configs =
    [ (false, 1); (true, 1); (false, 2); (true, 2); (false, 4); (true, 4) ]
  in
  let best =
    List.combine configs (min_of_n ~rounds:5 configs (fun c -> run c))
  in
  let name (implic, jobs) =
    Printf.sprintf "implic_%s_jobs%d" (if implic then "on" else "off") jobs
  in
  List.iter
    (fun (c, (r, secs)) ->
      Format.printf
        "  %-16s %7.3f s   classified %6d   UC %5d   residue %6d@." (name c)
        secs r.Olfu.Flow.total_olfu (conflicts r) (residue r))
    best;
  let report c = fst (List.assoc c best) in
  let compared = scaling_jobs [ 1; 2; 4 ] in
  let series implic =
    List.map (fun jobs -> snd (List.assoc (implic, jobs) best)) compared
  in
  let off1 = report (false, 1) and on1 = report (true, 1) in
  let gain = on1.Olfu.Flow.total_olfu - off1.Olfu.Flow.total_olfu in
  Format.printf "  gain over UT+UB: %d faults (%d conflict proofs)@." gain
    (conflicts on1);
  let jobs_ok =
    List.for_all
      (fun (implic, jobs) ->
        statuses (report (implic, jobs)) = statuses (report (implic, 1)))
      configs
  in
  let speedup_monotone =
    non_increasing (series false) && non_increasing (series true)
  in
  (* the engine only adds verdicts: anything UT+UB classifies stays
     classified with the engine on *)
  let monotone =
    let son = statuses on1 and soff = statuses off1 in
    Array.length son = Array.length soff
    && Array.for_all2
         (fun off on ->
           Status.is_undetectable on || not (Status.is_undetectable off))
         soff son
  in
  (* spot-check conflict proofs against the bounded model checker on the
     full mission machine (scan pins held functional) *)
  let mnl = Sc.bmc_machine on1.Olfu.Flow.mission_netlist in
  let oracle =
    refute
      ~observable:(Olfu.Mission.observed_in_field mission mnl)
      ~conflict_limit:20_000 ~n:6
      (fun _ st -> st = Status.Undetectable Status.Conflict)
      mnl on1.Olfu.Flow.flist
  in
  let util =
    List.map
      (fun jobs ->
        utilization (fun trace ->
            ignore (run ~trace (true, jobs) : Olfu.Flow.report)))
      [ 1; 2; 4 ]
  in
  Format.printf
    "  jobs invariant: %b   monotone over UT+UB: %b   oracle sample: %d \
     checked, %d refuted@."
    jobs_ok monotone oracle.checked (List.length oracle.refuted);
  Format.printf
    "  seconds monotone non-increasing over jobs %s: %b   utilization \
     j1/j2/j4: %s@."
    (jobs_list compared) speedup_monotone
    (String.concat "/" (List.map (Printf.sprintf "%.2f") util));
  emit "implic"
    ~gates:
      [
        ("gain_positive", gain > 0); ("jobs_invariant", jobs_ok);
        ("monotone", monotone); ("oracle_ok", oracle.refuted = []);
        ("speedup_monotone", speedup_monotone);
      ]
    [
      ("netlist", J.Str "tcore32");
      ( "runs",
        J.List
          (List.map
             (fun (c, (r, secs)) ->
               J.Obj
                 [
                   ("config", J.Str (name c)); ("seconds", J.Float secs);
                   ("classified", J.Int r.Olfu.Flow.total_olfu);
                   ("conflict", J.Int (conflicts r));
                   ("residue", J.Int (residue r));
                 ])
             (List.sort (fun (a, _) (b, _) -> compare a b) best)) );
      ("gain", J.Int gain); ("monotone_tolerance", J.Float monotone_tolerance);
      ("monotone_jobs", J.List (List.map (fun j -> J.Int j) compared));
      ( "utilization",
        J.Obj
          (List.map2
             (fun jobs u -> (Printf.sprintf "jobs%d" jobs, J.Float u))
             [ 1; 2; 4 ] util) );
      ("oracle_checked", J.Int oracle.checked);
    ]

(* ---------------------------------------------------------------- *)
(* obs mode: observability-layer gates (BENCH_obs.json)              *)
(* ---------------------------------------------------------------- *)

(* Gates for the olfu_obs layer on the mission flow (tcore16):
   (a) counter totals are invariant under jobs ∈ {1,2,4};
   (b) the run manifest and Chrome trace survive a strict JSON
       round-trip, and the manifest's per-engine and per-step seconds
       each sum to within 5% of the flow's wall time;
   (c) recording's share of the jobs-1 flow, counted events times the
       dearest event's cost, stays under 2% (the fsim mode's bound).
   Extra argv entries name a manifest and optionally a trace file
   written by the CLI (tools/check.sh passes what
   `olfu analyze --manifest --trace` wrote); both are re-parsed and
   schema-checked here.  Run with:
   dune exec bench/main.exe -- obs [MANIFEST [TRACE]] *)
let obs_bench files =
  let module Trace = Olfu_obs.Trace in
  let module Manifest = Olfu_obs.Manifest in
  let module Export = Olfu_obs.Export in
  section "obs — observability gates on the mission flow (tcore16)";
  let nl = Lazy.force t16 and mission = Lazy.force mission16 in
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
  let manifest =
    Manifest.make
      ~steps:(Olfu.Flow.manifest_steps r1)
      ~prep:r1.Olfu.Flow.prep ~wall_seconds:w1 s1
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
  let sink_ok, sink_obs =
    sink_overhead ~events:(Trace.events s1) ~seconds:w1
  in
  emit "obs"
    ~gates:
      [
        ("counters_jobs_invariant", counters_ok); ("manifest_ok", manifest_ok);
        ("trace_ok", trace_ok); ("external_files_ok", files_ok);
        ("sink_overhead", sink_ok);
      ]
    [
      ("netlist", J.Str "tcore16");
      ( "counters",
        J.Obj (List.map (fun (k, v) -> (k, J.Int v)) (Trace.counters s1)) );
      ("sink_overhead", sink_obs);
    ]

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
  let module T = Olfu_safety.Taxonomy in
  let module Seu = Olfu_safety.Seu in
  section "safety — safe-fault taxonomy gates";
  let window = 3 in
  let classify cfg nl mission ~jobs =
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
            seu_limit = 16;
            (* the invariant pass has its own bench mode (invar) with a
               dedicated UC-delta gate; keep this mode's gates pinned to
               the software/SEU axes *)
            invariants = false;
          }
        ~facts (Lazy.force nl) (Lazy.force mission),
      List.map snd named )
  in
  let cnt r c = List.assoc c r.Sc.counts in
  let r16, _ = classify Soc.tcore16 t16 mission16 ~jobs:1 in
  let r16j4, _ = classify Soc.tcore16 t16 mission16 ~jobs:4 in
  let r32, ts32 = classify Soc.tcore32 t32 mission32 ~jobs:4 in
  let rdft, _ = classify Soc.tcore32_dft tdft mission_dft ~jobs:4 in
  let cores = [ ("tcore16", r16); ("tcore32", r32); ("tcore32_dft", rdft) ] in
  List.iter
    (fun (name, (r : Sc.report)) ->
      Format.printf
        "  %-12s universe %6d  structural %5d  conflict %3d  software %4d  \
         SEU m/p/v/u %d/%d/%d/%d  %6.2f s  consistent %b@."
        name r.Sc.universe
        (cnt r T.Structural_uc)
        (cnt r T.Conflict_uc)
        (cnt r T.Software_safe)
        r.Sc.seu.Seu.masked r.Sc.seu.Seu.protected_ r.Sc.seu.Seu.vulnerable
        r.Sc.seu.Seu.unknown r.Sc.seconds (Sc.consistent r))
    cores;
  let seu_cls (r : Sc.report) =
    Array.map (fun x -> (x.Seu.ff, x.Seu.cls)) r.Sc.seu.Seu.results
  in
  let jobs_ok = r16.Sc.classes = r16j4.Sc.classes && seu_cls r16 = seu_cls r16j4 in
  let consistent_all = List.for_all (fun (_, r) -> Sc.consistent r) cores in
  (* (d) BMC oracle: a software-safe verdict means the activation
     condition contradicts the software facts — tie those facts into the
     BMC machine and the fault must stay untestable there *)
  let swnl =
    Script.apply r32.Sc.bmc_netlist
      (A.assume_script ~width:Soc.tcore32.Soc.xlen ts32 r32.Sc.bmc_netlist)
  in
  let oracle =
    refute ~observable:r32.Sc.observable ~conflict_limit:20_000 ~n:4
      (fun _ st -> st = Status.Undetectable Status.Software)
      swnl r32.Sc.flow.Olfu.Flow.flist
  in
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
  Format.printf
    "  oracle: %d checked, %d refuted   replay: %d flops x5, ok %b@."
    oracle.checked (List.length oracle.refuted) replay_checked !replay_ok;
  emit "safety"
    ~gates:
      [
        ("jobs_invariant", jobs_ok); ("consistent", consistent_all);
        ("software_gain_positive", sw_gain > 0);
        ("unmasked_flops_positive", unmasked32 > 0);
        ("oracle_ok", oracle.refuted = []); ("replay_ok", !replay_ok);
      ]
    [
      ("window", J.Int window);
      ( "cores",
        J.List
          (List.map
             (fun (name, (r : Sc.report)) ->
               J.Obj
                 [
                   ("config", J.Str name); ("universe", J.Int r.Sc.universe);
                   ("structural_uc", J.Int (cnt r T.Structural_uc));
                   ("conflict_uc", J.Int (cnt r T.Conflict_uc));
                   ("software_safe", J.Int (cnt r T.Software_safe));
                   ("unclassified", J.Int (cnt r T.Unclassified));
                   ("seu_checked", J.Int (Array.length r.Sc.seu.Seu.results));
                   ("seu_masked", J.Int r.Sc.seu.Seu.masked);
                   ("seu_protected", J.Int r.Sc.seu.Seu.protected_);
                   ("seu_vulnerable", J.Int r.Sc.seu.Seu.vulnerable);
                   ("seu_unknown", J.Int r.Sc.seu.Seu.unknown);
                   ("consistent", J.Bool (Sc.consistent r));
                   ("seconds", J.Float r.Sc.seconds);
                 ])
             cores) );
      ("software_gain", J.Int sw_gain); ("unmasked_flops", J.Int unmasked32);
      ("oracle_checked", J.Int oracle.checked);
      ("replay_checked", J.Int replay_checked);
    ]

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
  let module U = Untestable in
  section "invar — sequential invariant engine gates";
  let m16 = machine t16 mission16 in
  let m32 = machine t32 mission32 in
  let mdft = machine tdft mission_dft in
  let r16 = Inv.run ~jobs:1 m16 in
  let r16j4 = Inv.run ~jobs:4 m16 in
  let r32 = Inv.run ~jobs:4 m32 in
  let rdft = Inv.run ~jobs:4 mdft in
  let cores = [ ("tcore16", r16); ("tcore32", r32); ("tcore32_dft", rdft) ] in
  let nonconst r =
    List.length
      (List.filter (fun (i : Inv.invariant) -> not (Inv.is_const i.Inv.form))
         r.Inv.proved)
  in
  List.iter
    (fun (name, (r : Inv.report)) ->
      Format.printf
        "  %-12s flops %4d  mined %4d  killed %3d  unproved %3d  proved %4d \
         (non-const %d)  %6.2f s@."
        name r.Inv.total_ffs
        (List.length r.Inv.mined)
        (List.length r.Inv.killed)
        (List.length r.Inv.unproved)
        (List.length r.Inv.proved)
        (nonconst r) r.Inv.seconds)
    cores;
  let jobs_ok = r16.Inv.proved = r16j4.Inv.proved in
  (* (c) bounded oracle on 4 proved invariants, non-constant first *)
  let sample =
    let nc, c =
      List.partition
        (fun (i : Inv.invariant) -> not (Inv.is_const i.Inv.form))
        r32.Inv.proved
    in
    List.filteri (fun k _ -> k < 4) (nc @ c)
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
  let observable = Olfu.Mission.observed_in_field (Lazy.force mission32) m32 in
  let fl = Flist.full m32 in
  let _ : int = U.classify (U.analyze ~observable_output:observable m32) fl in
  let uc_delta =
    U.classify
      (U.analyze ~observable_output:observable
         ~consts:(Ternary.run ~assume:(Inv.assume_facts r32) m32)
         ~extra_edges:(Inv.edges r32) m32)
      fl
  in
  Format.printf
    "  jobs invariant: %b   oracle: %d checked, ok %b   UC-delta (t32): \
     %d@."
    jobs_ok (List.length sample) oracle_ok uc_delta;
  emit "invar"
    ~gates:
      [
        ("jobs_invariant", jobs_ok); ("oracle_ok", oracle_ok);
        ("uc_delta_positive", uc_delta >= 1);
        ( "proved_counts",
          nonconst r32 >= 1 && r16.Inv.proved <> [] && rdft.Inv.proved <> [] );
      ]
    [
      ( "cores",
        J.List
          (List.map
             (fun (name, (r : Inv.report)) ->
               J.Obj
                 [
                   ("config", J.Str name); ("flops", J.Int r.Inv.total_ffs);
                   ("mined", J.Int (List.length r.Inv.mined));
                   ("killed", J.Int (List.length r.Inv.killed));
                   ("unproved", J.Int (List.length r.Inv.unproved));
                   ("proved", J.Int (List.length r.Inv.proved));
                   ("nonconst_proved", J.Int (nonconst r));
                   ("k", J.Int r.Inv.k); ("seconds", J.Float r.Inv.seconds);
                 ])
             cores) );
      ("oracle_checked", J.Int (List.length sample));
      ("uc_delta", J.Int uc_delta);
    ]

(* ---------------------------------------------------------------- *)
(* slice mode: cone-of-influence slicing gates (BENCH_slice.json)    *)
(* ---------------------------------------------------------------- *)

(* Gates for the olfu_slice engine, plus the every-flop SEU sweeps:
   (a) per core: the severed (hard/mission) backward slice-size
       distribution must improve on the structural cone (mean no
       larger), and the graph must match its pins: the s/h/m edge
       counts, the mission SCC count and the three slice-size
       distributions, so a lost or extra edge fails the run;
   (b) bit-identity on tcore16 — the whole point of the hard-constant
       discipline: the invariant proved set (with certificates) is
       identical sliced vs unsliced;
   (c) every-flop window-3 SEU sweeps of tcore16 and tcore32 (no
       sampling, no invariants), timed, must reproduce the pinned
       masked/protected/vulnerable/unknown counts.
   Run with: dune exec bench/main.exe -- slice *)
let slice_bench () =
  let module Sl = Olfu_slice.Slice in
  let module Seu = Olfu_safety.Seu in
  let module Inv = Olfu_invar.Invar in
  section "slice — constant-severed cone-of-influence gates";
  let m16 = machine t16 mission16 in
  let m32 = machine t32 mission32 in
  let mdft = machine tdft mission_dft in
  let edge_count (e : Sl.edges) =
    Array.fold_left (fun a s -> a + Array.length s) 0 e.Sl.supports
  in
  let dist (d : Sl.dist) =
    J.Obj
      [
        ("min", J.Int d.Sl.min_); ("max", J.Int d.Sl.max_);
        ("mean", J.Float d.Sl.mean); ("median", J.Int d.Sl.median);
        ("p90", J.Int d.Sl.p90);
      ]
  in
  let core_stats (name, m, (pin_edges, pin_sccs, pin_dists)) =
    let g, secs = time (fun () -> Sl.get m) in
    let d e = Sl.dist_of (Sl.backward_sizes e) in
    let ds = d g.Sl.structural
    and dh = d g.Sl.hard_edges
    and dm = d g.Sl.mission_edges in
    let flops = Array.length g.Sl.flops in
    let sccs = Array.length g.Sl.mission_edges.Sl.cond.Sl.comps in
    let es = edge_count g.Sl.structural
    and eh = edge_count g.Sl.hard_edges
    and em = edge_count g.Sl.mission_edges in
    let pinned =
      (es, eh, em) = pin_edges
      && sccs = pin_sccs
      && List.for_all2
           (fun (d : Sl.dist) (lo, med, p90, hi, mean) ->
             (d.Sl.min_, d.Sl.median, d.Sl.p90, d.Sl.max_) = (lo, med, p90, hi)
             && Float.abs (d.Sl.mean -. mean) < 1e-6)
           [ ds; dh; dm ] pin_dists
    in
    Format.printf
      "  %-12s flops %4d  edges s/h/m %d/%d/%d  slice mean s/h/m \
       %.1f/%.1f/%.1f  sccs %d  pinned %b  %5.2f s@."
      name flops es eh em ds.Sl.mean dh.Sl.mean dm.Sl.mean sccs pinned secs;
    ( dh.Sl.mean <= ds.Sl.mean +. 1e-9 && dm.Sl.mean <= dh.Sl.mean +. 1e-9,
      pinned,
      J.Obj
        [
          ("config", J.Str name); ("flops", J.Int flops);
          ("edges_structural", J.Int es); ("edges_hard", J.Int eh);
          ("edges_mission", J.Int em); ("slice_structural", dist ds);
          ("slice_hard", dist dh); ("slice_mission", dist dm);
          ("mission_sccs", J.Int sccs); ("seconds", J.Float secs);
        ] )
  in
  (* pins per core: s/h/m edge counts, mission SCCs, and the s/h/m
     slice-size distributions as (min, median, p90, max, mean) *)
  let stats =
    List.map core_stats
      [
        ( "tcore16", m16,
          ( (93184, 84006, 83988), 109,
            [
              (1, 354, 355, 378, 316.254079254);
              (1, 275, 320, 320, 225.895104895);
              (1, 275, 320, 320, 225.895104895);
            ] ) );
        ( "tcore32", m32,
          ( (361558, 325506, 325472), 187,
            [
              (1, 693, 693, 733, 622.51628468);
              (1, 531, 626, 626, 455.805790109);
              (1, 531, 626, 626, 455.805790109);
            ] ) );
        ( "tcore32_dft", mdft,
          ( (362587, 325815, 325472), 294,
            [
              (1, 757, 760, 840, 643.912393162);
              (1, 531, 626, 638, 405.992521368);
              (1, 531, 626, 626, 403.814102564);
            ] ) );
      ]
  in
  let severing_ok = List.for_all (fun (ok, _, _) -> ok) stats in
  let graph_pins = List.for_all (fun (_, ok, _) -> ok) stats in
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
  let sweep name key m pin =
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
    ( counts = pin,
      [
        (key ^ "_flops", J.Int r.Seu.total_ffs);
        (key ^ "_mpvu", J.Str (mpvu counts));
        (key ^ "_seconds", J.Float secs);
      ] )
  in
  let ok16, full16 = sweep "tcore16" "full16" m16 (128, 0, 301, 0) in
  let ok32, full32 = sweep "tcore32" "full32" m32 (230, 0, 599, 0) in
  emit "slice"
    ~gates:
      [
        ("graph_pins", graph_pins); ("severing_ok", severing_ok);
        ("invar_identical", invar_identical);
        ("pins_ok", ok16 && ok32);
      ]
    ([
       ("cores", J.List (List.map (fun (_, _, j) -> j) stats));
       ("invar_candidates", J.Int (List.length cands));
       ("sweep_window", J.Int seu_window);
     ]
    @ full16 @ full32)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [] -> main ()
  | "fsim" :: _ -> fsim_bench ()
  | "implic" :: _ -> implic_bench ()
  | "obs" :: files -> obs_bench files
  | "safety" :: _ -> safety_bench ()
  | "invar" :: _ -> invar_bench ()
  | "slice" :: _ -> slice_bench ()
  | mode :: _ ->
    prerr_endline
      (Printf.sprintf
         "bench: unknown mode %S; modes: fsim, implic, obs [MANIFEST \
          [TRACE]], safety, invar, slice (no argument prints the paper's \
          tables)"
         mode);
    exit 2

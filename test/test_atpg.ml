open Olfu_logic
open Olfu_netlist
open Olfu_fault
open Olfu_atpg
module B = Netlist.Builder

let verdict_testable = function None -> true | Some _ -> false

let is_ut = function
  | Some (Status.Undetectable Status.Tied) -> true
  | _ -> false

let is_ub = function
  | Some (Status.Undetectable Status.Blocked) -> true
  | _ -> false

(* Fig. 2: mux-scan cell with SE tied low.  Expected: SI s@0/s@1 and
   SE s@0 untestable; SE s@1 is the only scan fault that must be kept. *)
let test_fig2_scan_cell () =
  let nl, ff = Test_support.scan_cell_mission () in
  let t = Untestable.analyze nl in
  let v f = Untestable.fault_verdict t f in
  Alcotest.(check bool) "SE branch s@0 tied" true
    (is_ut (v (Fault.sa0 ff (Cell.Pin.In 2))));
  Alcotest.(check bool) "SE branch s@1 kept" true
    (verdict_testable (v (Fault.sa1 ff (Cell.Pin.In 2))));
  Alcotest.(check bool) "SI pin s@0 blocked" true
    (is_ub (v (Fault.sa0 ff (Cell.Pin.In 1))));
  Alcotest.(check bool) "SI pin s@1 blocked" true
    (is_ub (v (Fault.sa1 ff (Cell.Pin.In 1))));
  let si = Netlist.find_exn nl "SI" in
  Alcotest.(check bool) "SI stem s@0 blocked" true
    (is_ub (v (Fault.sa0 si Cell.Pin.Out)));
  Alcotest.(check bool) "SI stem s@1 blocked" true
    (is_ub (v (Fault.sa1 si Cell.Pin.Out)));
  (* functional path stays testable *)
  Alcotest.(check bool) "D pin s@0 testable" true
    (verdict_testable (v (Fault.sa0 ff (Cell.Pin.In 0))));
  Alcotest.(check bool) "Q s@1 testable" true
    (verdict_testable (v (Fault.sa1 ff Cell.Pin.Out)))

(* Fig. 4: debug mux with DE tied low: DE s@0 and both DI faults
   untestable; DE s@1 kept. *)
let test_fig4_debug_cell () =
  let nl, mux, _ff = Test_support.debug_cell_mission () in
  let t = Untestable.analyze nl in
  let v f = Untestable.fault_verdict t f in
  Alcotest.(check bool) "DE s@0 tied" true
    (is_ut (v (Fault.sa0 mux (Cell.Pin.In 0))));
  Alcotest.(check bool) "DE s@1 kept" true
    (verdict_testable (v (Fault.sa1 mux (Cell.Pin.In 0))));
  let di = Netlist.find_exn nl "DI" in
  Alcotest.(check bool) "DI stem s@0 blocked" true
    (is_ub (v (Fault.sa0 di Cell.Pin.Out)));
  Alcotest.(check bool) "DI stem s@1 blocked" true
    (is_ub (v (Fault.sa1 di Cell.Pin.Out)));
  Alcotest.(check bool) "DI branch s@1 blocked" true
    (is_ub (v (Fault.sa1 mux (Cell.Pin.In 2))));
  Alcotest.(check bool) "FI path testable" true
    (verdict_testable (v (Fault.sa0 mux (Cell.Pin.In 1))))

(* Fig. 5: constant-0 DFFR: exactly two of the flop's eight faults remain
   testable (D s@1 and Q s@1). *)
let test_fig5_constant_dffr () =
  let nl, ff = Test_support.constant_dffr () in
  let t = Untestable.analyze nl in
  let v f = Untestable.fault_verdict t f in
  let testable =
    List.filter
      (fun f -> verdict_testable (v f))
      [
        Fault.sa0 ff Cell.Pin.Out; Fault.sa1 ff Cell.Pin.Out;
        Fault.sa0 ff Cell.Pin.Clk; Fault.sa1 ff Cell.Pin.Clk;
        Fault.sa0 ff (Cell.Pin.In 0); Fault.sa1 ff (Cell.Pin.In 0);
        Fault.sa0 ff (Cell.Pin.In 1); Fault.sa1 ff (Cell.Pin.In 1);
      ]
  in
  Alcotest.(check int) "2 testable faults" 2 (List.length testable);
  Alcotest.(check bool) "D s@1 kept" true
    (List.exists (Fault.equal (Fault.sa1 ff (Cell.Pin.In 0))) testable);
  Alcotest.(check bool) "Q s@1 kept" true
    (List.exists (Fault.equal (Fault.sa1 ff Cell.Pin.Out)) testable);
  (* class detail: Q s@0 is tied, reset-pin s@0 is blocked *)
  Alcotest.(check bool) "Q s@0 UT" true (is_ut (v (Fault.sa0 ff Cell.Pin.Out)));
  Alcotest.(check bool) "RSTN s@0 UB" true
    (is_ub (v (Fault.sa0 ff (Cell.Pin.In 1))));
  Alcotest.(check bool) "CK s@0 untestable" true
    (not (verdict_testable (v (Fault.sa0 ff Cell.Pin.Clk))))

(* Fig. 6: tying a constant register's output propagates untestability into
   the downstream cone. *)
let test_fig6_propagation () =
  let b = B.create () in
  let d = B.tie b Logic4.L0 in
  let rstn = B.tie b Logic4.L1 in
  let areg = B.dffr b ~name:"areg" ~d ~rstn in
  let x = B.input b "x" in
  let g1 = B.and2 b ~name:"g1" areg x in
  let g2 = B.or2 b ~name:"g2" g1 x in
  let _ = B.output b "y" g2 in
  let nl = B.freeze_exn b in
  let t = Untestable.analyze nl in
  let v f = Untestable.fault_verdict t f in
  (* g1 output is constant 0: its s@0 is tied; x's branch into g1 is
     blocked by the constant side input. *)
  Alcotest.(check bool) "g1 out s@0 tied" true
    (is_ut (v (Fault.sa0 (Netlist.find_exn nl "g1") Cell.Pin.Out)));
  Alcotest.(check bool) "x->g1 branch blocked" true
    (is_ub (v (Fault.sa1 (Netlist.find_exn nl "g1") (Cell.Pin.In 1))));
  (* the OR keeps working: its x input stays testable *)
  Alcotest.(check bool) "x->g2 branch testable" true
    (verdict_testable (v (Fault.sa1 (Netlist.find_exn nl "g2") (Cell.Pin.In 1))))

let test_ternary_modes () =
  (* Flop resets to 0 then loads a tied 1: steady-state calls it constant 1,
     the sound join mode calls it X (it held 0 for one cycle). *)
  let b = B.create () in
  let d = B.tie b Logic4.L1 in
  let rst = B.input b ~roles:[ Netlist.Reset ] "rstn" in
  let ff = B.dffr b ~name:"ff" ~d ~rstn:rst in
  let _ = B.output b "q" ff in
  let nl = B.freeze_exn b in
  let steady = Ternary.run ~ff_mode:Ternary.Steady_state nl in
  let join = Ternary.run ~ff_mode:Ternary.Reset_join nl in
  let cut = Ternary.run ~ff_mode:Ternary.Cut nl in
  Alcotest.(check bool) "steady: const 1" true
    (Logic4.equal (Ternary.const_of steady ff) Logic4.L1);
  Alcotest.(check bool) "join: X" true
    (Logic4.equal (Ternary.const_of join ff) Logic4.X);
  Alcotest.(check bool) "cut: X" true
    (Logic4.equal (Ternary.const_of cut ff) Logic4.X)

let test_ternary_oscillator () =
  (* q' = ~q free-runs: the trajectory never converges; the analysis must
     fall back to X rather than claim a constant. *)
  let b = B.create () in
  let rst = B.input b ~roles:[ Netlist.Reset ] "rstn" in
  let ff = B.dffr b ~name:"ff" ~d:0 ~rstn:rst in
  let inv = B.not_ b ff in
  B.set_fanin b ff [| inv; rst |];
  let _ = B.output b "q" ff in
  let nl = B.freeze_exn b in
  let t = Ternary.run ~ff_mode:Ternary.Steady_state ~max_iters:16 nl in
  Alcotest.(check bool) "did not converge" false t.Ternary.converged;
  Alcotest.(check bool) "q is X" true
    (Logic4.equal (Ternary.const_of t (Netlist.find_exn nl "ff")) Logic4.X)

let test_ternary_counts () =
  let nl, _ = Test_support.constant_dffr () in
  let t = Ternary.run nl in
  (* d tie, rstn tie, ff, and the output marker echo are all constant *)
  Alcotest.(check int) "constants" 4 (Ternary.num_const t)

let test_ternary_seq_assume () =
  (* A flop fed by a free input is X on its own; assuming it constant
     pins the state slot through the whole fixed point and the fact
     propagates into the fanout — the software-derived tie of Sec. 3.3
     expressed without editing the netlist. *)
  let b = B.create () in
  let d = B.input b "d" in
  let rst = B.input b ~roles:[ Netlist.Reset ] "rstn" in
  let ff = B.dffr b ~name:"ff" ~d ~rstn:rst in
  let g = B.not_ b ~name:"g" ff in
  let _ = B.output b "q" g in
  let nl = B.freeze_exn b in
  let plain = Ternary.run nl in
  Alcotest.(check bool) "free flop is X" true
    (Logic4.equal (Ternary.const_of plain ff) Logic4.X);
  let t = Ternary.run ~assume:[ (ff, Logic4.L1) ] nl in
  Alcotest.(check bool) "assumed flop held" true
    (Logic4.equal (Ternary.const_of t ff) Logic4.L1);
  Alcotest.(check bool) "fanout constant" true
    (Logic4.equal (Ternary.const_of t (Netlist.find_exn nl "g")) Logic4.L0);
  (* input assumptions still work through the same knob *)
  let ti = Ternary.run ~assume:[ (d, Logic4.L0) ] nl in
  Alcotest.(check bool) "assumed input reaches the flop" true
    (Logic4.equal (Ternary.const_of ti ff) Logic4.L0)

let test_observe_floating_output () =
  (* disconnecting the only observation point makes the whole cone dead *)
  let b = B.create () in
  let x = B.input b "x" in
  let g = B.not_ b ~name:"g" x in
  let o = B.output b "DO" g in
  let nl = B.freeze_exn b in
  let consts = (Ternary.run nl).Ternary.values in
  let all = Observe.run nl ~consts in
  Alcotest.(check bool) "observable with output" true
    (Observe.net all (Netlist.find_exn nl "g"));
  let floated = Observe.run ~observable_output:(fun i -> i <> o) nl ~consts in
  Alcotest.(check bool) "dead when floated" false
    (Observe.net floated (Netlist.find_exn nl "g"));
  Alcotest.(check bool) "input dead too" false (Observe.net floated x)

let test_podem_adder_all_detectable () =
  let nl = Test_support.full_adder () in
  Array.iter
    (fun f ->
      match Podem.run nl f with
      | Podem.Test asg ->
        Alcotest.(check bool)
          (Printf.sprintf "test validates for %s" (Fault.to_string nl f))
          true
          (Podem.check_test nl f asg)
      | Podem.Proved_untestable ->
        Alcotest.failf "adder fault %s called untestable" (Fault.to_string nl f)
      | Podem.Aborted ->
        Alcotest.failf "adder fault %s aborted" (Fault.to_string nl f))
    (Fault.universe nl)

let test_podem_redundant () =
  let nl = Test_support.redundant_circuit () in
  let bnode = Netlist.find_exn nl "b" in
  (match Podem.run nl (Fault.sa0 bnode Cell.Pin.Out) with
  | Podem.Proved_untestable -> ()
  | Podem.Test _ -> Alcotest.fail "redundant b s@0 got a test"
  | Podem.Aborted -> Alcotest.fail "aborted");
  (match Podem.run nl (Fault.sa1 bnode Cell.Pin.Out) with
  | Podem.Proved_untestable -> ()
  | _ -> Alcotest.fail "redundant b s@1 not proved");
  (* implication engine alone cannot see it *)
  let t = Untestable.analyze nl in
  Alcotest.(check bool) "implication misses redundancy" true
    (verdict_testable (Untestable.fault_verdict t (Fault.sa0 bnode Cell.Pin.Out)))

let test_podem_scan_cell () =
  let nl, ff = Test_support.scan_cell_mission () in
  (match Podem.run nl (Fault.sa1 ff (Cell.Pin.In 1)) with
  | Podem.Proved_untestable -> ()
  | _ -> Alcotest.fail "SI s@1 should be proved untestable");
  match Podem.run nl (Fault.sa1 ff (Cell.Pin.In 2)) with
  | Podem.Test _ -> ()
  | _ -> Alcotest.fail "SE s@1 should be testable"

let test_classify_flist () =
  let nl, _ = Test_support.constant_dffr () in
  let fl = Flist.full nl in
  let t = Untestable.analyze nl in
  let n = Untestable.classify t fl in
  Alcotest.(check bool) "classified some" true (n > 0);
  (* testable faults: D s@1, Q s@1, marker s@1 *)
  Alcotest.(check int) "ud count" (Flist.size fl - 3) n

let test_scoap_adder () =
  let nl = Test_support.full_adder () in
  let s = Scoap.run nl in
  let a = Netlist.find_exn nl "a" in
  Alcotest.(check int) "input cc0" 1 (Scoap.cc0 s a);
  Alcotest.(check int) "input cc1" 1 (Scoap.cc1 s a);
  let sum = Netlist.find_exn nl "sum_net" in
  Alcotest.(check int) "sum co" 0 (Scoap.co s sum);
  Alcotest.(check bool) "finite measures" true
    (Scoap.cc1 s (Netlist.find_exn nl "cout_net") < Scoap.infinity)

let test_scoap_tie () =
  let b = B.create () in
  let t0 = B.tie b Logic4.L0 in
  let x = B.input b "x" in
  let g = B.and2 b t0 x in
  let _ = B.output b "o" g in
  let nl = B.freeze_exn b in
  let s = Scoap.run nl in
  Alcotest.(check int) "tie0 cc1 infinite" Scoap.infinity (Scoap.cc1 s t0);
  Alcotest.(check int) "and cc1 infinite" Scoap.infinity (Scoap.cc1 s g)

(* Reset_join constants are sound: no post-reset simulation with random
   inputs ever contradicts a claimed constant. *)
let prop_reset_join_sound =
  QCheck2.Test.make ~count:15 ~name:"Reset_join constants never contradicted"
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (seed, stim_seed) ->
      let rng = Random.State.make [| seed |] in
      let nl = Test_support.random_seq_netlist rng ~inputs:3 ~gates:14 ~flops:4 in
      let t = Ternary.run ~ff_mode:Ternary.Reset_join nl in
      let srng = Random.State.make [| stim_seed |] in
      let sim = Olfu_sim.Seq_sim.create ~init:Logic4.X nl in
      let rstn = Netlist.find_exn nl "rstn" in
      (* reset pulse *)
      Array.iter
        (fun i -> Olfu_sim.Seq_sim.set_input sim i Logic4.L0)
        (Netlist.inputs nl);
      Olfu_sim.Seq_sim.step sim;
      Olfu_sim.Seq_sim.set_input sim rstn Logic4.L1;
      let ok = ref true in
      for _cycle = 1 to 12 do
        Array.iter
          (fun i ->
            if i <> rstn then
              Olfu_sim.Seq_sim.set_input sim i
                (Logic4.of_bool (Random.State.bool srng)))
          (Netlist.inputs nl);
        Olfu_sim.Seq_sim.settle sim;
        Netlist.iter_nodes
          (fun i _ ->
            let c = Ternary.const_of t i in
            if Logic4.is_binary c then
              match Logic4.to_bool (Olfu_sim.Seq_sim.value sim i) with
              | Some v -> if v <> Option.get (Logic4.to_bool c) then ok := false
              | None -> ())
          nl;
        Olfu_sim.Seq_sim.step sim
      done;
      !ok)

(* Soundness: whatever the implication engine calls untestable, PODEM must
   not find a test for (on the same full-access combinational view). *)
let prop_untestable_sound =
  QCheck2.Test.make ~count:25 ~name:"implication untestable => no PODEM test"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let nl = Test_support.random_comb_netlist rng ~inputs:4 ~gates:18 in
      let t = Untestable.analyze ~ff_mode:Ternary.Cut nl in
      let u = Fault.universe nl in
      let ok = ref true in
      Array.iter
        (fun f ->
          if f.Fault.site.Fault.pin <> Cell.Pin.Clk then
            match Untestable.fault_verdict t f with
            | Some _ -> (
              match Podem.run ~backtrack_limit:2_000 nl f with
              | Podem.Test asg ->
                if Podem.check_test nl f asg then ok := false
              | Podem.Proved_untestable | Podem.Aborted -> ())
            | None -> ())
        u;
      !ok)

(* Parallel classification is pure per fault: any jobs count yields the
   same statuses and the same changed-count. *)
let prop_classify_jobs_deterministic =
  QCheck2.Test.make ~count:15 ~name:"classify identical for any jobs"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let nl =
        if seed mod 2 = 0 then
          Test_support.random_comb_netlist rng ~inputs:4 ~gates:20
        else Test_support.random_seq_netlist rng ~inputs:3 ~gates:15 ~flops:3
      in
      let t = Untestable.analyze ~ff_mode:Ternary.Cut nl in
      let run jobs =
        let fl = Flist.full nl in
        let changed = Untestable.classify ~jobs t fl in
        (changed, Array.init (Flist.size fl) (Flist.status fl))
      in
      let reference = run 1 in
      List.for_all (fun jobs -> run jobs = reference) [ 2; 4 ])

(* Whenever PODEM claims a test, independent re-simulation confirms it. *)
let prop_podem_tests_valid =
  QCheck2.Test.make ~count:15 ~name:"PODEM tests re-validate"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let nl = Test_support.random_comb_netlist rng ~inputs:4 ~gates:15 in
      let u = Fault.universe nl in
      let ok = ref true in
      Array.iteri
        (fun i f ->
          if i mod 3 = 0 && f.Fault.site.Fault.pin <> Cell.Pin.Clk then
            match Podem.run ~backtrack_limit:2_000 nl f with
            | Podem.Test asg -> if not (Podem.check_test nl f asg) then ok := false
            | Podem.Proved_untestable | Podem.Aborted -> ())
        u;
      !ok)

(* Regression for the reconvergence trap: with x constant through a tie,
   OR(x, x)'s side-input blocking must not hide that a stem fault changes
   both inputs together. *)
let test_reconvergent_stem_sound () =
  let b = B.create () in
  let t1 = B.tie b Logic4.L1 in
  let buf = B.buf b ~name:"x" t1 in
  (* x is constant 1; g = OR(x, x) is constant 1 *)
  let g = B.or2 b ~name:"g" buf buf in
  let _ = B.output b "o" g in
  let nl = B.freeze_exn b in
  let t = Untestable.analyze nl in
  let x = Netlist.find_exn nl "x" in
  (* x s@0 flips both OR inputs: o flips; must NOT be called blocked *)
  (match Untestable.fault_verdict t (Fault.sa0 x Cell.Pin.Out) with
  | None -> ()
  | Some v ->
    Alcotest.failf "x s@0 wrongly classified %s" (Status.code v));
  (* the x s@1 fault is tied (x is constant 1) *)
  Alcotest.(check bool) "x s@1 tied" true
    (is_ut (Untestable.fault_verdict t (Fault.sa1 x Cell.Pin.Out)));
  (* each single branch fault alone IS blocked: the other input holds 1 *)
  Alcotest.(check bool) "branch g.I0 s@0 blocked" true
    (is_ub (Untestable.fault_verdict t (Fault.sa0 (Netlist.find_exn nl "g") (Cell.Pin.In 0))));
  (* and PODEM agrees on every verdict *)
  Array.iter
    (fun f ->
      if f.Fault.site.Fault.pin <> Cell.Pin.Clk then
        match Untestable.fault_verdict t f, Podem.run nl f with
        | Some _, Podem.Test asg when Podem.check_test nl f asg ->
          Alcotest.failf "unsound verdict on %s" (Fault.to_string nl f)
        | _ -> ())
    (Fault.universe nl)

(* --- transition-delay classification --- *)

(* The transition-fault reduction as it stood before the flow read it
   off a stuck-at classification: ask both same-site stuck-at verdicts
   of every transition fault.  The reference for [Tdf.untestable]. *)
let reference_tdf_verdict t (f : Tdf.t) =
  let sa0, sa1 = Tdf.as_stuck_pair f in
  match Untestable.fault_verdict t sa0 with
  | Some v -> Some v
  | None -> Untestable.fault_verdict t sa1

let reference_tdf_count t nl =
  Array.fold_left
    (fun acc f -> if reference_tdf_verdict t f <> None then acc + 1 else acc)
    0 (Tdf.universe nl)

(* [Flist.full nl] classified by [t], on [jobs] workers *)
let classified ?(jobs = 1) t nl =
  let fl = Flist.full nl in
  ignore (Untestable.classify ~jobs t fl : int);
  fl

(* The transition faults [Tdf.untestable] counts at one site: the
   classified list with every other site's faults reopened. *)
let tdf_at fl site =
  let only = Flist.copy fl in
  for i = 0 to Flist.size fl - 1 do
    if (Flist.fault fl i).Fault.site <> site then
      Flist.set_status only i Status.Not_analyzed
  done;
  Tdf.untestable only

let test_tdf_scan_cell_all_dead () =
  (* for transition faults even SE slow-to-rise is untestable: the tied SE
     net can never toggle *)
  let nl, ff = Test_support.scan_cell_mission () in
  let fl = classified (Untestable.analyze nl) nl in
  let at p = tdf_at fl { Fault.node = ff; pin = p } in
  Alcotest.(check int) "SE STR and STF dead" 2 (at (Cell.Pin.In 2));
  Alcotest.(check int) "SI STR and STF dead" 2 (at (Cell.Pin.In 1));
  (* the functional data path still carries transitions *)
  Alcotest.(check int) "D alive" 0 (at (Cell.Pin.In 0));
  let u = Tdf.untestable fl in
  Alcotest.(check bool) "counts sane" true (u > 0 && u < Flist.size fl)

let test_tdf_superset_of_stuck () =
  (* every pin with an untestable stuck-at has both its transition faults
     untestable, so the TDF fraction dominates *)
  let nl, _ = Test_support.constant_dffr () in
  let fl = classified (Untestable.analyze nl) nl in
  Alcotest.(check bool) "tdf >= sa" true
    (Tdf.untestable fl >= Flist.count fl ~f:Status.is_undetectable)

let test_tdf_half_tied_pin () =
  (* a pin tied to 1: its stuck-at-0 stays testable, but no transition
     fault survives — the pin can never be launched to 0 *)
  let b = B.create () in
  let x = B.input b "x" in
  let t1 = B.tie b Logic4.L1 in
  let g = B.and2 b ~name:"g" x t1 in
  let _ = B.output b "o" g in
  let nl = B.freeze_exn b in
  let t = Untestable.analyze nl in
  let gi = Netlist.find_exn nl "g" in
  Alcotest.(check bool) "sa0 testable" true
    (Untestable.fault_verdict t (Fault.sa0 gi (Cell.Pin.In 1)) = None);
  Alcotest.(check bool) "sa1 tied" true
    (is_ut (Untestable.fault_verdict t (Fault.sa1 gi (Cell.Pin.In 1))));
  let fl = classified t nl in
  Alcotest.(check int) "STR and STF dead" 2
    (tdf_at fl { Fault.node = gi; pin = Cell.Pin.In 1 });
  (* the free pin keeps both transitions *)
  Alcotest.(check int) "free pin alive" 0
    (tdf_at fl { Fault.node = gi; pin = Cell.Pin.In 0 })

let test_tdf_count_jobs_invariant () =
  let nl, _ = Test_support.scan_cell_mission () in
  let t = Untestable.analyze nl in
  let n1 = Tdf.untestable (classified ~jobs:1 t nl) in
  let n3 = Tdf.untestable (classified ~jobs:3 t nl) in
  Alcotest.(check int) "universe stable" (Array.length (Tdf.universe nl))
    (Flist.size (Flist.full nl));
  Alcotest.(check int) "count jobs-invariant" n1 n3;
  Alcotest.(check bool) "something classified" true (n1 > 0)

(* The count read off a classified list is the count of asking every
   transition fault's stuck-at pair, on random sequential netlists with
   tie cells under each flip-flop reading. *)
let prop_tdf_projection_is_reference =
  QCheck2.Test.make ~count:40 ~name:"tdf projection = per-fault pair verdicts"
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_bound 2))
    (fun (seed, mode) ->
      let rng = Random.State.make [| seed |] in
      let nl =
        Test_support.random_seq_netlist ~ties:true rng ~inputs:4 ~gates:30
          ~flops:4
      in
      let ff_mode =
        [| Ternary.Steady_state; Ternary.Reset_join; Ternary.Cut |].(mode)
      in
      let t = Untestable.analyze ~ff_mode nl in
      Tdf.untestable (classified t nl) = reference_tdf_count t nl)

let test_scoap_branch_and_hardest () =
  let nl = Test_support.full_adder () in
  let s = Scoap.run nl in
  (* observability of a branch is never better than its net's stem *)
  Netlist.iter_nodes
    (fun i nd ->
      Array.iteri
        (fun pin drv ->
          ignore pin;
          Alcotest.(check bool) "co <= branch" true
            (Scoap.co s drv <= Scoap.co_branch s i pin))
        nd.Netlist.fanin)
    nl;
  let h = Scoap.hardest s ~n:3 in
  Alcotest.(check int) "three hardest" 3 (List.length h);
  (* scores descending *)
  (match h with
  | (_, a) :: (_, b) :: (_, c) :: _ ->
    Alcotest.(check bool) "sorted" true (a >= b && b >= c)
  | _ -> Alcotest.fail "expected 3")

(* --- complete ATPG flow --- *)

let test_atpg_flow_adder () =
  let nl = Test_support.full_adder () in
  let fl = Flist.full nl in
  let r = Atpg_flow.run { Atpg_flow.default with seed = 5 } nl fl in
  Alcotest.(check int) "everything detected" (Flist.size fl)
    r.Atpg_flow.detected;
  Alcotest.(check int) "nothing redundant" 0 r.Atpg_flow.proved_untestable;
  Alcotest.(check int) "nothing aborted" 0 r.Atpg_flow.aborted;
  Alcotest.(check bool) "has patterns" true (r.Atpg_flow.patterns <> [])

let test_atpg_flow_redundant () =
  let nl = Test_support.redundant_circuit () in
  let fl = Flist.full nl in
  let r = Atpg_flow.run { Atpg_flow.default with seed = 5 } nl fl in
  (* b stem faults are redundant; everything else gets a test *)
  Alcotest.(check bool) "found redundancies" true
    (r.Atpg_flow.proved_untestable >= 2);
  Alcotest.(check int) "no aborts" 0 r.Atpg_flow.aborted;
  Alcotest.(check int) "accounted"
    (Flist.size fl)
    (Flist.count_status fl Status.Detected
    + Flist.count fl ~f:Status.is_undetectable)

let prop_atpg_flow_patterns_replay =
  QCheck2.Test.make ~count:10 ~name:"ATPG patterns re-detect under fsim"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let nl = Test_support.random_comb_netlist rng ~inputs:4 ~gates:15 in
      let fl = Flist.full nl in
      let r = Atpg_flow.run { Atpg_flow.default with seed } nl fl in
      (* replaying the produced pattern set on a fresh list reaches the
         same detected count *)
      let fl2 = Flist.full nl in
      ignore
        (Olfu_fsim.Comb_fsim.run nl fl2 (Array.of_list r.Atpg_flow.patterns)
          : Olfu_fsim.Comb_fsim.report);
      Flist.count_status fl2 Status.Detected = r.Atpg_flow.detected)

let test_atpg_compaction () =
  let nl = Test_support.full_adder () in
  let fl = Flist.full nl in
  let r = Atpg_flow.run { Atpg_flow.default with seed = 5 } nl fl in
  let compacted = Atpg_flow.compact nl r.Atpg_flow.patterns in
  Alcotest.(check bool) "smaller or equal" true
    (List.length compacted <= List.length r.Atpg_flow.patterns);
  (* same coverage when replayed *)
  let fl2 = Flist.full nl in
  ignore
    (Olfu_fsim.Comb_fsim.run nl fl2 (Array.of_list compacted)
      : Olfu_fsim.Comb_fsim.report);
  Alcotest.(check int) "coverage preserved" r.Atpg_flow.detected
    (Flist.count_status fl2 Status.Detected);
  (* the adder needs more than one pattern but far fewer than 64 *)
  Alcotest.(check bool) "meaningfully compacted" true
    (List.length compacted < 20 && List.length compacted >= 3)

(* --- path-delay identification --- *)

let test_pathdelay_adder () =
  let nl = Test_support.full_adder () in
  let t = Untestable.analyze nl in
  let c = Pathdelay.classify t nl in
  Alcotest.(check bool) "paths found" true (c.Pathdelay.enumerated > 5);
  Alcotest.(check int) "all sensitizable" 0 c.Pathdelay.untestable_paths

let test_pathdelay_blocked () =
  (* a path through a gate whose side input is tied to the controlling
     value is untestable *)
  let b = B.create () in
  let x = B.input b "x" in
  let t0 = B.tie b Logic4.L0 in
  let g = B.and2 b ~name:"g" x t0 in
  let h = B.or2 b ~name:"h" g x in
  let _ = B.output b "o" h in
  let nl = B.freeze_exn b in
  let t = Untestable.analyze nl in
  let paths = Pathdelay.enumerate nl in
  let via_g =
    List.filter (fun p -> List.exists (fun (s, _) -> Some "g" = Netlist.name nl s) p.Pathdelay.hops) paths
  in
  Alcotest.(check bool) "some paths via g" true (via_g <> []);
  List.iter
    (fun p ->
      Alcotest.(check bool) "blocked path untestable" true
        (Pathdelay.untestable t p))
    via_g;
  (* the direct x->h path stays testable *)
  let direct =
    List.filter
      (fun p ->
        p.Pathdelay.launch = Netlist.find_exn nl "x"
        && List.length p.Pathdelay.hops = 2
        && not (List.exists (fun (s, _) -> Some "g" = Netlist.name nl s) p.Pathdelay.hops))
      paths
  in
  Alcotest.(check bool) "direct path exists" true (direct <> []);
  List.iter
    (fun p ->
      Alcotest.(check bool) "direct path testable" false
        (Pathdelay.untestable t p))
    direct

let test_pathdelay_scan_paths_dead () =
  (* mission configuration kills every path through the scan mux *)
  let nl, _ff = Test_support.scan_cell_mission () in
  let t = Untestable.analyze nl in
  let si = Netlist.find_exn nl "SI" in
  let paths = Pathdelay.enumerate nl in
  let from_si = List.filter (fun p -> p.Pathdelay.launch = si) paths in
  Alcotest.(check bool) "si paths exist" true (from_si <> []);
  List.iter
    (fun p ->
      Alcotest.(check bool) "scan path untestable" true
        (Pathdelay.untestable t p))
    from_si

let test_pathdelay_cap () =
  let nl = Lazy.force (lazy (Test_support.full_adder ())) in
  let c = Pathdelay.classify ~max_paths:3 (Untestable.analyze nl) nl in
  Alcotest.(check int) "capped" 3 c.Pathdelay.enumerated;
  Alcotest.(check bool) "flagged" true c.Pathdelay.truncated

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "atpg"
    [
      ( "soundness regressions",
        [
          Alcotest.test_case "reconvergent stem" `Quick
            test_reconvergent_stem_sound;
        ] );
      ( "paper figures",
        [
          Alcotest.test_case "fig2 scan cell" `Quick test_fig2_scan_cell;
          Alcotest.test_case "fig4 debug cell" `Quick test_fig4_debug_cell;
          Alcotest.test_case "fig5 constant dffr" `Quick test_fig5_constant_dffr;
          Alcotest.test_case "fig6 propagation" `Quick test_fig6_propagation;
        ] );
      ( "ternary",
        [
          Alcotest.test_case "ff modes" `Quick test_ternary_modes;
          Alcotest.test_case "oscillator" `Quick test_ternary_oscillator;
          Alcotest.test_case "counts" `Quick test_ternary_counts;
          Alcotest.test_case "seq assume" `Quick test_ternary_seq_assume;
        ] );
      ( "observe",
        [ Alcotest.test_case "floating output" `Quick test_observe_floating_output ] );
      ( "podem",
        [
          Alcotest.test_case "adder detectable" `Quick
            test_podem_adder_all_detectable;
          Alcotest.test_case "redundancy proved" `Quick test_podem_redundant;
          Alcotest.test_case "scan cell" `Quick test_podem_scan_cell;
        ] );
      ( "classify",
        [ Alcotest.test_case "flist integration" `Quick test_classify_flist ] );
      ( "scoap",
        [
          Alcotest.test_case "adder" `Quick test_scoap_adder;
          Alcotest.test_case "tie" `Quick test_scoap_tie;
        ] );
      ( "tdf",
        [
          Alcotest.test_case "scan cell all dead" `Quick
            test_tdf_scan_cell_all_dead;
          Alcotest.test_case "superset of stuck" `Quick
            test_tdf_superset_of_stuck;
          Alcotest.test_case "half-tied pin" `Quick test_tdf_half_tied_pin;
          Alcotest.test_case "count jobs invariant" `Quick
            test_tdf_count_jobs_invariant;
          qt prop_tdf_projection_is_reference;
        ] );
      ( "scoap extras",
        [
          Alcotest.test_case "branch + hardest" `Quick
            test_scoap_branch_and_hardest;
        ] );
      ( "atpg flow",
        [
          Alcotest.test_case "adder complete" `Quick test_atpg_flow_adder;
          Alcotest.test_case "redundancies" `Quick test_atpg_flow_redundant;
          Alcotest.test_case "compaction" `Quick test_atpg_compaction;
          qt prop_atpg_flow_patterns_replay;
        ] );
      ( "path delay",
        [
          Alcotest.test_case "adder sensitizable" `Quick test_pathdelay_adder;
          Alcotest.test_case "blocked side input" `Quick test_pathdelay_blocked;
          Alcotest.test_case "scan paths dead" `Quick
            test_pathdelay_scan_paths_dead;
          Alcotest.test_case "cap" `Quick test_pathdelay_cap;
        ] );
      ( "properties",
        [
          qt prop_untestable_sound; qt prop_podem_tests_valid;
          qt prop_reset_join_sound; qt prop_classify_jobs_deterministic;
        ] );
    ]

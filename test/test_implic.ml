open Olfu_netlist
open Olfu_fault
open Olfu_atpg
module B = Netlist.Builder

(* y = AND(x, NOT x): always 0, but the ternary constants cannot see the
   correlation — only the implication closure can. *)
let contradiction_netlist () =
  let b = B.create () in
  let x = B.input b "x" in
  let w = B.not_ b ~name:"w" x in
  let y = B.and2 b ~name:"y" w x in
  let _ = B.output b "o" y in
  B.freeze_exn b

(* --- database construction --- *)

let test_build_stats () =
  let nl = contradiction_netlist () in
  let consts = (Ternary.run nl).Ternary.values in
  let db = Implic.build ~consts nl in
  let s = Implic.stats db in
  Alcotest.(check int) "two literals per node" (2 * Netlist.length nl)
    s.Implic.literals;
  Alcotest.(check bool) "direct edges exist" true (s.Implic.direct_edges > 0);
  Alcotest.(check bool) "learning bounded" true
    (s.Implic.learn_spent <= s.Implic.learn_budget + 64)

let test_impossible_literal () =
  let nl = contradiction_netlist () in
  let consts = (Ternary.run nl).Ternary.values in
  let db = Implic.build ~consts nl in
  let scr = Implic.Scratch.create db in
  let y = Netlist.find_exn nl "y" in
  Alcotest.(check bool) "y=1 impossible" true (Implic.impossible db scr y true);
  Alcotest.(check bool) "y=0 possible" false (Implic.impossible db scr y false);
  let x = Netlist.find_exn nl "x" in
  Alcotest.(check bool) "x=1 fine" false (Implic.impossible db scr x true);
  Alcotest.(check bool) "x=0 fine" false (Implic.impossible db scr x false)

let test_conflict_nets () =
  let nl = contradiction_netlist () in
  let consts = (Ternary.run nl).Ternary.values in
  let db = Implic.build ~consts nl in
  let scr = Implic.Scratch.create db in
  let y = Netlist.find_exn nl "y" in
  Alcotest.(check bool) "y reported" true
    (List.mem (y, true) (Implic.conflict_nets db scr));
  (* ternary leaves y unknown — the conflict is genuinely the closure's *)
  Alcotest.(check bool) "ternary blind" false
    (Olfu_logic.Logic4.is_binary consts.(y))

let test_assume_extend () =
  let nl = contradiction_netlist () in
  let consts = (Ternary.run nl).Ternary.values in
  let db = Implic.build ~consts nl in
  let scr = Implic.Scratch.create db in
  let x = Netlist.find_exn nl "x" in
  let w = Netlist.find_exn nl "w" in
  Alcotest.(check bool) "x=1 consistent" true
    (Implic.assume db scr [ Implic.lit x true ]);
  Alcotest.(check bool) "implies w=0" true
    (Olfu_logic.Logic4.equal (Implic.implied scr w) Olfu_logic.Logic4.L0);
  Alcotest.(check bool) "extend w=1 contradicts" false
    (Implic.extend db scr [ Implic.lit w true ])

(* --- conflict verdicts --- *)

let test_verdict_stem_conflict () =
  let nl = contradiction_netlist () in
  let t = Untestable.analyze ~ff_mode:Ternary.Cut nl in
  let y = Netlist.find_exn nl "y" in
  Alcotest.(check bool) "y sa0 conflict" true
    (Untestable.fault_verdict t (Fault.sa0 y Cell.Pin.Out)
    = Some (Status.Undetectable Status.Conflict));
  (* y stuck-at-1 is eminently testable: any pattern observes it *)
  Alcotest.(check bool) "y sa1 open" true
    (Untestable.fault_verdict t (Fault.sa1 y Cell.Pin.Out) = None)

let test_verdict_in_pin_conflict () =
  (* excitation w=1 plus the AND's necessary side x=1 close into x=0/x=1 *)
  let nl = contradiction_netlist () in
  let t = Untestable.analyze ~ff_mode:Ternary.Cut nl in
  let y = Netlist.find_exn nl "y" in
  Alcotest.(check bool) "w-pin sa0 conflict" true
    (Untestable.fault_verdict t (Fault.sa0 y (Cell.Pin.In 0))
    = Some (Status.Undetectable Status.Conflict))

let test_verdict_dominator_conflict () =
  (* the fault on stem s must propagate through d = AND(s, x); x lies
     outside s's cone, so x=1 is necessary — but exciting s=1 implies
     x=0 through the inverter *)
  let b = B.create () in
  let x = B.input b "x" in
  let s = B.not_ b ~name:"s" x in
  let d = B.and2 b ~name:"d" s x in
  let _ = B.output b "o" d in
  let nl = B.freeze_exn b in
  let t = Untestable.analyze ~ff_mode:Ternary.Cut nl in
  let s_ = Netlist.find_exn nl "s" in
  Alcotest.(check bool) "s sa0 conflict" true
    (Untestable.fault_verdict t (Fault.sa0 s_ Cell.Pin.Out)
    = Some (Status.Undetectable Status.Conflict))

(* --- global post-dominators --- *)

let test_stem_dominators_chain () =
  let b = B.create () in
  let x = B.input b "x" in
  let g = B.not_ b ~name:"g" x in
  let h = B.buf b ~name:"h" g in
  let o = B.output b "o" h in
  let nl = B.freeze_exn b in
  let an = Analysis.get nl in
  let s = Analysis.Scratch.create an in
  Alcotest.(check (list int)) "chain of x"
    [ Netlist.find_exn nl "g"; Netlist.find_exn nl "h"; o ]
    (Array.to_list (Analysis.stem_dominators an s x))

let test_stem_dominators_diamond () =
  let b = B.create () in
  let x = B.input b "x" in
  let l = B.buf b ~name:"l" x in
  let r = B.not_ b ~name:"r" x in
  let m = B.and2 b ~name:"m" l r in
  let o = B.output b "o" m in
  let nl = B.freeze_exn b in
  let an = Analysis.get nl in
  let s = Analysis.Scratch.create an in
  (* neither diamond arm dominates; the reconvergence gate does *)
  Alcotest.(check (list int)) "diamond reconverges"
    [ Netlist.find_exn nl "m"; o ]
    (Array.to_list (Analysis.stem_dominators an s x));
  Alcotest.(check (list int)) "arm chains through m"
    [ Netlist.find_exn nl "m"; o ]
    (Array.to_list (Analysis.stem_dominators an s (Netlist.find_exn nl "l")))

let test_stem_dominators_fanout_to_ff () =
  (* an edge into a flip-flop reaches the virtual sink directly, so a
     stem feeding both a gate and a flip-flop has no dominator *)
  let b = B.create () in
  let x = B.input b "x" in
  let g = B.not_ b ~name:"g" x in
  let _ff = B.dff b ~name:"ff" ~d:g in
  let h = B.buf b ~name:"h" g in
  let _ = B.output b "o" h in
  let nl = B.freeze_exn b in
  let an = Analysis.get nl in
  let s = Analysis.Scratch.create an in
  Alcotest.(check (list int)) "capture credit cuts the chain" []
    (Array.to_list (Analysis.stem_dominators an s (Netlist.find_exn nl "g")))

(* --- soundness: conflict verdicts vs search and simulation --- *)

let prop_conflict_sound =
  QCheck2.Test.make ~count:20 ~name:"conflict => PODEM fails, fsim silent"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let nl = Test_support.random_comb_netlist rng ~inputs:4 ~gates:18 in
      let t = Untestable.analyze ~ff_mode:Ternary.Cut nl in
      let conflict_faults =
        Array.to_list (Fault.universe nl)
        |> List.filter (fun f ->
               f.Fault.site.Fault.pin <> Cell.Pin.Clk
               && Untestable.fault_verdict t f
                  = Some (Status.Undetectable Status.Conflict))
      in
      let ok = ref true in
      List.iter
        (fun f ->
          match Podem.run ~backtrack_limit:10_000 nl f with
          | Podem.Test asg ->
            if Podem.check_test nl f asg then ok := false
          | Podem.Proved_untestable | Podem.Aborted -> ())
        conflict_faults;
      if conflict_faults <> [] then begin
        let fl = Flist.create nl (Array.of_list conflict_faults) in
        let srcs = Array.append (Netlist.inputs nl) (Netlist.seq_nodes nl) in
        let pats =
          Array.init 64 (fun _ ->
              Array.map
                (fun _ ->
                  Olfu_logic.Logic4.of_bool (Random.State.bool rng))
                srcs)
        in
        ignore
          (Olfu_fsim.Comb_fsim.run nl fl pats : Olfu_fsim.Comb_fsim.report);
        if Flist.count_status fl Status.Detected > 0 then ok := false
      end;
      !ok)

(* The prefix lemma behind the output-pin shortcut of the conflict
   verdict: a literal [Implic.impossible] calls possible closes without
   contradiction on any smaller budget too.  Without learning, the
   learned impossible literals do not answer first. *)
let prop_possible_literal_closes =
  QCheck2.Test.make ~count:30 ~name:"possible literal => small closure ok"
    QCheck2.Gen.(pair (int_bound 1_000_000) bool)
    (fun (seed, learn) ->
      let rng = Random.State.make [| seed |] in
      let nl =
        Test_support.random_seq_netlist ~ties:true ~all_kinds:true rng
          ~inputs:4 ~gates:40 ~flops:4
      in
      let db =
        Implic.build
          ~learn_depth:(if learn then 2 else 0)
          ~consts:(Ternary.run nl).Ternary.values nl
      in
      let s = Implic.Scratch.create db and s2 = Implic.Scratch.create db in
      let ok = ref true in
      for net = 0 to Netlist.length nl - 1 do
        List.iter
          (fun v ->
            if
              (not (Implic.impossible db s net v))
              && not (Implic.assume ~budget:128 db s2 [ Implic.lit net v ])
            then ok := false)
          [ false; true ]
      done;
      !ok)

(* Why the flow's observation step needs no conflict pass: of the faults
   an implication-engine classification leaves open with every output
   observed, unobserving some outputs lets the engine prove exactly what
   structural verdicts alone prove. *)
let prop_unobserving_adds_no_conflict =
  QCheck2.Test.make ~count:40 ~name:"unobserved outputs: no new UC"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let nl =
        Test_support.random_seq_netlist ~ties:true ~all_kinds:true rng
          ~inputs:4 ~gates:30 ~flops:4
      in
      let consts = Ternary.run nl in
      let fl = Flist.full nl in
      ignore
        (Untestable.classify ~jobs:1 (Untestable.analyze ~consts nl) fl : int);
      let hidden =
        Array.to_list (Netlist.outputs nl)
        |> List.filter (fun _ -> Random.State.bool rng)
      in
      let observable o = not (List.mem o hidden) in
      let statuses implic =
        let fl = Flist.copy fl in
        ignore
          (Untestable.classify ~jobs:1
             (Untestable.analyze ~consts ~observable_output:observable ~implic
                nl)
             fl
            : int);
        List.init (Flist.size fl) (Flist.status fl)
      in
      List.equal Status.equal (statuses true) (statuses false))

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "implic"
    [
      ( "database",
        [
          Alcotest.test_case "build stats" `Quick test_build_stats;
          Alcotest.test_case "impossible literal" `Quick
            test_impossible_literal;
          Alcotest.test_case "conflict nets" `Quick test_conflict_nets;
          Alcotest.test_case "assume/extend" `Quick test_assume_extend;
        ] );
      ( "verdicts",
        [
          Alcotest.test_case "stem conflict" `Quick test_verdict_stem_conflict;
          Alcotest.test_case "in-pin conflict" `Quick
            test_verdict_in_pin_conflict;
          Alcotest.test_case "dominator conflict" `Quick
            test_verdict_dominator_conflict;
        ] );
      ( "dominators",
        [
          Alcotest.test_case "chain" `Quick test_stem_dominators_chain;
          Alcotest.test_case "diamond" `Quick test_stem_dominators_diamond;
          Alcotest.test_case "ff capture credit" `Quick
            test_stem_dominators_fanout_to_ff;
        ] );
      ("soundness", [ qt prop_conflict_sound ]);
      ( "shortcuts",
        [ qt prop_possible_literal_closes; qt prop_unobserving_adds_no_conflict ]
      );
    ]

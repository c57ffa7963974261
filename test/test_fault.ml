open Olfu_netlist
open Olfu_fault
module B = Netlist.Builder

let test_universe_counts () =
  (* A single 2-input AND with two inputs and one output marker:
     pins = 2 PI stems + (AND out + 2 ins) + output-marker branch = 6 pins,
     12 faults. *)
  let b = B.create () in
  let x = B.input b "x" in
  let y = B.input b "y" in
  let g = B.and2 b ~name:"g" x y in
  let _ = B.output b "o" g in
  let nl = B.freeze_exn b in
  Alcotest.(check int) "12 faults" 12 (Fault.universe_size nl)

let test_universe_clock_pins () =
  let b = B.create () in
  let d = B.input b "d" in
  let ff = B.dff b ~name:"ff" ~d in
  let _ = B.output b "q" ff in
  let nl = B.freeze_exn b in
  (* d stem, ff out, ff clk, ff D pin, marker branch = 5 pins *)
  Alcotest.(check int) "10 faults" 10 (Fault.universe_size nl);
  let u = Fault.universe nl in
  Alcotest.(check bool) "has clk fault" true
    (Array.exists (fun f -> f.Fault.site.Fault.pin = Cell.Pin.Clk) u)

let test_ties_excluded () =
  let b = B.create () in
  let t = B.tie b Olfu_logic.Logic4.L1 in
  let x = B.input b "x" in
  let g = B.and2 b x t in
  let _ = B.output b "o" g in
  let nl = B.freeze_exn b in
  let without = Fault.universe_size nl in
  let with_ties = Fault.universe_size ~include_ties:true nl in
  Alcotest.(check int) "tie adds out pin" (without + 2) with_ties

let test_fault_printing () =
  let b = B.create () in
  let d = B.input b "d" in
  let si = B.input b "si" in
  let se = B.input b "se" in
  let ff = B.sdff b ~name:"u1" ~d ~si ~se in
  let _ = B.output b "q" ff in
  let nl = B.freeze_exn b in
  Alcotest.(check string) "si fault" "u1(SDFF)/SI s@1"
    (Fault.to_string nl (Fault.sa1 ff (Cell.Pin.In 1)));
  Alcotest.(check string) "clk fault" "u1(SDFF)/CK s@0"
    (Fault.to_string nl (Fault.sa0 ff Cell.Pin.Clk))

let test_site_net () =
  let b = B.create () in
  let x = B.input b "x" in
  let g = B.not_ b x in
  let _ = B.output b "o" g in
  let nl = B.freeze_exn b in
  Alcotest.(check int) "stem" g
    (Fault.site_net nl { Fault.node = g; pin = Cell.Pin.Out });
  Alcotest.(check int) "branch" x
    (Fault.site_net nl { Fault.node = g; pin = Cell.Pin.In 0 })

let test_flist_basics () =
  let nl = Test_support.full_adder () in
  let fl = Flist.full nl in
  Alcotest.(check int) "status init" (Flist.size fl)
    (Flist.count_status fl Status.Not_analyzed);
  Flist.set_status fl 0 Status.Detected;
  Flist.set_status fl 1 (Status.Undetectable Status.Tied);
  Alcotest.(check int) "one DT" 1 (Flist.count_status fl Status.Detected);
  let fc = Flist.fault_coverage fl in
  Alcotest.(check bool) "fc > 0" true (fc > 0.);
  let tfc = Flist.testable_coverage fl in
  Alcotest.(check bool) "testable fc > raw fc" true (tfc > fc);
  let pruned = Flist.prune_undetectable fl in
  Alcotest.(check int) "pruned size" (Flist.size fl - 1) (Flist.size pruned)

let test_flist_classify_if () =
  let nl = Test_support.full_adder () in
  let fl = Flist.full nl in
  Flist.set_status fl 0 Status.Detected;
  let changed =
    Flist.classify_if fl
      (Status.Undetectable Status.Unused)
      ~keep:(fun s -> Status.equal s Status.Not_analyzed)
      (fun _ -> true)
  in
  (* everything but the already-detected fault *)
  Alcotest.(check int) "kept detected" (Flist.size fl - 1) changed;
  Alcotest.(check int) "detected still there" 1
    (Flist.count_status fl Status.Detected)

let test_flist_duplicate_rejected () =
  let nl = Test_support.full_adder () in
  let f = Fault.sa0 0 Cell.Pin.Out in
  try
    ignore (Flist.create nl [| f; f |] : Flist.t);
    Alcotest.fail "expected duplicate rejection"
  with Invalid_argument _ -> ()

let test_collapse_inverter_chain () =
  (* i -> NOT -> NOT -> o : all 4 line faults collapse pairwise through the
     inverters, and single-fanout stems merge with their branches. *)
  let b = B.create () in
  let i = B.input b "i" in
  let g1 = B.not_ b i in
  let g2 = B.not_ b g1 in
  let _ = B.output b "o" g2 in
  let nl = B.freeze_exn b in
  let fl = Flist.full nl in
  let c = Collapse.compute fl in
  (* The whole chain is one equivalence class per polarity. *)
  Alcotest.(check int) "2 classes" 2 (Collapse.num_classes c)

let test_collapse_and_gate () =
  let b = B.create () in
  let x = B.input b "x" in
  let y = B.input b "y" in
  let g = B.and2 b x y in
  let _ = B.output b "o" g in
  let nl = B.freeze_exn b in
  let fl = Flist.full nl in
  let c = Collapse.compute fl in
  let idx f = Option.get (Flist.find fl f) in
  (* in s@0 ≡ out s@0 for AND *)
  Alcotest.(check bool) "in0 sa0 ~ out sa0" true
    (Collapse.same_class c
       (idx (Fault.sa0 g (Cell.Pin.In 0)))
       (idx (Fault.sa0 g Cell.Pin.Out)));
  Alcotest.(check bool) "in0 sa1 !~ out sa1" false
    (Collapse.same_class c
       (idx (Fault.sa1 g (Cell.Pin.In 0)))
       (idx (Fault.sa1 g Cell.Pin.Out)));
  (* 12 faults: classes = {x stem+branch sa0 + g out sa0 + y stem+branch sa0}
     is wrong — x sa0 joins through its single branch to g.in0 sa0 which
     joins g.out sa0, and same for y: one big sa0 class; sa1s stay apart
     except stem/branch merges. *)
  let out_sa0 = idx (Fault.sa0 g Cell.Pin.Out) in
  Alcotest.(check bool) "x sa0 ~ out sa0" true
    (Collapse.same_class c (idx (Fault.sa0 x Cell.Pin.Out)) out_sa0);
  Alcotest.(check bool) "x sa1 ~ its branch" true
    (Collapse.same_class c
       (idx (Fault.sa1 x Cell.Pin.Out))
       (idx (Fault.sa1 g (Cell.Pin.In 0))))

let test_collapse_spread () =
  let b = B.create () in
  let i = B.input b "i" in
  let g1 = B.not_ b i in
  let _ = B.output b "o" g1 in
  let nl = B.freeze_exn b in
  let fl = Flist.full nl in
  let c = Collapse.compute fl in
  let reps = Collapse.representatives c in
  List.iter (fun r -> Flist.set_status fl r Status.Detected) reps;
  Collapse.spread c fl;
  Alcotest.(check int) "all detected" (Flist.size fl)
    (Flist.count_status fl Status.Detected)

let test_status_codes () =
  Alcotest.(check string) "DT" "DT" (Status.code Status.Detected);
  Alcotest.(check string) "UT" "UT" (Status.code (Status.Undetectable Status.Tied));
  Alcotest.(check string) "UB" "UB"
    (Status.code (Status.Undetectable Status.Blocked));
  Alcotest.(check bool) "UD check" true
    (Status.is_undetectable (Status.Undetectable Status.Redundant));
  Alcotest.(check bool) "DT not UD" false (Status.is_undetectable Status.Detected)

let prop_universe_even_and_sorted =
  QCheck2.Test.make ~count:30 ~name:"universe: sorted, unique, 2 per pin"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let nl = Test_support.random_comb_netlist rng ~inputs:4 ~gates:20 in
      let u = Fault.universe nl in
      Array.length u mod 2 = 0
      &&
      let ok = ref true in
      for i = 1 to Array.length u - 1 do
        if Fault.compare u.(i - 1) u.(i) >= 0 then ok := false
      done;
      !ok)

(* a random half of [l], in random order *)
let random_subset rng l =
  List.filter (fun _ -> Random.State.bool rng) l
  |> List.map (fun x -> (Random.State.bits rng, x))
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map snd

(* Sequential cells (clock pins) and tie cells too: the universe is
   generated in the order of [Fault.compare], never sorted. *)
let prop_universe_increasing =
  QCheck2.Test.make ~count:30 ~name:"universe increasing, flops and ties"
    QCheck2.Gen.(pair (int_bound 1_000_000) bool)
    (fun (seed, include_ties) ->
      let rng = Random.State.make [| seed |] in
      let nl =
        Test_support.random_seq_netlist ~ties:true ~all_kinds:true rng
          ~inputs:3 ~gates:16 ~flops:4
      in
      let u = Fault.universe ~include_ties nl in
      let ok = ref true in
      for i = 1 to Array.length u - 1 do
        if Fault.compare u.(i - 1) u.(i) >= 0 then ok := false
      done;
      !ok)

(* [Flist.find] answers every index, on the full universe and on a
   shuffled subset, and misses a fault the list does not hold. *)
let prop_flist_find_roundtrip =
  QCheck2.Test.make ~count:30 ~name:"flist find round-trips"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let nl =
        Test_support.random_seq_netlist ~ties:true ~all_kinds:true rng
          ~inputs:3 ~gates:16 ~flops:4
      in
      let roundtrips fl =
        let ok = ref true in
        for i = 0 to Flist.size fl - 1 do
          if Flist.find fl (Flist.fault fl i) <> Some i then ok := false
        done;
        !ok
      in
      let u = Array.to_list (Fault.universe nl) in
      let kept = random_subset rng u in
      let sub = Flist.create nl (Array.of_list kept) in
      roundtrips (Flist.full nl)
      && roundtrips sub
      && List.for_all
           (fun f -> Flist.mem sub f = List.exists (Fault.equal f) kept)
           u)

(* The schedule [Analysis.order_by_cost] must reproduce: the fanout-cone
   cost estimate (1 + the estimates of the combinational fanout sinks, a
   sequential sink counting 1, saturated at 2^20), comparison-sorted by
   descending cost, ascending index on ties. *)
let reference_order nl ~site n =
  let cap = 1 lsl 20 in
  let est = Array.make (Netlist.length nl) 0 in
  let of_fanouts i =
    let acc = ref 1 in
    Array.iter
      (fun (sink, _pin) ->
        if !acc < cap then
          if Cell.is_seq (Netlist.kind nl sink) then incr acc
          else acc := !acc + est.(sink))
      (Netlist.fanout nl i);
    min !acc cap
  in
  let topo = Netlist.topo nl in
  for k = Array.length topo - 1 downto 0 do
    est.(topo.(k)) <- of_fanouts topo.(k)
  done;
  Array.iter
    (fun i -> if est.(i) = 0 then est.(i) <- of_fanouts i)
    (Array.append (Netlist.inputs nl) (Netlist.seq_nodes nl));
  Netlist.iter_nodes
    (fun i nd ->
      if Cell.is_tie nd.Netlist.kind && est.(i) = 0 then
        est.(i) <- of_fanouts i)
    nl;
  let key = Array.init n (fun k -> est.(site k)) in
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      let c = Int.compare key.(b) key.(a) in
      if c <> 0 then c else Int.compare a b)
    order;
  order

(* A chain of gates each reading its predecessor twice: the estimate
   doubles per stage, so costs span both radix digits and saturate. *)
let ladder_netlist rng =
  let b = B.create () in
  let nodes = ref [ B.input b "x"; B.input b "y" ] in
  let prev = ref (List.hd !nodes) in
  for _ = 1 to Random.State.int rng 26 do
    let side = List.nth !nodes (Random.State.int rng (List.length !nodes)) in
    let g =
      if Random.State.int rng 4 = 0 then B.dff b ~d:!prev
      else B.gate b Cell.And [ !prev; !prev; side ]
    in
    nodes := g :: !nodes;
    prev := g
  done;
  ignore (B.output b "o" !prev : int);
  B.freeze_exn b

let prop_order_by_cost =
  QCheck2.Test.make ~count:40 ~name:"order_by_cost = comparison sort"
    QCheck2.Gen.(pair (int_bound 1_000_000) bool)
    (fun (seed, ladder) ->
      let rng = Random.State.make [| seed |] in
      let nl =
        if ladder then ladder_netlist rng
        else
          Test_support.random_seq_netlist ~ties:true ~all_kinds:true rng
            ~inputs:3 ~gates:24 ~flops:4
      in
      let an = Analysis.get nl in
      let same fl =
        let site k = (Flist.fault fl k).Fault.site.Fault.node in
        let n = Flist.size fl in
        Analysis.order_by_cost an ~site n = reference_order nl ~site n
      in
      let sub = random_subset rng (Array.to_list (Fault.universe nl)) in
      same (Flist.full nl) && same (Flist.create nl (Array.of_list sub)))

let test_dominance_pairs () =
  let b = B.create () in
  let x = B.input b "x" in
  let y = B.input b "y" in
  let g = B.and2 b ~name:"g" x y in
  let h = B.nor2 b ~name:"h" g x in
  let _ = B.output b "o" h in
  let nl = B.freeze_exn b in
  let fl = Flist.full nl in
  let pairs = Collapse.dominance_pairs fl in
  let idx f = Option.get (Flist.find fl f) in
  (* AND: out s@1 dominated by each in s@1 *)
  Alcotest.(check bool) "and pair" true
    (List.mem (idx (Fault.sa1 g Cell.Pin.Out), idx (Fault.sa1 g (Cell.Pin.In 0))) pairs);
  (* NOR: out s@1 dominated by in s@0 *)
  Alcotest.(check bool) "nor pair" true
    (List.mem (idx (Fault.sa1 h Cell.Pin.Out), idx (Fault.sa0 h (Cell.Pin.In 1))) pairs);
  let pruned = Collapse.dominance_prune fl in
  Alcotest.(check int) "pruned two dominators (and, nor)" 2 pruned

let test_dominance_prune_semantics () =
  let b = B.create () in
  let x = B.input b "x" in
  let y = B.input b "y" in
  let g = B.and2 b ~name:"g" x y in
  let _ = B.output b "o" g in
  let nl = B.freeze_exn b in
  let idx fl f = Option.get (Flist.find fl f) in
  (* a pre-classified dominator is left alone *)
  let fl = Flist.full nl in
  let dom = idx fl (Fault.sa1 g Cell.Pin.Out) in
  Flist.set_status fl dom Status.Detected;
  let _ = Collapse.dominance_prune fl in
  Alcotest.(check bool) "classified dominator untouched" true
    (Status.equal (Flist.status fl dom) Status.Detected);
  (* a dominator whose dominated fault left the target set is kept as a
     target: nothing else implies it any more *)
  let fl = Flist.full nl in
  List.iter
    (fun (dominator, dominated) ->
      if dominator = idx fl (Fault.sa1 g Cell.Pin.Out) then
        Flist.set_status fl dominated
          (Status.Undetectable Status.Redundant))
    (Collapse.dominance_pairs fl);
  let _ = Collapse.dominance_prune fl in
  Alcotest.(check bool) "dominator without live dominated kept" true
    (Status.equal (Flist.status fl dom) Status.Not_analyzed)

(* prune marks exactly the counted faults, and a second pass finds
   nothing left to do *)
let prop_dominance_prune_count =
  QCheck2.Test.make ~count:20 ~name:"dominance prune: count exact, idempotent"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let nl = Test_support.random_comb_netlist rng ~inputs:4 ~gates:15 in
      let fl = Flist.full nl in
      let before = Flist.count_status fl Status.Not_detected in
      let n = Collapse.dominance_prune fl in
      let after = Flist.count_status fl Status.Not_detected in
      after - before = n
      && n
         = List.length
             (List.sort_uniq compare
                (List.filter_map
                   (fun (dominator, _) ->
                     if
                       Status.equal
                         (Flist.status fl dominator)
                         Status.Not_detected
                     then Some dominator
                     else None)
                   (Collapse.dominance_pairs fl)))
      && Collapse.dominance_prune fl = 0)

(* dominance is semantically sound: any pattern detecting the dominated
   fault also detects the dominator *)
let prop_dominance_sound =
  QCheck2.Test.make ~count:10 ~name:"dominance sound under fault sim"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let nl = Test_support.random_comb_netlist rng ~inputs:4 ~gates:15 in
      let fl = Flist.full nl in
      let pairs = Collapse.dominance_pairs fl in
      let ok = ref true in
      List.iteri
        (fun k (dominator, dominated) ->
          if k < 12 then begin
            (* find one pattern detecting the dominated fault *)
            let fd = Flist.fault fl dominated in
            let fm = Flist.fault fl dominator in
            let pats = Olfu_fsim.Comb_fsim.random_patterns ~seed nl 128 in
            Array.iter
              (fun p ->
                if Olfu_fsim.Comb_fsim.detects nl fd p then
                  if not (Olfu_fsim.Comb_fsim.detects nl fm p) then ok := false)
              pats
          end)
        pairs;
      !ok)

(* --- transition-delay fault model --- *)

let test_tdf_universe () =
  let nl = Test_support.full_adder () in
  let sa = Fault.universe nl in
  let td = Tdf.universe nl in
  (* same pin set, two faults per pin in both models *)
  Alcotest.(check int) "same size" (Array.length sa) (Array.length td);
  (* sorted and unique *)
  let ok = ref true in
  for i = 1 to Array.length td - 1 do
    if Tdf.compare td.(i - 1) td.(i) >= 0 then ok := false
  done;
  Alcotest.(check bool) "sorted" true !ok

let test_tdf_printing_and_pair () =
  let b = B.create () in
  let d = B.input b "d" in
  let ff = B.dff b ~name:"u1" ~d in
  let _ = B.output b "q" ff in
  let nl = B.freeze_exn b in
  let f =
    { Tdf.site = { Fault.node = ff; pin = Cell.Pin.In 0 };
      polarity = Tdf.Slow_to_rise }
  in
  Alcotest.(check string) "str name" "u1(DFF)/D STR" (Tdf.to_string nl f);
  let sa0, sa1 = Tdf.as_stuck_pair f in
  Alcotest.(check bool) "pair site" true
    (sa0.Fault.site = f.Tdf.site && sa1.Fault.site = f.Tdf.site);
  Alcotest.(check bool) "pair polarity" true
    ((not sa0.Fault.stuck) && sa1.Fault.stuck)

(* Equivalent faults are indistinguishable by any test, so after fault
   simulating the same patterns every member of a class must end with the
   same detection verdict. *)
let prop_collapse_respected_by_fsim =
  QCheck2.Test.make ~count:15 ~name:"collapsed classes agree under fault sim"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let nl = Test_support.random_comb_netlist rng ~inputs:4 ~gates:18 in
      let fl = Flist.full nl in
      let c = Collapse.compute fl in
      ignore
        (Olfu_fsim.Comb_fsim.run nl fl
           (Olfu_fsim.Comb_fsim.random_patterns ~seed nl 192)
          : Olfu_fsim.Comb_fsim.report);
      let ok = ref true in
      List.iter
        (fun r ->
          let detected i = Status.equal (Flist.status fl i) Status.Detected in
          let members = Collapse.class_members c r in
          match members with
          | [] -> ()
          | m0 :: rest ->
            List.iter
              (fun m -> if detected m <> detected m0 then ok := false)
              rest)
        (Collapse.representatives c);
      !ok)

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "fault"
    [
      ( "universe",
        [
          Alcotest.test_case "counts" `Quick test_universe_counts;
          Alcotest.test_case "clock pins" `Quick test_universe_clock_pins;
          Alcotest.test_case "ties excluded" `Quick test_ties_excluded;
          Alcotest.test_case "printing" `Quick test_fault_printing;
          Alcotest.test_case "site net" `Quick test_site_net;
          qt prop_universe_even_and_sorted;
          qt prop_universe_increasing;
        ] );
      ( "flist",
        [
          Alcotest.test_case "basics" `Quick test_flist_basics;
          Alcotest.test_case "classify_if" `Quick test_flist_classify_if;
          Alcotest.test_case "duplicates" `Quick test_flist_duplicate_rejected;
          Alcotest.test_case "status codes" `Quick test_status_codes;
          qt prop_flist_find_roundtrip;
        ] );
      ( "dominance",
        [
          Alcotest.test_case "pairs + prune" `Quick test_dominance_pairs;
          Alcotest.test_case "prune semantics" `Quick
            test_dominance_prune_semantics;
          qt prop_dominance_prune_count;
          qt prop_dominance_sound;
        ] );
      ( "tdf",
        [
          Alcotest.test_case "universe" `Quick test_tdf_universe;
          Alcotest.test_case "printing + pair" `Quick test_tdf_printing_and_pair;
        ] );
      ("order", [ qt prop_order_by_cost ]);
      ( "collapse",
        [
          Alcotest.test_case "inverter chain" `Quick test_collapse_inverter_chain;
          Alcotest.test_case "and gate" `Quick test_collapse_and_gate;
          Alcotest.test_case "spread" `Quick test_collapse_spread;
          qt prop_collapse_respected_by_fsim;
        ] );
    ]

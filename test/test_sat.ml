open Olfu_netlist
open Olfu_fault
open Olfu_atpg
module S = Olfu_sat.Solver
module B = Netlist.Builder

(* --- solver unit tests --- *)

let is_sat = function S.Sat _ -> true | S.Unsat | S.Unknown -> false

let test_trivial () =
  let s = S.create () in
  let a = S.new_var s in
  let b = S.new_var s in
  S.add_clause s [ a; b ];
  S.add_clause s [ -a ];
  (match S.solve s with
  | S.Sat model ->
    Alcotest.(check bool) "a false" false (model a);
    Alcotest.(check bool) "b true" true (model b)
  | _ -> Alcotest.fail "expected sat");
  S.add_clause s [ -b ];
  Alcotest.(check bool) "now unsat" false (is_sat (S.solve s))

let test_empty_clause () =
  let s = S.create () in
  let _ = S.new_var s in
  S.add_clause s [];
  Alcotest.(check bool) "unsat" true (S.solve s = S.Unsat)

let test_unit_chain () =
  (* implication chain x1 -> x2 -> ... -> x10, x1 forced *)
  let s = S.create () in
  let vars = Array.init 10 (fun _ -> S.new_var s) in
  for i = 0 to 8 do
    S.add_clause s [ -vars.(i); vars.(i + 1) ]
  done;
  S.add_clause s [ vars.(0) ];
  match S.solve s with
  | S.Sat model ->
    Array.iter (fun v -> Alcotest.(check bool) "all true" true (model v)) vars
  | _ -> Alcotest.fail "expected sat"

let test_pigeonhole () =
  (* 4 pigeons, 3 holes: classic small UNSAT needing real search *)
  let s = S.create () in
  let p = Array.init 4 (fun _ -> Array.init 3 (fun _ -> S.new_var s)) in
  for i = 0 to 3 do
    S.add_clause s (Array.to_list p.(i))
  done;
  for h = 0 to 2 do
    for i = 0 to 3 do
      for j = i + 1 to 3 do
        S.add_clause s [ -p.(i).(h); -p.(j).(h) ]
      done
    done
  done;
  Alcotest.(check bool) "php(4,3) unsat" true (S.solve s = S.Unsat)

let test_assumptions () =
  let s = S.create () in
  let a = S.new_var s in
  let b = S.new_var s in
  S.add_clause s [ -a; b ];
  (match S.solve ~assumptions:[ a; -b ] s with
  | S.Unsat -> ()
  | _ -> Alcotest.fail "assumption conflict expected");
  (* solver still usable afterwards *)
  match S.solve ~assumptions:[ a ] s with
  | S.Sat model -> Alcotest.(check bool) "b follows" true (model b)
  | _ -> Alcotest.fail "expected sat"

let test_xor_instance () =
  (* a xor b xor c = 1, a = b: forces c = 1 when a = b *)
  let s = S.create () in
  let a = S.new_var s and b = S.new_var s and c = S.new_var s in
  (* odd parity clauses *)
  S.add_clause s [ a; b; c ];
  S.add_clause s [ a; -b; -c ];
  S.add_clause s [ -a; b; -c ];
  S.add_clause s [ -a; -b; c ];
  S.add_clause s [ -a; b ];
  S.add_clause s [ a; -b ];
  match S.solve s with
  | S.Sat model -> Alcotest.(check bool) "c true" true (model c)
  | _ -> Alcotest.fail "expected sat"

(* random small instances vs brute force *)
let prop_matches_bruteforce =
  QCheck2.Test.make ~count:60 ~name:"solver = brute force on small CNF"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let nvars = 4 + Random.State.int rng 7 in
      let nclauses = 5 + Random.State.int rng 30 in
      let clauses =
        List.init nclauses (fun _ ->
            let len = 1 + Random.State.int rng 3 in
            List.init len (fun _ ->
                let v = 1 + Random.State.int rng nvars in
                if Random.State.bool rng then v else -v))
      in
      let brute_sat =
        let rec try_assign m =
          if m = 1 lsl nvars then false
          else
            let value v = (m lsr (v - 1)) land 1 = 1 in
            let holds =
              List.for_all
                (List.exists (fun l ->
                     if l > 0 then value l else not (value (-l))))
                clauses
            in
            holds || try_assign (m + 1)
        in
        try_assign 0
      in
      let s = S.create () in
      for _ = 1 to nvars do
        ignore (S.new_var s : int)
      done;
      List.iter (S.add_clause s) clauses;
      match S.solve s with
      | S.Sat model ->
        (* the model must actually satisfy the clauses *)
        brute_sat
        && List.for_all
             (List.exists (fun l -> if l > 0 then model l else not (model (-l))))
             clauses
      | S.Unsat -> not brute_sat
      | S.Unknown -> false)

(* --- SAT ATPG --- *)

let test_sat_atpg_adder () =
  let nl = Test_support.full_adder () in
  Array.iter
    (fun f ->
      match Sat_atpg.run nl f with
      | Sat_atpg.Test asg ->
        Alcotest.(check bool)
          (Printf.sprintf "sat test validates %s" (Fault.to_string nl f))
          true
          (Podem.check_test nl f asg)
      | Sat_atpg.Untestable ->
        Alcotest.failf "adder fault %s called untestable" (Fault.to_string nl f)
      | Sat_atpg.Unknown -> Alcotest.fail "unknown")
    (Fault.universe nl)

let test_sat_atpg_redundant () =
  let nl = Test_support.redundant_circuit () in
  let bnode = Netlist.find_exn nl "b" in
  Alcotest.(check bool) "b s@0 untestable" true
    (Sat_atpg.run nl (Fault.sa0 bnode Cell.Pin.Out) = Sat_atpg.Untestable);
  Alcotest.(check bool) "b s@1 untestable" true
    (Sat_atpg.run nl (Fault.sa1 bnode Cell.Pin.Out) = Sat_atpg.Untestable)

let test_sat_atpg_scan_cell () =
  let nl, ff = Test_support.scan_cell_mission () in
  Alcotest.(check bool) "SI s@1 untestable" true
    (Sat_atpg.run nl (Fault.sa1 ff (Cell.Pin.In 1)) = Sat_atpg.Untestable);
  match Sat_atpg.run nl (Fault.sa1 ff (Cell.Pin.In 2)) with
  | Sat_atpg.Test asg ->
    Alcotest.(check bool) "SE s@1 test valid" true
      (Podem.check_test nl (Fault.sa1 ff (Cell.Pin.In 2)) asg)
  | _ -> Alcotest.fail "SE s@1 should be testable"

let test_sat_atpg_reconvergence () =
  (* the OR(x,x) trap: SAT must find the stem test *)
  let b = B.create () in
  let t1 = B.tie b Olfu_logic.Logic4.L1 in
  let x = B.buf b ~name:"x" t1 in
  let g = B.or2 b ~name:"g" x x in
  let _ = B.output b "o" g in
  let nl = B.freeze_exn b in
  (match Sat_atpg.run nl (Fault.sa0 x Cell.Pin.Out) with
  | Sat_atpg.Test _ -> ()
  | _ -> Alcotest.fail "stem x s@0 is testable");
  (* each single branch alone is untestable *)
  Alcotest.(check bool) "branch untestable" true
    (Sat_atpg.run nl (Fault.sa0 (Netlist.find_exn nl "g") (Cell.Pin.In 0))
    = Sat_atpg.Untestable)

(* SAT and PODEM agree wherever PODEM is conclusive; SAT never aborts on
   these sizes. *)
let prop_sat_podem_agree =
  QCheck2.Test.make ~count:15 ~name:"SAT = PODEM verdicts"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let nl = Test_support.random_comb_netlist rng ~inputs:4 ~gates:18 in
      let ok = ref true in
      Array.iteri
        (fun k f ->
          if k mod 5 = 0 && f.Fault.site.Fault.pin <> Cell.Pin.Clk then begin
            let sat = Sat_atpg.run nl f in
            let podem = Podem.run ~backtrack_limit:5_000 nl f in
            match sat, podem with
            | Sat_atpg.Test asg, _ ->
              if not (Podem.check_test nl f asg) then ok := false;
              if podem = Podem.Proved_untestable then ok := false
            | Sat_atpg.Untestable, Podem.Test pasg ->
              if Podem.check_test nl f pasg then ok := false
            | Sat_atpg.Untestable, (Podem.Proved_untestable | Podem.Aborted) ->
              ()
            | Sat_atpg.Unknown, _ -> ok := false
          end)
        (Fault.universe nl);
      !ok)

(* and the implication engine stays sound against the complete prover *)
let prop_implication_sound_vs_sat =
  QCheck2.Test.make ~count:15 ~name:"implication untestable => SAT unsat"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let nl = Test_support.random_comb_netlist rng ~inputs:4 ~gates:18 in
      let t = Untestable.analyze ~ff_mode:Ternary.Cut nl in
      let ok = ref true in
      Array.iter
        (fun f ->
          if f.Fault.site.Fault.pin <> Cell.Pin.Clk then
            match Untestable.fault_verdict t f with
            | Some _ ->
              if Sat_atpg.run nl f <> Sat_atpg.Untestable then ok := false
            | None -> ())
        (Fault.universe nl);
      !ok)

(* SAT succeeds where branch-and-bound drowns: a quotient-bit fault deep
   in a restoring divider. *)
let test_sat_cracks_divider () =
  let b = B.create () in
  let x = Olfu_soc.Rtl.input_bus b "x" 8 in
  let y = Olfu_soc.Rtl.input_bus b "y" 8 in
  let q, r = Olfu_soc.Rtl.divider b ~dividend:x ~divisor:y in
  Olfu_soc.Rtl.output_bus b "q" q;
  Olfu_soc.Rtl.output_bus b "r" r;
  let nl = B.freeze_exn b in
  (* target the most significant quotient bit's stem *)
  let f = Fault.sa1 q.(7) Cell.Pin.Out in
  match Sat_atpg.run nl f with
  | Sat_atpg.Test asg ->
    Alcotest.(check bool) "validated" true (Podem.check_test nl f asg)
  | Sat_atpg.Untestable -> Alcotest.fail "divider quotient bit is testable"
  | Sat_atpg.Unknown -> Alcotest.fail "budget too small"

(* --- equivalence checker --- *)

let test_equiv_self () =
  let nl = Test_support.full_adder () in
  Alcotest.(check bool) "adder = adder" true
    (Equiv.check nl nl = Equiv.Equivalent)

let test_equiv_detects_difference () =
  let nl = Test_support.full_adder () in
  (* swap the carry OR for an AND: inequivalent *)
  let b = B.create () in
  let a = B.input b "a" in
  let bb = B.input b "b" in
  let cin = B.input b "cin" in
  let x1 = B.xor2 b a bb in
  let sv = B.xor2 b ~name:"sum_net" x1 cin in
  let c1 = B.and2 b a bb in
  let c2 = B.and2 b x1 cin in
  let cout = B.and2 b ~name:"cout_net" c1 c2 in
  let _ = B.output b "sum" sv in
  let _ = B.output b "cout" cout in
  let bad = B.freeze_exn b in
  match Equiv.check nl bad with
  | Equiv.Counterexample cex ->
    (* the counterexample must actually distinguish the two circuits *)
    let drive nl =
      let env = Olfu_sim.Comb_sim.init nl Olfu_logic.Logic4.X in
      List.iter
        (fun (name, v) ->
          match Netlist.find nl name with
          | Some i -> env.(i) <- Olfu_logic.Logic4.of_bool v
          | None -> ())
        cex;
      Olfu_sim.Comb_sim.settle nl env;
      env.(Netlist.find_exn nl "cout_net")
    in
    Alcotest.(check bool) "cex distinguishes" false
      (Olfu_logic.Logic4.equal (drive nl) (drive bad))
  | _ -> Alcotest.fail "expected counterexample"

let test_equiv_under_assumptions () =
  (* g = x AND en vs h = x: equivalent only when en is assumed 1 *)
  let mk with_en =
    let b = B.create () in
    let x = B.input b "x" in
    let en = B.input b "en" in
    let g = if with_en then B.and2 b x en else B.buf b x in
    let _ = B.output b "o" g in
    B.freeze_exn b
  in
  let a = mk true and bb = mk false in
  (match Equiv.check a bb with
  | Equiv.Counterexample _ -> ()
  | _ -> Alcotest.fail "inequivalent without assumptions");
  Alcotest.(check bool) "equivalent with en=1" true
    (Equiv.check ~assume:[ ("en", true) ] a bb = Equiv.Equivalent)

(* The paper's premise, proved: tying the debug controls does not change
   mission behaviour as long as the environment holds them at the tied
   values. *)
let test_equiv_mission_ties () =
  let cfg = Olfu_soc.Soc.tcore16 in
  let nl = Olfu_soc.Soc.generate cfg in
  let mission =
    Olfu.Mission.of_roles
      ~memmap:(Olfu_soc.Soc.memmap_regions cfg)
      ~address_width:cfg.Olfu_soc.Soc.xlen nl
  in
  let tied =
    Olfu_manip.Script.apply nl (Olfu.Mission.tie_controls_script mission)
  in
  let assume =
    List.map (fun n -> (n, false)) mission.Olfu.Mission.debug_controls
  in
  Alcotest.(check bool) "tied soc = original under ties" true
    (Equiv.check ~assume nl tied = Equiv.Equivalent);
  (* and WITHOUT the assumptions the circuits differ (the debugger could
     have acted) *)
  match Equiv.check nl tied with
  | Equiv.Counterexample _ -> ()
  | Equiv.Equivalent -> Alcotest.fail "must differ when debug pins float"
  | _ -> Alcotest.fail "unexpected verdict"

(* hash-consed fold agrees with simulation on random circuits *)
let prop_equiv_self_random =
  QCheck2.Test.make ~count:25 ~name:"random netlist equals itself"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let nl = Test_support.random_comb_netlist rng ~inputs:4 ~gates:25 in
      Equiv.check nl nl = Equiv.Equivalent)

(* --- bounded sequential test generation --- *)

let resettable_shift () =
  let b = B.create () in
  let d = B.input b "d" in
  let rstn = B.input b ~roles:[ Netlist.Reset ] "rstn" in
  let f1 = B.dffr b ~name:"f1" ~d ~rstn in
  let f2 = B.dffr b ~name:"f2" ~d:f1 ~rstn in
  let _ = B.output b "q" f2 in
  B.freeze_exn b

let test_bmc_finds_sequential_test () =
  let nl = resettable_shift () in
  let d = Netlist.find_exn nl "d" in
  let f = Fault.sa0 d Cell.Pin.Out in
  match Bmc.run ~cycles:4 nl f with
  | Bmc.Test stim ->
    Alcotest.(check int) "4 cycles" 4 (Array.length stim);
    Alcotest.(check bool) "simulator confirms" true
      (Bmc.confirm_test nl f stim)
  | Bmc.No_test_within _ -> Alcotest.fail "a 2-deep shift needs 3 cycles"
  | Bmc.Unknown -> Alcotest.fail "budget"

let test_bmc_depth_matters () =
  (* through two flops the fault needs 3 cycles to reach the output: with
     only 1 cycle there must be no test *)
  let nl = resettable_shift () in
  let d = Netlist.find_exn nl "d" in
  let f = Fault.sa1 d Cell.Pin.Out in
  (match Bmc.run ~cycles:1 nl f with
  | Bmc.No_test_within _ -> ()
  | Bmc.Test _ -> Alcotest.fail "too shallow to observe"
  | Bmc.Unknown -> Alcotest.fail "budget");
  match Bmc.run ~cycles:6 nl f with
  | Bmc.Test _ -> ()
  | _ -> Alcotest.fail "deep enough now"

let test_bmc_scan_fault_untestable () =
  let nl, ff = Test_support.scan_cell_mission () in
  (match Bmc.run ~cycles:6 nl (Fault.sa1 ff (Cell.Pin.In 1)) with
  | Bmc.No_test_within _ -> ()
  | Bmc.Test _ -> Alcotest.fail "SI fault has no functional test"
  | Bmc.Unknown -> Alcotest.fail "budget");
  (* SE s@1 is sequentially testable (it corrupts the captured value) *)
  match Bmc.run ~cycles:4 nl (Fault.sa1 ff (Cell.Pin.In 2)) with
  | Bmc.Test _ -> ()
  | _ -> Alcotest.fail "SE s@1 is functionally testable"

(* every flow-claimed OLFU fault must survive a bounded refutation attempt
   on the mission machine *)
let test_bmc_never_refutes_flow () =
  let cfg = Olfu_soc.Soc.tcore16 in
  let nl = Olfu_soc.Soc.generate cfg in
  let mission =
    Olfu.Mission.of_roles
      ~memmap:(Olfu_soc.Soc.memmap_regions cfg)
      ~address_width:cfg.Olfu_soc.Soc.xlen nl
  in
  let report = Olfu.Flow.run Olfu.Run_config.default nl mission in
  (* the full mission environment: the flow's tied netlist plus the scan
     pins held at their functional values (the scan rule's premise) *)
  let mnl =
    Olfu_safety.Classify.bmc_machine report.Olfu.Flow.mission_netlist
  in
  let observable = Olfu.Mission.observed_in_field mission mnl in
  let checked = ref 0 in
  Olfu_fault.Flist.iteri
    (fun i f st ->
      if
        !checked < 8 && i mod 1009 = 0
        && Status.is_undetectable st
        && f.Fault.site.Fault.pin <> Cell.Pin.Clk
      then begin
        incr checked;
        match
          Bmc.run ~cycles:3 ~observable_output:observable
            ~conflict_limit:20_000 mnl f
        with
        | Bmc.Test stim ->
          if Bmc.confirm_test ~observable_output:observable mnl f stim then
            Alcotest.failf "BMC refuted flow verdict on %s"
              (Fault.to_string mnl f)
        | Bmc.No_test_within _ | Bmc.Unknown -> ()
      end)
    report.Olfu.Flow.flist;
  Alcotest.(check bool) "sampled" true (!checked >= 5)

let prop_bmc_tests_confirmed =
  QCheck2.Test.make ~count:8 ~name:"BMC stem tests confirmed by simulator"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let nl = Test_support.random_seq_netlist rng ~inputs:3 ~gates:10 ~flops:3 in
      let ok = ref true in
      Array.iteri
        (fun k f ->
          if k mod 17 = 0 && f.Fault.site.Fault.pin = Cell.Pin.Out then begin
            match Bmc.run ~cycles:4 ~conflict_limit:20_000 nl f with
            | Bmc.Test stim ->
              (* flop power-up is solver-chosen; only insist on
                 confirmation when every flop is resettable *)
              let all_reset =
                Array.for_all
                  (fun i ->
                    match Netlist.kind nl i with
                    | Cell.Dffr | Cell.Sdffr -> true
                    | _ -> false)
                  (Netlist.seq_nodes nl)
              in
              if all_reset && not (Bmc.confirm_test nl f stim) then ok := false
            | Bmc.No_test_within _ | Bmc.Unknown -> ()
          end)
        (Fault.universe nl);
      !ok)

(* The hash-consing builder as it was with string keys and polymorphic
   sorts: the reference [Cnf.Builder] must agree with, literal for
   literal and variable for variable. *)
module Ref_builder = struct
  type t = { s : S.t; vtrue : int; cons : (string, int) Hashtbl.t }

  let create s =
    let vtrue = S.new_var s in
    S.add_clause s [ vtrue ];
    { s; vtrue; cons = Hashtbl.create 9973 }

  let fresh b = S.new_var b.s
  let is_true b l = l = b.vtrue
  let is_false b l = l = -b.vtrue

  let hashcons b kind lits build =
    let k = kind ^ ":" ^ String.concat "," (List.map string_of_int lits) in
    match Hashtbl.find_opt b.cons k with
    | Some l -> l
    | None ->
      let l = build () in
      Hashtbl.replace b.cons k l;
      l

  let gate b kind ins = Cnf.encode_cell b.s (fun () -> fresh b) kind ins

  let rec mk_and b lits =
    let lits = List.sort_uniq compare lits in
    if List.exists (is_false b) lits then -b.vtrue
    else
      let lits = List.filter (fun l -> not (is_true b l)) lits in
      if List.exists (fun l -> List.mem (-l) lits) lits then -b.vtrue
      else
        match lits with
        | [] -> b.vtrue
        | [ l ] -> l
        | _ ->
          hashcons b "and" lits (fun () ->
              let y = fresh b in
              gate b Cell.And y lits;
              y)

  and mk_or b lits = -mk_and b (List.map (fun l -> -l) lits)

  let mk_xor2 b x y =
    if is_false b x then y
    else if is_false b y then x
    else if is_true b x then -y
    else if is_true b y then -x
    else if x = y then -b.vtrue
    else if x = -y then b.vtrue
    else begin
      let sign = (if x < 0 then 1 else 0) + if y < 0 then 1 else 0 in
      let x = abs x and y = abs y in
      let x, y = (min x y, max x y) in
      let v =
        hashcons b "xor" [ x; y ] (fun () ->
            let v = fresh b in
            Cnf.xor2_gate b.s v x y;
            v)
      in
      if sign land 1 = 1 then -v else v
    end

  let mk_mux b sel x y =
    if is_false b sel then x
    else if is_true b sel then y
    else if x = y then x
    else
      hashcons b "mux" [ sel; x; y ] (fun () ->
          let v = fresh b in
          gate b Cell.Mux2 v [ sel; x; y ];
          v)
end

type cnf_op =
  | And of int list
  | Or of int list
  | Xor of int * int
  | Mux of int * int * int
  | Sdffr of int * int * int * int

(* Random gate sequences over a growing pool of literals (operands are
   signed pool indices, so both builders read the same operands while
   they agree); every answer and the next fresh variable must match. *)
let prop_cnf_builder_matches_reference =
  QCheck2.Test.make ~count:100 ~name:"cnf builder = string-keyed reference"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let operand () =
        let k = Random.State.int rng 1_000_000 in
        if Random.State.bool rng then k else -k - 1
      in
      let ops =
        List.init 60 (fun _ ->
            let o = operand in
            match Random.State.int rng 5 with
            | 0 -> And (List.init (Random.State.int rng 5) (fun _ -> o ()))
            | 1 -> Or (List.init (Random.State.int rng 5) (fun _ -> o ()))
            | 2 -> Xor (o (), o ())
            | 3 -> Mux (o (), o (), o ())
            | _ -> Sdffr (o (), o (), o (), o ()))
      in
      let run ~fresh ~const ~mk_and ~mk_or ~mk_xor2 ~mk_mux =
        let pool = ref [| const; -const |] in
        for _ = 1 to 4 do
          pool := Array.append !pool [| fresh () |]
        done;
        let lit k =
          let a = !pool in
          if k >= 0 then a.(k mod Array.length a)
          else -a.((-k - 1) mod Array.length a)
        in
        let answers =
          List.map
            (fun op ->
              let l =
                match op with
                | And ks -> mk_and (List.map lit ks)
                | Or ks -> mk_or (List.map lit ks)
                | Xor (a, b) -> mk_xor2 (lit a) (lit b)
                | Mux (s, a, b) -> mk_mux (lit s) (lit a) (lit b)
                | Sdffr (d, si, se, r) ->
                  mk_and [ mk_mux (lit se) (lit d) (lit si); lit r ]
              in
              pool := Array.append !pool [| l |];
              l)
            ops
        in
        (answers, fresh ())
      in
      let b = Cnf.Builder.create (S.create ()) in
      let r = Ref_builder.create (S.create ()) in
      run
        ~fresh:(fun () -> Cnf.Builder.fresh b)
        ~const:(Cnf.Builder.vtrue b) ~mk_and:(Cnf.Builder.mk_and b)
        ~mk_or:(Cnf.Builder.mk_or b) ~mk_xor2:(Cnf.Builder.mk_xor2 b)
        ~mk_mux:(fun s x y -> Cnf.Builder.cell b Cell.Mux2 [ s; x; y ])
      = run
          ~fresh:(fun () -> Ref_builder.fresh r)
          ~const:r.Ref_builder.vtrue ~mk_and:(Ref_builder.mk_and r)
          ~mk_or:(Ref_builder.mk_or r) ~mk_xor2:(Ref_builder.mk_xor2 r)
          ~mk_mux:(Ref_builder.mk_mux r))

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "sat"
    [
      ( "solver",
        [
          Alcotest.test_case "trivial" `Quick test_trivial;
          Alcotest.test_case "empty clause" `Quick test_empty_clause;
          Alcotest.test_case "unit chain" `Quick test_unit_chain;
          Alcotest.test_case "pigeonhole" `Quick test_pigeonhole;
          Alcotest.test_case "assumptions" `Quick test_assumptions;
          Alcotest.test_case "xor" `Quick test_xor_instance;
          qt prop_matches_bruteforce;
          qt prop_cnf_builder_matches_reference;
        ] );
      ( "sat-atpg",
        [
          Alcotest.test_case "adder" `Quick test_sat_atpg_adder;
          Alcotest.test_case "redundant" `Quick test_sat_atpg_redundant;
          Alcotest.test_case "scan cell" `Quick test_sat_atpg_scan_cell;
          Alcotest.test_case "reconvergence" `Quick test_sat_atpg_reconvergence;
          Alcotest.test_case "divider cone" `Slow test_sat_cracks_divider;
        ] );
      ( "equiv",
        [
          Alcotest.test_case "self" `Quick test_equiv_self;
          Alcotest.test_case "difference + cex" `Quick
            test_equiv_detects_difference;
          Alcotest.test_case "assumptions" `Quick test_equiv_under_assumptions;
          Alcotest.test_case "mission ties (soc)" `Slow test_equiv_mission_ties;
          qt prop_equiv_self_random;
        ] );
      ( "bmc",
        [
          Alcotest.test_case "finds sequential test" `Quick
            test_bmc_finds_sequential_test;
          Alcotest.test_case "depth matters" `Quick test_bmc_depth_matters;
          Alcotest.test_case "scan fault" `Quick test_bmc_scan_fault_untestable;
          Alcotest.test_case "never refutes flow" `Slow
            test_bmc_never_refutes_flow;
          qt prop_bmc_tests_confirmed;
          qt prop_sat_podem_agree;
          qt prop_implication_sound_vs_sat;
        ] );
    ]

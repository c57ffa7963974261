open Olfu_logic
open Olfu_netlist
open Olfu_fault
open Olfu_atpg
open Olfu_manip
module B = Netlist.Builder

let l4 = Alcotest.testable Logic4.pp Logic4.equal

(* single edits, each on its own copy *)
let tie_input nl i v = Tie.edit nl (fun b -> Tie.Batch.input b i v)
let tie_net nl i v = Tie.edit nl (fun b -> Tie.Batch.net b i v)
let tie_pin nl ~node ~pin v = Tie.edit nl (fun b -> Tie.Batch.pin b ~node ~pin v)

(* flip-flops provably constant in mission mode, with their value *)
let constant_flops nl =
  let t = Ternary.run ~ff_mode:Ternary.Steady_state nl in
  Netlist.seq_nodes nl |> Array.to_list
  |> List.filter_map (fun i ->
         let v = Ternary.const_of t i in
         if Logic4.is_binary v then Some (i, v) else None)

let test_tie_input () =
  let nl = Test_support.full_adder () in
  let nl' = tie_input nl (Netlist.find_exn nl "cin") Logic4.L0 in
  let t = Ternary.run nl' in
  Alcotest.check l4 "cin tied" Logic4.L0
    (Ternary.const_of t (Netlist.find_exn nl' "cin"));
  (* untied inputs stay free *)
  Alcotest.check l4 "a free" Logic4.X
    (Ternary.const_of t (Netlist.find_exn nl' "a"))

let test_tie_net_keeps_driver () =
  let b = B.create () in
  let x = B.input b "x" in
  let g = B.not_ b ~name:"g" x in
  let h = B.buf b ~name:"h" g in
  let _ = B.output b "o" h in
  let nl = B.freeze_exn b in
  let g = Netlist.find_exn nl "g" in
  let nl' = tie_net nl g Logic4.L1 in
  let g' = Netlist.find_exn nl' "g" in
  (* driver still present but fanout now reads the tie *)
  Alcotest.(check bool) "driver kept" true
    (Cell.equal_kind (Netlist.kind nl' g') Cell.Not);
  Alcotest.(check int) "no fanout left" 0 (Array.length (Netlist.fanout nl' g'));
  let t = Ternary.run nl' in
  Alcotest.check l4 "h const" Logic4.L1
    (Ternary.const_of t (Netlist.find_exn nl' "h"))

let test_tie_pin () =
  let nl = Test_support.full_adder () in
  let cout = Netlist.find_exn nl "cout_net" in
  let nl' = tie_pin nl ~node:cout ~pin:0 Logic4.L0 in
  (* cout = 0 | c2 = c2 now *)
  Alcotest.(check bool) "tie inserted" true
    (Cell.is_tie (Netlist.kind nl' (Netlist.fanin nl' cout).(0)))

(* One substitution per net, each scanning every node: how ties were
   made before [Tie.edit] deferred the nets to one pass.  The reference
   the one-pass rewrite must match, node id for node id. *)
type tie_edit =
  | Net of int * Logic4.t
  | Pin of int * int * Logic4.t
  | Input of int * Logic4.t

let tie_each nl edits =
  let b = B.of_netlist nl in
  let tie_kind = function
    | Logic4.L0 -> Cell.Tie0
    | Logic4.L1 -> Cell.Tie1
    | Logic4.X | Logic4.Z -> Cell.Tiex
  in
  List.iter
    (function
      | Input (i, v) -> B.set_kind b i (tie_kind v)
      | Pin (node, pin, v) ->
        let t = B.tie b v in
        let fanin = B.node_fanin b node in
        fanin.(pin) <- t;
        B.set_fanin b node fanin
      | Net (i, v) ->
        let t = B.tie b v in
        for node = 0 to B.length b - 1 do
          let fanin = B.node_fanin b node in
          if Array.exists (Int.equal i) fanin then
            B.set_fanin b node
              (Array.map (fun d -> if d = i then t else d) fanin)
        done)
    edits;
  B.freeze_exn b

(* Random edits over a small pool of nets, so some net is tied twice and
   some pin reads a tied net, in any order. *)
let prop_one_pass_ties =
  QCheck2.Test.make ~count:60 ~name:"one-pass ties = one pass per net"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let nl =
        Test_support.random_seq_netlist ~ties:true ~all_kinds:true rng
          ~inputs:4 ~gates:20 ~flops:4
      in
      let n = Netlist.length nl in
      let value () = [| Logic4.L0; Logic4.L1; Logic4.X |].(Random.State.int rng 3) in
      let pool = Array.init 4 (fun _ -> Random.State.int rng n) in
      let inputs = Array.to_list (Netlist.inputs nl) in
      let edits =
        List.filter_map
          (fun i -> if Random.State.bool rng then Some (Input (i, value ())) else None)
          inputs
        @ List.init (Random.State.int rng 10) (fun _ ->
              let node = Random.State.int rng n in
              let arity = Array.length (Netlist.fanin nl node) in
              if arity > 0 && Random.State.bool rng then
                Pin (node, Random.State.int rng arity, value ())
              else Net (pool.(Random.State.int rng 4), value ()))
        |> List.map (fun e -> (Random.State.bits rng, e))
        |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
        |> List.map snd
      in
      let batched =
        Tie.edit nl (fun b ->
            List.iter
              (function
                | Input (i, v) -> Tie.Batch.input b i v
                | Pin (node, pin, v) -> Tie.Batch.pin b ~node ~pin v
                | Net (i, v) -> Tie.Batch.net b i v)
              edits)
      in
      Analysis.digest_of batched = Analysis.digest_of (tie_each nl edits))

let test_float_outputs () =
  let b = B.create () in
  let x = B.input b "x" in
  let g = B.not_ b ~name:"g" x in
  let _ = B.output b ~roles:[ Netlist.Debug_observe ] "DBG" g in
  let _ = B.output b "F" g in
  let nl = B.freeze_exn b in
  let float names =
    Script.apply nl (List.map (fun s -> Script.Float_output s) names)
  in
  Alcotest.(check int) "one output left" 1
    (Array.length (Netlist.outputs (float [ "DBG" ])));
  Alcotest.(check int) "all floated" 0
    (Array.length (Netlist.outputs (float [ "F"; "DBG" ])));
  (try
     ignore (float [ "x" ] : Netlist.t);
     Alcotest.fail "expected error"
   with Invalid_argument _ -> ())

(* Build a 3-cell scan chain with buffers between the cells. *)
let chain_netlist () =
  let b = B.create () in
  let si = B.input b ~roles:[ Netlist.Scan_in ] "si" in
  let se = B.input b ~roles:[ Netlist.Scan_enable ] "se" in
  let d0 = B.input b "d0" in
  let d1 = B.input b "d1" in
  let d2 = B.input b "d2" in
  let f0 = B.sdff b ~name:"f0" ~d:d0 ~si ~se in
  let b0 = B.buf b ~name:"sb0" f0 in
  let f1 = B.sdff b ~name:"f1" ~d:d1 ~si:b0 ~se in
  let b1 = B.not_ b ~name:"sb1" f1 in
  let f2 = B.sdff b ~name:"f2" ~d:d2 ~si:b1 ~se in
  let _ = B.output b "q0" f0 in
  let _ = B.output b "q1" f1 in
  let _ = B.output b "q2" f2 in
  let _ = B.output b ~roles:[ Netlist.Scan_out ] "so" f2 in
  B.freeze_exn b

let test_scan_trace () =
  let nl = chain_netlist () in
  match Scan_trace.trace nl with
  | [ c ] ->
    Alcotest.(check int) "3 cells" 3 (List.length (Scan_trace.cells c));
    Alcotest.(check bool) "found scan out" true (c.Scan_trace.scan_out <> None);
    let names =
      List.map (fun i -> Option.get (Netlist.name nl i)) (Scan_trace.cells c)
    in
    Alcotest.(check (list string)) "order" [ "f0"; "f1"; "f2" ] names
  | l -> Alcotest.failf "expected 1 chain, got %d" (List.length l)

let test_scan_only_nodes () =
  let nl = chain_netlist () in
  let only = Scan_trace.scan_only_nodes nl in
  let names =
    List.filter_map (fun i -> Netlist.name nl i) only |> List.sort compare
  in
  (* scan-in port and the two path buffers; flop outputs also feed
     functional outputs so they are not scan-only *)
  Alcotest.(check (list string)) "dedicated path" [ "sb0"; "sb1"; "si" ] names

let test_scan_prune_counts () =
  let nl = chain_netlist () in
  let fl = Flist.full nl in
  let pruned = Scan_trace.prune nl fl in
  (* per flop: SI s@0, SI s@1, SE s@0 = 9; scan-out marker: 2;
     si port (1 pin), sb0 buf (2 pins), sb1 inv (2 pins): 10 *)
  Alcotest.(check int) "pruned faults" 21 pruned;
  (* pruning is idempotent *)
  Alcotest.(check int) "idempotent" 0 (Scan_trace.prune nl fl)

let test_scan_rule_agrees_with_engine () =
  (* Everything the scan rule prunes must be confirmed untestable by the
     structural engine once the mission configuration is applied: SE tied
     to 0 and the scan-out port disconnected. *)
  let nl = chain_netlist () in
  let nl' =
    Script.apply nl
      [ Script.Tie_input ("se", Logic4.L0); Script.Float_output "so" ]
  in
  let t = Untestable.analyze nl' in
  List.iter
    (fun f ->
      (* skip faults on the se input itself (now a tie, excluded) *)
      let { Fault.node; pin } = f.Fault.site in
      let on_se_branch =
        match pin with
        | Cell.Pin.In 2 -> Cell.equal_kind (Netlist.kind nl' node) Cell.Sdff
        | _ -> false
      in
      if not on_se_branch then
        match Untestable.fault_verdict t f with
        | Some _ -> ()
        | None ->
          Alcotest.failf "engine disagrees on %s" (Fault.to_string nl' f))
    (Scan_trace.untestable_faults nl');
  (* and SE s@1 must remain testable per the paper *)
  let f1 = Netlist.find_exn nl' "f1" in
  Alcotest.(check bool) "SE s@1 kept" true
    (Untestable.fault_verdict t (Fault.sa1 f1 (Cell.Pin.In 2)) = None)

let test_memmap_paper_case () =
  let regions = Memmap.paper_case_study () in
  let free = Memmap.free_bits ~width:32 regions in
  (* bits 0..17 are free via the RAM span and flash; bit 30 via the RAM
     base; bit 18 differs between flash (1) and RAM (0) so it is free too
     (the paper's own text says "18 LSBs + bit 30", see EXPERIMENTS.md) *)
  List.iter
    (fun b ->
      Alcotest.(check bool) (Printf.sprintf "bit %d free" b) true
        (List.mem b free))
    [ 0; 5; 14; 15; 16; 17; 18; 30 ];
  List.iter
    (fun b ->
      Alcotest.(check bool) (Printf.sprintf "bit %d constant" b) false
        (List.mem b free))
    [ 19; 20; 25; 29; 31 ];
  let consts = Memmap.constant_bits ~width:32 regions in
  Alcotest.(check bool) "bit 31 forced 0" true (List.mem (31, false) consts);
  Alcotest.(check bool) "bit 19 forced 0" true (List.mem (19, false) consts)

let test_memmap_brute_force () =
  (* compare against explicit enumeration on small ranges *)
  let regions =
    [ Memmap.region ~name:"r1" ~lo:5 ~hi:9 (); Memmap.region ~name:"r2" ~lo:64 ~hi:64 () ]
  in
  let width = 8 in
  let brute_can bit v =
    let addrs = [ 5; 6; 7; 8; 9; 64 ] in
    List.exists (fun a -> (a lsr bit) land 1 = Bool.to_int v) addrs
  in
  for bit = 0 to width - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "bit %d can be 1" bit)
      (brute_can bit true)
      (Memmap.bit_can_be regions ~bit ~value:true);
    Alcotest.(check bool)
      (Printf.sprintf "bit %d can be 0" bit)
      (brute_can bit false)
      (Memmap.bit_can_be regions ~bit ~value:false)
  done

let prop_memmap_matches_enumeration =
  QCheck2.Test.make ~count:100 ~name:"memmap = brute force"
    QCheck2.Gen.(
      triple (int_bound 255) (int_bound 255) (int_bound 7))
    (fun (a, b, bit) ->
      let lo = min a b and hi = max a b in
      let r = [ Memmap.region ~lo ~hi () ] in
      let brute v =
        let rec go x = x <= hi && (((x lsr bit) land 1 = Bool.to_int v) || go (x + 1)) in
        go lo
      in
      Memmap.bit_can_be r ~bit ~value:true = brute true
      && Memmap.bit_can_be r ~bit ~value:false = brute false)

let test_const_regs () =
  let nl, ff = Test_support.constant_dffr () in
  match constant_flops nl with
  | [ (i, v) ] ->
    Alcotest.(check int) "the flop" ff i;
    Alcotest.check l4 "constant 0" Logic4.L0 v
  | l -> Alcotest.failf "expected 1 constant flop, got %d" (List.length l)

let test_tie_address_registers () =
  let b = B.create () in
  let d0 = B.input b "d0" in
  let d1 = B.input b "d1" in
  let a0 = B.dff b ~name:"addr0" ~roles:[ Netlist.Address_reg 0 ] ~d:d0 in
  let a1 = B.dff b ~name:"addr1" ~roles:[ Netlist.Address_reg 1 ] ~d:d1 in
  let s = B.xor2 b ~name:"s" a0 a1 in
  let _ = B.output b "o" s in
  let nl = B.freeze_exn b in
  let forced bit = if bit = 1 then Some Logic4.L0 else None in
  let nl' = Const_regs.tie_addresses nl ~forced in
  let t = Ternary.run nl' in
  (* addr1 output fanout reads 0; addr0 stays free *)
  Alcotest.check l4 "s follows addr0 when addr1 tied" Logic4.X
    (Ternary.const_of t (Netlist.find_exn nl' "s"));
  let a1' = Netlist.find_exn nl' "addr1" in
  Alcotest.(check int) "addr1 fanout rerouted" 0
    (Array.length (Netlist.fanout nl' a1'));
  (* D pin of addr1 is tied *)
  Alcotest.(check bool) "addr1 D tied" true
    (Cell.is_tie (Netlist.kind nl' (Netlist.fanin nl' a1').(0)))

let test_memmap_validation () =
  (try
     ignore (Memmap.region ~lo:5 ~hi:1 () : Memmap.region);
     Alcotest.fail "expected error"
   with Invalid_argument _ -> ());
  (try
     ignore (Memmap.free_bits ~width:8 [] : int list);
     Alcotest.fail "expected empty-region error"
   with Invalid_argument _ -> ())

let test_tie_input_not_input () =
  let nl = Test_support.full_adder () in
  let g = Netlist.find_exn nl "sum_net" in
  try
    ignore (tie_input nl g Logic4.L0 : Netlist.t);
    Alcotest.fail "expected error"
  with Invalid_argument _ -> ()

let test_trace_no_chains () =
  let nl = Test_support.full_adder () in
  Alcotest.(check int) "no chains" 0 (List.length (Scan_trace.trace nl));
  Alcotest.(check int) "no scan-only" 0
    (List.length (Scan_trace.scan_only_nodes nl))

let test_script_unknown_name () =
  let nl = Test_support.full_adder () in
  try
    ignore (Script.apply nl [ Script.Tie_input ("nope", Logic4.L0) ] : Netlist.t);
    Alcotest.fail "expected error"
  with Invalid_argument _ -> ()

let test_sweep () =
  let b = B.create () in
  let x = B.input b "x" in
  let live = B.not_ b ~name:"live" x in
  let dead1 = B.and2 b ~name:"dead1" x live in
  let _dead2 = B.buf b ~name:"dead2" dead1 in
  let deadff = B.dff b ~name:"deadff" ~d:dead1 in
  ignore deadff;
  let _ = B.output b "o" live in
  let nl = B.freeze_exn b in
  let dead = Sweep.dead_nodes nl in
  Alcotest.(check int) "three dead" 3 (List.length dead);
  let swept, removed = Sweep.sweep nl in
  Alcotest.(check int) "removed" 3 removed;
  Alcotest.(check bool) "live kept" true (Netlist.find swept "live" <> None);
  Alcotest.(check bool) "dead gone" true (Netlist.find swept "dead1" = None);
  (* inputs survive even if dangling *)
  Alcotest.(check int) "input kept" 1 (Array.length (Netlist.inputs swept))

let test_sweep_keeps_everything_when_alive () =
  let nl = Test_support.full_adder () in
  let swept, removed = Sweep.sweep nl in
  Alcotest.(check int) "nothing dead" 0 removed;
  Alcotest.(check int) "same size" (Netlist.length nl) (Netlist.length swept)

(* These two cases exercised the deprecated [Dft_lint] shim; with the
   shim deleted they drive [Olfu_lint] directly, pinning the same
   historical codes and severities. *)
let test_dft_lint_clean_soc () =
  let nl = Olfu_soc.Soc.generate Olfu_soc.Soc.tcore16 in
  let findings = Olfu_lint.Lint.findings nl in
  (* the generated SoC is fully scanned with one SE and a reset: no errors *)
  Alcotest.(check int) "no errors" 0
    (List.length (Olfu_lint.Lint.errors findings));
  let has code =
    List.exists (fun (f : Olfu_lint.Rule.finding) -> f.Olfu_lint.Rule.code = code)
      findings
  in
  Alcotest.(check bool) "reports steady constants" true (has "NET-002");
  Alcotest.(check bool) "reports scoap hotspots" true (has "TEST-001");
  Alcotest.(check bool) "no unscanned flops" false (has "SCAN-001")

let test_dft_lint_findings () =
  let b = B.create () in
  let d = B.input b "d" in
  (* unscanned, unreset flop; a floating net; a dead cone *)
  let ff = B.dff b ~name:"ff" ~d in
  let z = B.tie b Logic4.X in
  let g = B.and2 b ~name:"g" ff z in
  let _dead = B.not_ b ~name:"deadgate" g in
  let _ = B.output b "o" g in
  let si = B.input b ~roles:[ Netlist.Scan_in ] "si" in
  ignore si;
  let nl = B.freeze_exn b in
  let outcome = Olfu_lint.Lint.run nl in
  let findings = outcome.Olfu_lint.Lint.findings in
  let codes =
    List.map (fun (f : Olfu_lint.Rule.finding) -> f.Olfu_lint.Rule.code)
      findings
  in
  List.iter
    (fun c ->
      Alcotest.(check bool) (c ^ " reported") true (List.mem c codes))
    [ "SCAN-001"; "SCAN-002"; "RST-001"; "RST-002"; "NET-001"; "OBS-001" ];
  Alcotest.(check bool) "scan-002 is an error" true
    (List.length (Olfu_lint.Lint.errors findings) >= 1);
  (* report prints *)
  let s = Format.asprintf "%a" Olfu_lint.Render.text outcome in
  Alcotest.(check bool) "report text" true (String.length s > 50)

let test_script () =
  let nl = chain_netlist () in
  let script =
    [
      Script.Tie_input ("se", Logic4.L0);
      Script.Float_output "so";
      Script.Tie_flop ("f2", Logic4.L0);
    ]
  in
  let nl' = Script.apply nl script in
  Alcotest.(check int) "outputs reduced" 3 (Array.length (Netlist.outputs nl'));
  let t = Ternary.run nl' in
  Alcotest.check l4 "q2 reads tied flop" Logic4.L0
    (Ternary.const_of t
       (Netlist.fanin nl' (Netlist.find_exn nl' "q2")).(0));
  (* printable *)
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let s = Format.asprintf "%a" Script.pp script in
  Alcotest.(check bool) "pp mentions float" true (contains s "float-output so")

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "manip"
    [
      ( "tie",
        [
          Alcotest.test_case "input" `Quick test_tie_input;
          Alcotest.test_case "net keeps driver" `Quick test_tie_net_keeps_driver;
          Alcotest.test_case "pin" `Quick test_tie_pin;
        ] );
      ( "float",
        [ Alcotest.test_case "outputs" `Quick test_float_outputs ] );
      ( "scan",
        [
          Alcotest.test_case "trace" `Quick test_scan_trace;
          Alcotest.test_case "scan-only nodes" `Quick test_scan_only_nodes;
          Alcotest.test_case "prune counts" `Quick test_scan_prune_counts;
          Alcotest.test_case "agrees with engine" `Quick
            test_scan_rule_agrees_with_engine;
        ] );
      ( "memmap",
        [
          Alcotest.test_case "paper case" `Quick test_memmap_paper_case;
          Alcotest.test_case "brute force" `Quick test_memmap_brute_force;
          qt prop_memmap_matches_enumeration;
        ] );
      ( "const regs",
        [
          Alcotest.test_case "detect" `Quick test_const_regs;
          Alcotest.test_case "tie address regs" `Quick test_tie_address_registers;
        ] );
      ( "validation",
        [
          Alcotest.test_case "memmap regions" `Quick test_memmap_validation;
          Alcotest.test_case "tie non-input" `Quick test_tie_input_not_input;
          Alcotest.test_case "no chains" `Quick test_trace_no_chains;
          Alcotest.test_case "script unknown name" `Quick
            test_script_unknown_name;
        ] );
      ( "lint",
        [
          Alcotest.test_case "clean soc" `Quick test_dft_lint_clean_soc;
          Alcotest.test_case "findings" `Quick test_dft_lint_findings;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "dead logic" `Quick test_sweep;
          Alcotest.test_case "alive untouched" `Quick
            test_sweep_keeps_everything_when_alive;
        ] );
      ("script", [ Alcotest.test_case "apply + pp" `Quick test_script ]);
      ("ties", [ qt prop_one_pass_ties ]);
    ]

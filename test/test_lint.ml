(* Tests for the olfu_lint static-analysis framework: every built-in
   rule gets a firing and a non-firing case, the engine's config layer
   (disable/override/waive/baseline) is exercised end to end, the JSON
   renderer is checked against a small strict JSON parser, and the
   OBS-001 dead-cone analysis is cross-checked against the Observe
   X-path engine on random netlists. *)

open Olfu_logic
open Olfu_netlist
open Olfu_lint
module B = Netlist.Builder

let codes ?config nl =
  Lint.findings ?config nl
  |> List.map (fun (f : Rule.finding) -> f.Rule.code)
  |> List.sort_uniq compare

let has ?config nl code = List.mem code (codes ?config nl)

let find_finding ?config nl code =
  List.find_opt
    (fun (f : Rule.finding) -> f.Rule.code = code)
    (Lint.findings ?config nl)

let check_fires ?config nl code =
  Alcotest.(check bool) (code ^ " fires") true (has ?config nl code)

let check_silent ?config nl code =
  Alcotest.(check bool) (code ^ " silent") false (has ?config nl code)

(* ---------------------------------------------------------------- *)
(* Reference netlists                                               *)
(* ---------------------------------------------------------------- *)

(* A netlist that is clean for every rule except the always-informative
   SCOAP hotspot report: full mux-scan with one SE net, a single reset
   domain wired straight to a Reset-role input, a chain with scan-out,
   no buffers on the shift path, no floating nets, no dead logic. *)
let clean_netlist () =
  let b = B.create () in
  let rstn = B.input b ~roles:[ Netlist.Reset ] "rstn" in
  let se = B.input b ~roles:[ Netlist.Scan_enable ] "se" in
  let si = B.input b ~roles:[ Netlist.Scan_in ] "si" in
  let d0 = B.input b "d0" in
  let d1 = B.input b "d1" in
  let f0 = B.sdffr b ~name:"f0" ~d:d0 ~si ~se ~rstn in
  let f1 = B.sdffr b ~name:"f1" ~d:d1 ~si:f0 ~se ~rstn in
  let g = B.xor2 b ~name:"g" f0 f1 in
  let f2 = B.sdffr b ~name:"f2" ~d:g ~si:f1 ~se ~rstn in
  let _ = B.output b "q0" f0 in
  let _ = B.output b "q1" f1 in
  let _ = B.output b ~roles:[ Netlist.Scan_out ] "so" f2 in
  B.freeze_exn b

(* The historical Dft_lint findings netlist: unscanned/unreset flop, a
   floating net, a dead cone, a chainless scan-in. *)
let messy_netlist () =
  let b = B.create () in
  let d = B.input b "d" in
  let ff = B.dff b ~name:"ff" ~d in
  let z = B.tie b Logic4.X in
  let g = B.and2 b ~name:"g" ff z in
  let _dead = B.not_ b ~name:"deadgate" g in
  let _ = B.output b "o" g in
  let si = B.input b ~roles:[ Netlist.Scan_in ] "si" in
  ignore si;
  B.freeze_exn b

let test_clean_exact () =
  let nl = clean_netlist () in
  (* NET-002 is inherent to any reset netlist: the ternary engine holds
     the Reset-role input at its inactive level, so the rstn net itself
     is steady-state constant.  TEST-001 always reports SCOAP hotspots,
     SEU-001 inventories the unhardened state any flop-with-output
     netlist has, and SLICE-002 correctly flags f2, whose only observer
     is the scan-out marker — invisible to the mission. *)
  Alcotest.(check (list string)) "only the four informative reports"
    [ "NET-002"; "SEU-001"; "SLICE-002"; "TEST-001" ] (codes nl);
  let o = Lint.run nl in
  Alcotest.(check bool) "max severity info" true
    (Lint.max_severity o = Some Rule.Info);
  Alcotest.(check bool) "passes --fail-on warning" false
    (Lint.fails ~fail_on:Rule.Warning o);
  Alcotest.(check bool) "trips --fail-on info" true
    (Lint.fails ~fail_on:Rule.Info o)

(* ---------------------------------------------------------------- *)
(* Per-rule firing cases                                            *)
(* ---------------------------------------------------------------- *)

let test_scan_001 () =
  let nl = messy_netlist () in
  check_fires nl "SCAN-001";
  check_silent (clean_netlist ()) "SCAN-001"

let test_scan_002 () =
  (* scan-in port reaching no SI pin *)
  let nl = messy_netlist () in
  check_fires nl "SCAN-002";
  check_silent (clean_netlist ()) "SCAN-002"

let test_scan_003 () =
  let b = B.create () in
  let si = B.input b ~roles:[ Netlist.Scan_in ] "si" in
  let se = B.input b ~roles:[ Netlist.Scan_enable ] "se" in
  let d = B.input b "d" in
  let f0 = B.sdff b ~name:"f0" ~d ~si ~se in
  let _ = B.output b "q" f0 in
  (* no scan-out port *)
  let nl = B.freeze_exn b in
  check_fires nl "SCAN-003";
  check_silent (clean_netlist ()) "SCAN-003"

let test_scan_004 () =
  let b = B.create () in
  let si = B.input b ~roles:[ Netlist.Scan_in ] "si" in
  let se1 = B.input b ~roles:[ Netlist.Scan_enable ] "se1" in
  let se2 = B.input b "se2" in
  let d = B.input b "d" in
  let f0 = B.sdff b ~name:"f0" ~d ~si ~se:se1 in
  let f1 = B.sdff b ~name:"f1" ~d ~si:f0 ~se:se2 in
  let _ = B.output b ~roles:[ Netlist.Scan_out ] "so" f1 in
  let nl = B.freeze_exn b in
  check_fires nl "SCAN-004";
  check_silent (clean_netlist ()) "SCAN-004"

let test_scan_005 () =
  let b = B.create () in
  let si = B.input b ~roles:[ Netlist.Scan_in ] "si" in
  let se = B.input b ~roles:[ Netlist.Scan_enable ] "se" in
  let sen = B.not_ b ~name:"sen" se in
  let d = B.input b "d" in
  let f0 = B.sdff b ~name:"f0" ~d ~si ~se in
  let f1 = B.sdff b ~name:"f1" ~d ~si:f0 ~se:sen in
  let _ = B.output b ~roles:[ Netlist.Scan_out ] "so" f1 in
  let nl = B.freeze_exn b in
  check_fires nl "SCAN-005";
  (match find_finding nl "SCAN-005" with
  | Some f ->
    Alcotest.(check (option int)) "points at the inverted cell"
      (Some (Netlist.find_exn nl "f1"))
      f.Rule.node
  | None -> Alcotest.fail "SCAN-005 missing");
  check_silent (clean_netlist ()) "SCAN-005"

let test_scan_006 () =
  (* a buffer on the shift path *)
  let b = B.create () in
  let si = B.input b ~roles:[ Netlist.Scan_in ] "si" in
  let se = B.input b ~roles:[ Netlist.Scan_enable ] "se" in
  let d = B.input b "d" in
  let f0 = B.sdff b ~name:"f0" ~d ~si ~se in
  let sb = B.buf b ~name:"sb" f0 in
  let f1 = B.sdff b ~name:"f1" ~d ~si:sb ~se in
  let _ = B.output b ~roles:[ Netlist.Scan_out ] "so" f1 in
  let nl = B.freeze_exn b in
  check_fires nl "SCAN-006";
  (match find_finding nl "SCAN-006" with
  | Some f ->
    Alcotest.(check (list int)) "census path is the buffer"
      [ Netlist.find_exn nl "sb" ]
      f.Rule.path
  | None -> Alcotest.fail "SCAN-006 missing");
  check_silent (clean_netlist ()) "SCAN-006"

let test_scan_007 () =
  let b = B.create () in
  let se = B.input b ~roles:[ Netlist.Scan_enable ] "se" in
  let d = B.input b "d" in
  let sia = B.input b ~roles:[ Netlist.Scan_in ] "sia" in
  let fa = B.sdff b ~name:"fa" ~d ~si:sia ~se in
  let _ = B.output b ~roles:[ Netlist.Scan_out ] "soa" fa in
  let sib = B.input b ~roles:[ Netlist.Scan_in ] "sib" in
  let last =
    let prev = ref sib in
    for k = 0 to 9 do
      prev := B.sdff b ~name:(Printf.sprintf "fb%d" k) ~d ~si:!prev ~se
    done;
    !prev
  in
  let _ = B.output b ~roles:[ Netlist.Scan_out ] "sob" last in
  let nl = B.freeze_exn b in
  check_fires nl "SCAN-007";
  check_silent (clean_netlist ()) "SCAN-007"

let test_loop_001 () =
  let b = B.create () in
  let se = B.input b ~roles:[ Netlist.Scan_enable ] "se" in
  let d = B.input b "d" in
  let fa = B.sdff b ~name:"fa" ~d ~si:d ~se in
  let fb = B.sdff b ~name:"fb" ~d ~si:fa ~se in
  (* close the loop: fa shifts from fb *)
  let fanin = B.node_fanin b fa in
  fanin.(1) <- fb;
  B.set_fanin b fa fanin;
  let _ = B.output b "o" fa in
  let nl = B.freeze_exn b in
  check_fires nl "LOOP-001";
  (match find_finding nl "LOOP-001" with
  | Some f ->
    let cycle = List.sort compare f.Rule.path in
    Alcotest.(check (list int)) "cycle is exactly the two cells"
      (List.sort compare [ Netlist.find_exn nl "fa"; Netlist.find_exn nl "fb" ])
      cycle;
    Alcotest.(check bool) "loop is an error" true
      (f.Rule.severity = Rule.Error)
  | None -> Alcotest.fail "LOOP-001 missing");
  check_silent (clean_netlist ()) "LOOP-001"

let test_drv_001 () =
  let b = B.create () in
  let si = B.input b ~roles:[ Netlist.Scan_in ] "si" in
  let se = B.input b ~roles:[ Netlist.Scan_enable ] "se" in
  let d = B.input b "d" in
  let f0 = B.sdff b ~name:"f0" ~d ~si ~se in
  let f1 = B.sdff b ~name:"f1" ~d ~si:f0 ~se in
  let f2 = B.sdff b ~name:"f2" ~d ~si:f0 ~se in
  let _ = B.output b ~roles:[ Netlist.Scan_out ] "so" f1 in
  let _ = B.output b "q2" f2 in
  let nl = B.freeze_exn b in
  check_fires nl "DRV-001";
  check_silent (clean_netlist ()) "DRV-001"

let test_drv_002 () =
  let b = B.create () in
  let x = B.input b "x" in
  let g = B.not_ b ~name:"g" x in
  let _ = B.output b "o1" g in
  let _ = B.output b "o2" g in
  let nl = B.freeze_exn b in
  check_fires nl "DRV-002";
  check_silent (clean_netlist ()) "DRV-002"

let test_rst_001_002 () =
  let nl = messy_netlist () in
  check_fires nl "RST-001";
  check_fires nl "RST-002";
  let clean = clean_netlist () in
  check_silent clean "RST-001";
  check_silent clean "RST-002"

let test_rst_003 () =
  (* rstn pin fed by a plain input that does NOT carry the Reset role *)
  let b = B.create () in
  let r = B.input b "some_net" in
  let d = B.input b "d" in
  let ff = B.dffr b ~name:"ff" ~d ~rstn:r in
  let _ = B.output b "q" ff in
  let nl = B.freeze_exn b in
  check_fires nl "RST-003";
  check_silent nl "RST-006";
  check_silent (clean_netlist ()) "RST-003"

let test_rst_004 () =
  let b = B.create () in
  let r1 = B.input b ~roles:[ Netlist.Reset ] "r1" in
  let r2 = B.input b ~roles:[ Netlist.Reset ] "r2" in
  let d = B.input b "d" in
  let fa = B.dffr b ~name:"fa" ~d ~rstn:r1 in
  let fb = B.dffr b ~name:"fb" ~d ~rstn:r2 in
  let _ = B.output b "qa" fa in
  let _ = B.output b "qb" fb in
  let nl = B.freeze_exn b in
  check_fires nl "RST-004";
  check_silent (clean_netlist ()) "RST-004"

let test_rst_005 () =
  let b = B.create () in
  let r = B.input b ~roles:[ Netlist.Reset ] "rstn" in
  let rn = B.not_ b ~name:"rn" r in
  let d = B.input b "d" in
  let ff = B.dffr b ~name:"ff" ~d ~rstn:rn in
  let _ = B.output b "q" ff in
  let nl = B.freeze_exn b in
  check_fires nl "RST-005";
  check_silent (clean_netlist ()) "RST-005"

let test_rst_006 () =
  (* the TAP idiom: reset ANDed with a mission-tied debug pin keeps its
     root, so it is a gated reset (info), not an orphan or a domain *)
  let b = B.create () in
  let r = B.input b ~roles:[ Netlist.Reset ] "rstn" in
  let trstn = B.input b ~roles:[ Netlist.Debug_control ] "trstn" in
  let gated = B.and2 b ~name:"tap_rst" r trstn in
  let d = B.input b "d" in
  let fa = B.dffr b ~name:"fa" ~d ~rstn:r in
  let fb = B.dffr b ~name:"fb" ~d ~rstn:gated in
  let _ = B.output b "qa" fa in
  let _ = B.output b "qb" fb in
  let nl = B.freeze_exn b in
  check_fires nl "RST-006";
  check_silent nl "RST-003";
  check_silent nl "RST-004";
  check_silent (clean_netlist ()) "RST-006"

let test_clk_001 () =
  let b = B.create () in
  let clk = B.input b ~roles:[ Netlist.Clock ] "clk" in
  let clk2 = B.input b ~roles:[ Netlist.Clock ] "clk_unused" in
  ignore clk2;
  let g = B.buf b ~name:"g" clk in
  let _ = B.output b "o" g in
  let nl = B.freeze_exn b in
  check_fires nl "CLK-001";
  let count =
    Lint.findings nl
    |> List.filter (fun (f : Rule.finding) -> f.Rule.code = "CLK-001")
    |> List.length
  in
  Alcotest.(check int) "only the used clock is flagged" 1 count;
  check_silent (clean_netlist ()) "CLK-001"

let test_net_001_002 () =
  let nl = messy_netlist () in
  check_fires nl "NET-001";
  let b = B.create () in
  let x = B.input b "x" in
  let t0 = B.tie b Logic4.L0 in
  let g = B.and2 b ~name:"g" x t0 in
  let _ = B.output b "o" g in
  let const_nl = B.freeze_exn b in
  check_fires const_nl "NET-002";
  check_silent (clean_netlist ()) "NET-001";
  (* nothing constant in a free-input combinational netlist *)
  let b = B.create () in
  let x = B.input b "x" in
  let g = B.not_ b ~name:"g" x in
  let _ = B.output b "o" g in
  check_silent (B.freeze_exn b) "NET-002"

let test_xprop_001 () =
  let nl = messy_netlist () in
  (* X from the Tiex reaches output o through the AND *)
  check_fires nl "XPROP-001";
  (* an absorbed X: and2(tiex, 0) is constant 0, nothing to report *)
  let b = B.create () in
  let z = B.tie b Logic4.X in
  let t0 = B.tie b Logic4.L0 in
  let g = B.and2 b ~name:"g" z t0 in
  let _ = B.output b "o" g in
  let absorbed = B.freeze_exn b in
  check_fires absorbed "NET-001";
  check_silent absorbed "XPROP-001"

let test_const_001 () =
  let b = B.create () in
  let di = B.input b ~roles:[ Netlist.Debug_control ] "di" in
  let x = B.input b "x" in
  let g = B.and2 b ~name:"g" di x in
  let _ = B.output b "o" g in
  let nl = B.freeze_exn b in
  check_fires nl "CONST-001";
  (match find_finding nl "CONST-001" with
  | Some f ->
    Alcotest.(check bool) "g is in the newly-constant set" true
      (List.mem (Netlist.find_exn nl "g") f.Rule.path)
  | None -> Alcotest.fail "CONST-001 missing");
  (* no debug controls -> nothing to assume -> silent *)
  check_silent (clean_netlist ()) "CONST-001"

let test_obs_001 () =
  let nl = messy_netlist () in
  check_fires nl "OBS-001";
  (match find_finding nl "OBS-001" with
  | Some f ->
    Alcotest.(check (list int)) "cone is exactly the dead gate"
      [ Netlist.find_exn nl "deadgate" ]
      f.Rule.path
  | None -> Alcotest.fail "OBS-001 missing");
  check_silent (clean_netlist ()) "OBS-001"

let test_test_001 () =
  let nl = clean_netlist () in
  check_fires nl "TEST-001";
  (* scoap_top = 0 turns the report off *)
  let config =
    {
      Config.default with
      Config.thresholds =
        { Ctx.default_thresholds with Ctx.scoap_top = 0 };
    }
  in
  check_silent ~config nl "TEST-001"

let test_dbg_001 () =
  let b = B.create () in
  let di = B.input b ~roles:[ Netlist.Debug_control ] "di_free" in
  let t0 = B.tie b Logic4.L0 in
  B.add_role b t0 Netlist.Debug_control;
  let x = B.input b "x" in
  let m = B.mux2 b ~name:"m" ~sel:t0 ~a:x ~b:di in
  let _ = B.output b "o" m in
  let nl = B.freeze_exn b in
  check_fires nl "DBG-001";
  check_silent nl "DBG-002";
  check_silent (clean_netlist ()) "DBG-001"

let test_dbg_002 () =
  let b = B.create () in
  let t0 = B.tie b Logic4.L0 in
  B.add_role b t0 Netlist.Debug_control;
  let x = B.input b "x" in
  let m = B.mux2 b ~name:"m" ~sel:t0 ~a:x ~b:t0 in
  let _ = B.output b "o" m in
  let _ = B.output b ~roles:[ Netlist.Debug_observe ] "dbgo" m in
  let nl = B.freeze_exn b in
  check_fires nl "DBG-002";
  check_silent nl "DBG-001";
  check_silent (clean_netlist ()) "DBG-002"

let test_struct_001 () =
  let b = B.create () in
  let x = B.input b "x" in
  let y = B.input b "y" in
  let g1 = B.and2 b ~name:"g1" x y in
  let g2 = B.or2 b ~name:"g2" x y in
  let g3 = B.xor2 b ~name:"g3" x y in
  let _ = B.output b "o1" g1 in
  let _ = B.output b "o2" g2 in
  let _ = B.output b "o3" g3 in
  let nl = B.freeze_exn b in
  let config =
    {
      Config.default with
      Config.thresholds = { Ctx.default_thresholds with Ctx.max_fanout = 2 };
    }
  in
  check_fires ~config nl "STRUCT-001";
  check_silent nl "STRUCT-001"

let test_struct_002 () =
  let b = B.create () in
  let x = B.input b "x" in
  let n1 = B.not_ b x in
  let n2 = B.not_ b n1 in
  let n3 = B.not_ b n2 in
  let _ = B.output b "o" n3 in
  let nl = B.freeze_exn b in
  let config =
    {
      Config.default with
      Config.thresholds = { Ctx.default_thresholds with Ctx.max_depth = 1 };
    }
  in
  check_fires ~config nl "STRUCT-002";
  check_silent nl "STRUCT-002"

let test_seu_001 () =
  (* a flop on a functional output with no alarm observer is exposed *)
  let b = B.create () in
  let d = B.input b "d" in
  let ff = B.dff b ~name:"ff" ~d in
  let _ = B.output b "o" ff in
  check_fires (B.freeze_exn b) "SEU-001";
  (* the same flop with a parity-style observer is not *)
  let b = B.create () in
  let d = B.input b "d" in
  let ff = B.dff b ~name:"ff" ~d in
  let ff2 = B.dff b ~name:"shadow" ~d in
  let _ = B.output b "o" ff in
  let _ = B.output b "alarm_flag" (B.xor2 b ff ff2) in
  check_silent (B.freeze_exn b) "SEU-001";
  (* a flop driving nothing functional is not exposed either *)
  let b = B.create () in
  let d = B.input b "d" in
  let _ff = B.dff b ~name:"ff" ~d in
  let _ = B.output b "o" (B.buf b d) in
  check_silent (B.freeze_exn b) "SEU-001"

let test_slice_001 () =
  (* mission ties the debug select to 0, so the mux reads only the
     flop's own feedback: no functional input can steer the state *)
  let b = B.create () in
  let dbg = B.input b ~roles:[ Netlist.Debug_control ] "dbg_sel" in
  let d = B.input b "d" in
  let ff = B.dff b ~name:"ff" ~d in
  let m = B.mux2 b ~name:"m" ~sel:dbg ~a:ff ~b:d in
  B.set_fanin b ff [| m |];
  let _ = B.output b "o" ff in
  check_fires (B.freeze_exn b) "SLICE-001";
  (* the same mux on a functional select keeps both branches alive *)
  let b = B.create () in
  let sel = B.input b "sel" in
  let d = B.input b "d" in
  let ff = B.dff b ~name:"ff" ~d in
  let m = B.mux2 b ~name:"m" ~sel ~a:ff ~b:d in
  B.set_fanin b ff [| m |];
  let _ = B.output b "o" ff in
  check_silent (B.freeze_exn b) "SLICE-001"

let test_slice_002 () =
  (* a toggling flop whose only observer is the scan-out marker *)
  let b = B.create () in
  let d = B.input b "d" in
  let ff = B.dff b ~name:"ff" ~d in
  B.set_fanin b ff [| B.not_ b ff |];
  let _ = B.output b ~roles:[ Netlist.Scan_out ] "so" ff in
  let _ = B.output b "o" (B.buf b d) in
  check_fires (B.freeze_exn b) "SLICE-002";
  (* the same flop with a functional output is observed *)
  let b = B.create () in
  let d = B.input b "d" in
  let ff = B.dff b ~name:"ff" ~d in
  B.set_fanin b ff [| B.not_ b ff |];
  let _ = B.output b "q" ff in
  let _ = B.output b "o" (B.buf b d) in
  check_silent (B.freeze_exn b) "SLICE-002"

(* Reachability must flow through a cycle: three flops in one feedback
   loop (one SCC), with a functional input [go] entering st[0] only and a
   functional output on st[2] only.  Each rule is then silent for every
   member, and without that input or output it names every member. *)
let slice_ring ~go ~observe =
  let b = B.create () in
  let rstn = B.input ~roles:[ Netlist.Reset ] b "rstn" in
  let ph = B.tie b Logic4.L0 in
  let st =
    Array.init 3 (fun i ->
        B.dffr b ~name:(Printf.sprintf "st[%d]" i) ~d:ph ~rstn)
  in
  let idle = B.nor2 b (B.or2 b st.(0) st.(1)) st.(2) in
  let d0 = if go then B.and2 b idle (B.input b "go") else idle in
  B.set_fanin b st.(0) [| d0; rstn |];
  B.set_fanin b st.(1) [| st.(0); rstn |];
  B.set_fanin b st.(2) [| st.(1); rstn |];
  let _ =
    if observe then B.output b "q" st.(2)
    else B.output b ~roles:[ Netlist.Scan_out ] "so" st.(2)
  in
  (B.freeze_exn b, Array.to_list st)

let test_slice_cycle () =
  let named code nl =
    match find_finding nl code with
    | None -> []
    | Some f -> List.sort compare f.Rule.path
  in
  let nl, _ = slice_ring ~go:true ~observe:true in
  check_silent nl "SLICE-001";
  check_silent nl "SLICE-002";
  let nl, st = slice_ring ~go:false ~observe:true in
  Alcotest.(check (list int))
    "SLICE-001 names every member" st (named "SLICE-001" nl);
  check_silent nl "SLICE-002";
  let nl, st = slice_ring ~go:true ~observe:false in
  check_silent nl "SLICE-001";
  Alcotest.(check (list int))
    "SLICE-002 names every member" st (named "SLICE-002" nl)

(* ---------------------------------------------------------------- *)
(* SW rules: software-derived facts                                 *)
(* ---------------------------------------------------------------- *)

(* A mission address-register flop fed by free logic: plain ternary
   cannot call it constant, so a software-proven constant bit is a tie
   opportunity (SW-CONST).  The other SW rules fire straight off the
   facts record. *)
let sw_netlist () =
  let b = B.create () in
  let rstn = B.input b ~roles:[ Netlist.Reset ] "rstn" in
  let d = B.input b "d" in
  let ff =
    B.dffr b ~name:"pc[5]" ~roles:[ Netlist.Address_reg 5 ] ~d ~rstn
  in
  let _ = B.output b "q" ff in
  B.freeze_exn b

let sw_facts =
  {
    Ctx.sw_label = "synthetic-suite";
    sw_width = 16;
    sw_const_addr_bits = [ (5, false) ];
    sw_assume = [];
    sw_dead_code = [ ("routine_a", [ 0x12; 0x13 ]) ];
    sw_store_total = 0;
    sw_ram_stores = false;
    sw_unmapped = [ "routine_a: store at 0x7 to top" ];
  }

let sw_codes nl software =
  Lint.findings ?software nl
  |> List.map (fun (f : Rule.finding) -> f.Rule.code)
  |> List.sort_uniq compare

let test_sw_rules () =
  let nl = sw_netlist () in
  let with_facts = sw_codes nl (Some sw_facts) in
  List.iter
    (fun c ->
      Alcotest.(check bool) (c ^ " fires") true (List.mem c with_facts))
    [ "SW-CONST"; "SW-DEAD"; "SW-OBS"; "SW-MAP" ];
  (* SW-OBS distinguishes no-store from no-RAM-store *)
  let facts_stores = { sw_facts with Ctx.sw_store_total = 4 } in
  (match
     List.find_opt
       (fun (f : Rule.finding) -> f.Rule.code = "SW-OBS")
       (Lint.findings ~software:facts_stores nl)
   with
  | Some f ->
    Alcotest.(check bool) "message names the store count" true
      (String.length f.Rule.message > 0
      && String.sub f.Rule.message 0 4 = "none")
  | None -> Alcotest.fail "SW-OBS should fire without RAM stores");
  (* a healthy record silences everything *)
  let healthy =
    {
      sw_facts with
      Ctx.sw_const_addr_bits = [];
      sw_dead_code = [];
      sw_store_total = 4;
      sw_ram_stores = true;
      sw_unmapped = [];
    }
  in
  List.iter
    (fun c ->
      Alcotest.(check bool) (c ^ " silent when healthy") false
        (List.mem c (sw_codes nl (Some healthy))))
    [ "SW-CONST"; "SW-DEAD"; "SW-OBS"; "SW-MAP" ];
  (* and without any facts the rules never run *)
  List.iter
    (fun c ->
      Alcotest.(check bool) (c ^ " silent without facts") false
        (List.mem c (sw_codes nl None)))
    [ "SW-CONST"; "SW-DEAD"; "SW-OBS"; "SW-MAP" ]

let test_sw_assume_feeds_const_001 () =
  (* software assumptions join the mission tie script inside
     mission_ternary, so CONST-001 sees the flop as mission-constant *)
  let nl = sw_netlist () in
  let ff = Netlist.find_exn nl "pc[5]" in
  let facts =
    { sw_facts with Ctx.sw_assume = [ (ff, Logic4.L0) ] }
  in
  let ctx = Ctx.create ~software:facts nl in
  Alcotest.(check bool) "assumption recorded" true
    (List.mem_assoc ff (Ctx.assumptions ctx));
  let mt = Ctx.mission_ternary ctx in
  Alcotest.(check bool) "mission ternary holds the flop" true
    (Logic4.equal (Olfu_atpg.Ternary.const_of mt ff) Logic4.L0)

(* ---------------------------------------------------------------- *)
(* Registry invariants                                              *)
(* ---------------------------------------------------------------- *)

let test_registry () =
  let rules = Lint.registry in
  Alcotest.(check bool) "at least 18 rules" true (List.length rules >= 18);
  let codes = List.map (fun (r : Rule.t) -> r.Rule.code) rules in
  Alcotest.(check int) "codes unique"
    (List.length codes)
    (List.length (List.sort_uniq compare codes));
  List.iter
    (fun (r : Rule.t) ->
      Alcotest.(check bool)
        (r.Rule.code ^ " documented")
        true
        (String.length r.Rule.title > 0 && String.length r.Rule.doc > 0))
    rules;
  Alcotest.(check bool) "lookup hit" true (Lint.find_rule "SCAN-001" <> None);
  Alcotest.(check bool) "lookup miss" true (Lint.find_rule "NOPE-999" = None)

(* ---------------------------------------------------------------- *)
(* Config: disable, override, waive, baseline                       *)
(* ---------------------------------------------------------------- *)

let test_disable () =
  let nl = messy_netlist () in
  let config = { Config.default with Config.disabled = [ "SCAN-001" ] } in
  check_silent ~config nl "SCAN-001";
  check_fires ~config nl "SCAN-002";
  (* whole category *)
  let config = { Config.default with Config.disabled = [ "scan" ] } in
  check_silent ~config nl "SCAN-001";
  check_silent ~config nl "SCAN-002";
  check_fires ~config nl "RST-001"

let test_severity_override () =
  let nl = messy_netlist () in
  let config =
    {
      Config.default with
      Config.severity_overrides = [ ("SCAN-001", Rule.Error) ];
    }
  in
  match find_finding ~config nl "SCAN-001" with
  | Some f ->
    Alcotest.(check bool) "promoted to error" true
      (f.Rule.severity = Rule.Error)
  | None -> Alcotest.fail "SCAN-001 missing"

let test_waiver_parse () =
  let src =
    "# comment\n\
     SCAN-001 core.ff12   known unstitched prototype cell\n\
     NET-001  dbg_*       floated on purpose\n\
     OBS-001  *\n\
     \n"
  in
  (match Config.parse_waivers src with
  | Ok [ w1; w2; w3 ] ->
    Alcotest.(check string) "code" "SCAN-001" w1.Config.w_code;
    Alcotest.(check (option string)) "node" (Some "core.ff12") w1.Config.w_node;
    Alcotest.(check string) "reason" "known unstitched prototype cell"
      w1.Config.w_reason;
    Alcotest.(check (option string)) "prefix kept" (Some "dbg_*")
      w2.Config.w_node;
    Alcotest.(check (option string)) "star is any" None w3.Config.w_node
  | Ok l -> Alcotest.failf "expected 3 waivers, got %d" (List.length l)
  | Error e -> Alcotest.fail e);
  match Config.parse_waivers "JUST-A-CODE\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected parse error"

let test_waiver_matching () =
  let nl = messy_netlist () in
  let waiver node =
    { Config.w_code = "OBS-001"; Config.w_node = node; Config.w_reason = "t" }
  in
  let run w =
    let config = { Config.default with Config.waivers = [ w ] } in
    Lint.run ~config nl
  in
  (* exact node name *)
  let o = run (waiver (Some "deadgate")) in
  Alcotest.(check bool) "exact waives" true
    (not (List.mem "OBS-001" (List.map (fun (f : Rule.finding) -> f.Rule.code) o.Lint.findings)));
  Alcotest.(check int) "one waived" 1 (List.length o.Lint.waived);
  Alcotest.(check int) "waiver used" 0 (List.length o.Lint.unused_waivers);
  (* prefix pattern *)
  let o = run (waiver (Some "dead*")) in
  Alcotest.(check int) "prefix waives" 1 (List.length o.Lint.waived);
  (* star *)
  let o = run (waiver None) in
  Alcotest.(check int) "star waives" 1 (List.length o.Lint.waived);
  (* non-matching node: waiver unused, finding live *)
  let o = run (waiver (Some "elsewhere")) in
  Alcotest.(check int) "nothing waived" 0 (List.length o.Lint.waived);
  Alcotest.(check int) "unused reported" 1 (List.length o.Lint.unused_waivers)

let test_baseline () =
  let nl = messy_netlist () in
  let fresh = Lint.run nl in
  Alcotest.(check bool) "has findings" true (fresh.Lint.findings <> []);
  let fps = Config.baseline_of_findings nl fresh.Lint.findings in
  let config = { Config.default with Config.baseline = fps } in
  let o = Lint.run ~config nl in
  Alcotest.(check int) "all suppressed" 0 (List.length o.Lint.findings);
  Alcotest.(check int) "all accounted as baselined"
    (List.length fresh.Lint.findings)
    (List.length o.Lint.baselined);
  Alcotest.(check bool) "baselined run passes" false
    (Lint.fails ~fail_on:Rule.Info o)

(* ---------------------------------------------------------------- *)
(* JSON renderer: read back by the strict parser, value by value     *)
(* ---------------------------------------------------------------- *)

module J = Olfu_obs.Json

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let list_at key j = Option.value ~default:[] (Option.bind (J.member key j) J.to_list_opt)
let str_at key j = Option.bind (J.member key j) J.to_string_opt

(* [nl]'s outcome, printed as the service prints it and parsed back:
   a SARIF 2.1.0 document with one run, one result per finding, in
   order, whose locations name the finding's nodes as [Ctx.node_label]
   does, and one rule entry per rule run.  Returns the run object. *)
let check_json nl =
  let o = Lint.run nl in
  let doc =
    match J.parse (J.to_string ~indent:true (Render.json o)) with
    | Error m -> Alcotest.fail m
    | Ok doc -> doc
  in
  Alcotest.(check (option string)) "$schema"
    (Some "https://json.schemastore.org/sarif-2.1.0.json") (str_at "$schema" doc);
  Alcotest.(check (option string)) "version" (Some "2.1.0") (str_at "version" doc);
  let run =
    match list_at "runs" doc with
    | [ run ] -> run
    | _ -> Alcotest.fail "want one run"
  in
  let driver = Option.bind (J.member "tool" run) (J.member "driver") in
  Alcotest.(check (option string)) "driver name" (Some "olfu_lint")
    (Option.bind driver (str_at "name"));
  Alcotest.(check int) "one rule entry per rule run" (List.length o.Lint.rules)
    (List.length (Option.fold ~none:[] ~some:(list_at "rules") driver));
  let results = list_at "results" run in
  Alcotest.(check int) "one result per finding" (List.length o.Lint.findings)
    (List.length results);
  let names key r =
    List.map
      (fun loc ->
        match list_at "logicalLocations" loc with
        | [ l ] -> str_at "name" l
        | _ -> Alcotest.fail "want one logical location")
      (list_at key r)
  in
  let labels = List.map (fun i -> Some (Ctx.node_label nl i)) in
  List.iter2
    (fun (f : Rule.finding) r ->
      Alcotest.(check (option string)) "ruleId" (Some f.Rule.code) (str_at "ruleId" r);
      Alcotest.(check (list (option string))) "location names"
        (labels (Option.to_list f.Rule.node)) (names "locations" r);
      Alcotest.(check (list (option string))) "related location names"
        (labels f.Rule.path) (names "relatedLocations" r))
    o.Lint.findings results;
  run

(* Every logical-location name of a run's results. *)
let location_names run =
  List.concat_map
    (fun r ->
      List.concat_map
        (fun loc -> List.filter_map (str_at "name") (list_at "logicalLocations" loc))
        (list_at "locations" r @ list_at "relatedLocations" r))
    (list_at "results" run)

let test_json_valid () =
  let run = check_json (messy_netlist ()) in
  let ids = List.filter_map (str_at "ruleId") (list_at "results" run) in
  Alcotest.(check bool) "SCAN-001 reported" true (List.mem "SCAN-001" ids);
  Alcotest.(check bool) "deadgate located" true
    (List.mem "deadgate" (location_names run));
  (* escaping: a netlist whose node names carry JSON-hostile chars; the
     location checks compare the parsed names with the labels *)
  let b = B.create () in
  let x = B.input b "x" in
  let g = B.not_ b ~name:"we\\ird\"name\n" x in
  let _g2 = B.buf b ~name:"dead \"cone\"" g in
  let _ = B.output b "o" g in
  let names = location_names (check_json (B.freeze_exn b)) in
  Alcotest.(check bool) "hostile names are located" true
    (List.mem "dead \"cone\"" names && List.mem "we\\ird\"name\n" names)

let test_render_text_and_summary () =
  let o = Lint.run (messy_netlist ()) in
  let text = Format.asprintf "%a" Render.text o in
  Alcotest.(check bool) "text lists a code" true (contains text "SCAN-002");
  Alcotest.(check bool) "text has totals" true (contains text "findings");
  let summary = Format.asprintf "%a" Render.summary o in
  Alcotest.(check bool) "summary has counts" true (contains summary "rules fired");
  let cat = Format.asprintf "%a" Render.rules_catalogue Lint.registry in
  Alcotest.(check bool) "catalogue lists every rule" true
    (List.for_all
       (fun (r : Rule.t) -> contains cat r.Rule.code)
       Lint.registry)

(* ---------------------------------------------------------------- *)
(* Property: OBS-001 dead cone vs the Observe X-path engine         *)
(* ---------------------------------------------------------------- *)

(* Structurally dead (no path to any output) implies unobservable under
   the X-path analysis: Observe is optimistic, so any node it still
   calls observable must have a structural path — a contradiction. *)
let prop_obs_agrees_with_observe =
  QCheck2.Test.make ~count:75
    ~name:"OBS-001 dead cone is Observe-unobservable"
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 5 60))
    (fun (seed, gates) ->
      let rng = Random.State.make [| seed |] in
      let nl = Test_support.random_comb_netlist rng ~inputs:4 ~gates in
      let t = Olfu_atpg.Ternary.run nl in
      let obs =
        Olfu_atpg.Observe.run nl ~consts:t.Olfu_atpg.Ternary.values
      in
      let dead =
        match
          List.find_opt
            (fun (f : Rule.finding) -> f.Rule.code = "OBS-001")
            (Lint.findings nl)
        with
        | Some f -> f.Rule.path
        | None -> []
      in
      List.for_all (fun node -> not (Olfu_atpg.Observe.net obs node)) dead)

(* ---------------------------------------------------------------- *)
(* Generated cores are lint-clean                                   *)
(* ---------------------------------------------------------------- *)

let check_core_clean soc =
  let nl = Olfu_soc.Soc.generate soc in
  let o = Lint.run nl in
  List.iter
    (fun (f : Rule.finding) ->
      if f.Rule.severity <> Rule.Info then
        Alcotest.failf "%s: %s" f.Rule.code f.Rule.message)
    o.Lint.findings;
  Alcotest.(check bool) "passes --fail-on warning" false
    (Lint.fails ~fail_on:Rule.Warning o)

let test_tcore16_clean () = check_core_clean Olfu_soc.Soc.tcore16
let test_tcore32_clean () = check_core_clean Olfu_soc.Soc.tcore32
let test_tcore32_dft_clean () = check_core_clean Olfu_soc.Soc.tcore32_dft

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "lint"
    [
      ( "engine",
        [
          Alcotest.test_case "clean netlist exact" `Quick test_clean_exact;
          Alcotest.test_case "registry invariants" `Quick test_registry;
        ] );
      ( "scan rules",
        [
          Alcotest.test_case "SCAN-001" `Quick test_scan_001;
          Alcotest.test_case "SCAN-002" `Quick test_scan_002;
          Alcotest.test_case "SCAN-003" `Quick test_scan_003;
          Alcotest.test_case "SCAN-004" `Quick test_scan_004;
          Alcotest.test_case "SCAN-005" `Quick test_scan_005;
          Alcotest.test_case "SCAN-006" `Quick test_scan_006;
          Alcotest.test_case "SCAN-007" `Quick test_scan_007;
          Alcotest.test_case "LOOP-001" `Quick test_loop_001;
          Alcotest.test_case "DRV-001" `Quick test_drv_001;
          Alcotest.test_case "DRV-002" `Quick test_drv_002;
        ] );
      ( "reset/clock rules",
        [
          Alcotest.test_case "RST-001/002" `Quick test_rst_001_002;
          Alcotest.test_case "RST-003" `Quick test_rst_003;
          Alcotest.test_case "RST-004" `Quick test_rst_004;
          Alcotest.test_case "RST-005" `Quick test_rst_005;
          Alcotest.test_case "RST-006" `Quick test_rst_006;
          Alcotest.test_case "CLK-001" `Quick test_clk_001;
        ] );
      ( "net/const rules",
        [
          Alcotest.test_case "NET-001/002" `Quick test_net_001_002;
          Alcotest.test_case "XPROP-001" `Quick test_xprop_001;
          Alcotest.test_case "CONST-001" `Quick test_const_001;
        ] );
      ( "observability rules",
        [
          Alcotest.test_case "OBS-001" `Quick test_obs_001;
          Alcotest.test_case "TEST-001" `Quick test_test_001;
          qt prop_obs_agrees_with_observe;
        ] );
      ( "debug rules",
        [
          Alcotest.test_case "DBG-001" `Quick test_dbg_001;
          Alcotest.test_case "DBG-002" `Quick test_dbg_002;
        ] );
      ( "structure rules",
        [
          Alcotest.test_case "STRUCT-001" `Quick test_struct_001;
          Alcotest.test_case "STRUCT-002" `Quick test_struct_002;
          Alcotest.test_case "SEU-001" `Quick test_seu_001;
          Alcotest.test_case "SLICE-001" `Quick test_slice_001;
          Alcotest.test_case "SLICE-002" `Quick test_slice_002;
          Alcotest.test_case "SLICE through a cycle" `Quick test_slice_cycle;
          Alcotest.test_case "SW rules" `Quick test_sw_rules;
          Alcotest.test_case "SW assume into CONST-001" `Quick
            test_sw_assume_feeds_const_001;
        ] );
      ( "config",
        [
          Alcotest.test_case "disable" `Quick test_disable;
          Alcotest.test_case "severity override" `Quick test_severity_override;
          Alcotest.test_case "waiver parse" `Quick test_waiver_parse;
          Alcotest.test_case "waiver matching" `Quick test_waiver_matching;
          Alcotest.test_case "baseline" `Quick test_baseline;
        ] );
      ( "render",
        [
          Alcotest.test_case "json is valid" `Quick test_json_valid;
          Alcotest.test_case "text and summary" `Quick
            test_render_text_and_summary;
        ] );
      ( "cores",
        [
          Alcotest.test_case "tcore16" `Quick test_tcore16_clean;
          Alcotest.test_case "tcore32" `Slow test_tcore32_clean;
          Alcotest.test_case "tcore32_dft" `Slow test_tcore32_dft_clean;
        ] );
    ]

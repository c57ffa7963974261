open Olfu_logic
open Olfu_netlist
open Olfu_soc
open Olfu_sbst
module B = Netlist.Builder

(* --- RTL kit --- *)

let eval_bus _nl env bus = Rtl.const_of_env env bus

let test_rtl_adder () =
  let b = B.create () in
  let x = Rtl.input_bus b "x" 8 in
  let y = Rtl.input_bus b "y" 8 in
  let s, cout = Rtl.adder b x y in
  Rtl.output_bus b "s" s;
  ignore (B.output b "cout" cout : int);
  let nl = B.freeze_exn b in
  let env = Olfu_sim.Comb_sim.init nl Logic4.X in
  List.iter
    (fun (a, bv) ->
      let assigns = ref [] in
      Rtl.drive_int assigns x a;
      Rtl.drive_int assigns y bv;
      List.iter (fun (n, v) -> env.(n) <- v) !assigns;
      Olfu_sim.Comb_sim.settle nl env;
      Alcotest.(check (option int))
        (Printf.sprintf "%d+%d" a bv)
        (Some ((a + bv) land 0xFF))
        (eval_bus nl env s))
    [ (0, 0); (1, 1); (255, 1); (170, 85); (200, 100) ]

let test_rtl_barrel () =
  let b = B.create () in
  let x = Rtl.input_bus b "x" 16 in
  let sh = Rtl.input_bus b "sh" 4 in
  let l = Rtl.barrel_shift b x ~shamt:sh `Left in
  let r = Rtl.barrel_shift b x ~shamt:sh `Right in
  Rtl.output_bus b "l" l;
  Rtl.output_bus b "r" r;
  let nl = B.freeze_exn b in
  let env = Olfu_sim.Comb_sim.init nl Logic4.X in
  List.iter
    (fun (v, k) ->
      let assigns = ref [] in
      Rtl.drive_int assigns x v;
      Rtl.drive_int assigns sh k;
      List.iter (fun (n, vv) -> env.(n) <- vv) !assigns;
      Olfu_sim.Comb_sim.settle nl env;
      Alcotest.(check (option int)) "left" (Some ((v lsl k) land 0xFFFF))
        (eval_bus nl env l);
      Alcotest.(check (option int)) "right" (Some (v lsr k)) (eval_bus nl env r))
    [ (0x0001, 3); (0x8001, 1); (0xFFFF, 15); (0x1234, 0); (0x00F0, 8) ]

let test_rtl_multiplier () =
  let b = B.create () in
  let x = Rtl.input_bus b "x" 8 in
  let y = Rtl.input_bus b "y" 8 in
  let p = Rtl.multiplier b x y in
  Rtl.output_bus b "p" p;
  let nl = B.freeze_exn b in
  Alcotest.(check int) "result width" 16 (Rtl.width p);
  let env = Olfu_sim.Comb_sim.init nl Logic4.X in
  List.iter
    (fun (a, bv) ->
      let assigns = ref [] in
      Rtl.drive_int assigns x a;
      Rtl.drive_int assigns y bv;
      List.iter (fun (n, v) -> env.(n) <- v) !assigns;
      Olfu_sim.Comb_sim.settle nl env;
      Alcotest.(check (option int))
        (Printf.sprintf "%d*%d" a bv)
        (Some (a * bv))
        (eval_bus nl env p))
    [ (0, 0); (1, 255); (255, 255); (170, 85); (13, 17); (255, 1) ]

let test_rtl_divider () =
  let b = B.create () in
  let x = Rtl.input_bus b "x" 8 in
  let y = Rtl.input_bus b "y" 8 in
  let q, r = Rtl.divider b ~dividend:x ~divisor:y in
  Rtl.output_bus b "q" q;
  Rtl.output_bus b "r" r;
  let nl = B.freeze_exn b in
  let env = Olfu_sim.Comb_sim.init nl Logic4.X in
  List.iter
    (fun (a, bv) ->
      let assigns = ref [] in
      Rtl.drive_int assigns x a;
      Rtl.drive_int assigns y bv;
      List.iter (fun (n, v) -> env.(n) <- v) !assigns;
      Olfu_sim.Comb_sim.settle nl env;
      if bv > 0 then begin
        Alcotest.(check (option int))
          (Printf.sprintf "%d/%d" a bv)
          (Some (a / bv))
          (eval_bus nl env q);
        Alcotest.(check (option int))
          (Printf.sprintf "%d mod %d" a bv)
          (Some (a mod bv))
          (eval_bus nl env r)
      end)
    [ (0, 1); (255, 1); (255, 255); (200, 7); (13, 17); (99, 10); (128, 2) ]

let test_rtl_mux_tree_decoder () =
  let b = B.create () in
  let sel = Rtl.input_bus b "sel" 2 in
  let ins = List.init 4 (fun k -> Rtl.const b ~width:4 (k + 3)) in
  let o = Rtl.mux_tree b ~sel ins in
  Rtl.output_bus b "o" o;
  let dec = Rtl.decoder b sel in
  Array.iteri (fun k n -> ignore (B.output b (Printf.sprintf "d%d" k) n : int)) dec;
  let nl = B.freeze_exn b in
  let env = Olfu_sim.Comb_sim.init nl Logic4.X in
  for k = 0 to 3 do
    let assigns = ref [] in
    Rtl.drive_int assigns sel k;
    List.iter (fun (n, v) -> env.(n) <- v) !assigns;
    Olfu_sim.Comb_sim.settle nl env;
    Alcotest.(check (option int)) "mux" (Some (k + 3)) (eval_bus nl env o);
    Array.iteri
      (fun j n ->
        Alcotest.(check bool)
          (Printf.sprintf "dec %d/%d" j k)
          (j = k)
          (Logic4.equal env.(n) Logic4.L1))
      dec
  done

let test_rtl_eq_and_extend () =
  let b = B.create () in
  let x = Rtl.input_bus b "x" 6 in
  let y = Rtl.input_bus b "y" 6 in
  let e = Rtl.eq b x y in
  let ec = Rtl.eq_const b x 0x2A in
  ignore (B.output b "e" e : int);
  ignore (B.output b "ec" ec : int);
  let sx = Rtl.sign_extend b (Rtl.slice x 0 4) 6 in
  Rtl.output_bus b "sx" sx;
  let nl = B.freeze_exn b in
  let env = Olfu_sim.Comb_sim.init nl Logic4.X in
  let assigns = ref [] in
  Rtl.drive_int assigns x 0x2A;
  Rtl.drive_int assigns y 0x2A;
  List.iter (fun (n, v) -> env.(n) <- v) !assigns;
  Olfu_sim.Comb_sim.settle nl env;
  Alcotest.(check (option int)) "eq true" (Some 1)
    (eval_bus nl env [| Netlist.find_exn nl "e" |]);
  Alcotest.(check (option int)) "eq_const true" (Some 1)
    (eval_bus nl env [| Netlist.find_exn nl "ec" |]);
  (* x low nibble = 0xA: sign bit set -> extends to 0x3A over 6 bits *)
  Alcotest.(check (option int)) "sign extend" (Some 0x3A) (eval_bus nl env sx);
  let assigns = ref [] in
  Rtl.drive_int assigns y 0x15;
  List.iter (fun (n, v) -> env.(n) <- v) !assigns;
  Olfu_sim.Comb_sim.settle nl env;
  Alcotest.(check (option int)) "eq false" (Some 0)
    (eval_bus nl env [| Netlist.find_exn nl "e" |])

let test_config_pp_and_regions () =
  let s = Format.asprintf "%a" Soc.pp_config Soc.tcore32 in
  Alcotest.(check bool) "mentions name" true
    (String.length s > 10 && String.sub s 0 7 = "tcore32");
  Alcotest.(check int) "two regions" 2
    (List.length (Soc.memmap_regions Soc.tcore32));
  (* the dft variant only flips the dft knobs *)
  Alcotest.(check bool) "dft bist" true Soc.tcore32_dft.Soc.bist;
  Alcotest.(check bool) "base no bist" false Soc.tcore32.Soc.bist;
  Alcotest.(check int) "same xlen" Soc.tcore32.Soc.xlen
    Soc.tcore32_dft.Soc.xlen

(* --- ISA --- *)

let test_isa_roundtrip () =
  let all =
    [
      Isa.Nop; Isa.Li (3, 0xAB); Isa.Addi (2, 0x7F); Isa.Add (1, 2);
      Isa.Sub (4, 5); Isa.And_ (6, 7); Isa.Or_ (8, 9); Isa.Xor_ (10, 11);
      Isa.Sll (12, 13); Isa.Srl (14, 15); Isa.Lw (1, 2); Isa.Sw (3, 4);
      Isa.Beqz (5, 0x80); Isa.Bnez (6, 0x7F); Isa.Jr 7; Isa.Halt;
    ]
  in
  List.iter
    (fun i ->
      let w = Isa.encode i in
      Alcotest.(check bool)
        (Format.asprintf "%a" Isa.pp i)
        true
        (Isa.decode w = i))
    all

let test_asm_labels () =
  let prog =
    [
      Asm.I (Isa.Li (1, 3)); Asm.L "loop"; Asm.I (Isa.Addi (1, -1));
      Asm.Bnez (1, "loop"); Asm.I Isa.Halt;
    ]
  in
  let words = Asm.assemble prog in
  Alcotest.(check int) "4 words" 4 (Array.length words);
  (* backward branch offset: target 1, pc+1 = 3 -> off = -2 *)
  match Isa.decode words.(2) with
  | Isa.Bnez (1, off) -> Alcotest.(check int) "offset" 0xFE off
  | _ -> Alcotest.fail "expected bnez"

let test_asm_load_const () =
  List.iter
    (fun v ->
      let prog = Asm.load_const 5 v @ [ Asm.I Isa.Halt ] in
      let sim = Isa_sim.create ~xlen:32 in
      Isa_sim.load sim ~addr:0 (Asm.assemble prog);
      ignore (Isa_sim.run sim : Isa_sim.outcome);
      Alcotest.(check int) (Printf.sprintf "const %x" v) v (Isa_sim.reg sim 5))
    [ 0; 1; 0xFF; 0x4000_0000; 0xDEAD_BEEF; 0x7FFF_FFFF ]

let test_isa_sim_basics () =
  let prog =
    [
      Asm.I (Isa.Li (1, 10)); Asm.I (Isa.Li (2, 3)); Asm.I (Isa.Sub (1, 2));
      Asm.I (Isa.Li (15, 0x80)); Asm.I (Isa.Sw (1, 15)); Asm.I Isa.Halt;
    ]
  in
  let sim = Isa_sim.create ~xlen:16 in
  Isa_sim.load sim ~addr:0 (Asm.assemble prog);
  ignore (Isa_sim.run sim : Isa_sim.outcome);
  Alcotest.(check int) "r1" 7 (Isa_sim.reg sim 1);
  Alcotest.(check (list (pair int int))) "writes" [ (0x80, 7) ] (Isa_sim.writes sim)

(* --- generated SoC sanity --- *)

let t16 = lazy (Soc.generate Soc.tcore16)

let test_generate_tcore16 () =
  let nl = Lazy.force t16 in
  let s = Stats.of_netlist nl in
  Alcotest.(check bool) "has flops" true (s.Stats.flops > 100);
  Alcotest.(check int) "all flops scanned" s.Stats.flops s.Stats.scan_flops;
  Alcotest.(check bool) "sane size" true (s.Stats.nodes > 1000);
  (* ports present *)
  List.iter
    (fun p ->
      Alcotest.(check bool) (p ^ " present") true (Netlist.find nl p <> None))
    [ "rstn"; "bus_rd"; "bus_wr"; "halted"; "scan_en"; "scan_in0"; "dbg_de" ]

let test_scan_chains_traceable () =
  let nl = Lazy.force t16 in
  let chains = Olfu_manip.Scan_trace.trace nl in
  Alcotest.(check int) "chain count" Soc.tcore16.Soc.scan_chains
    (List.length chains);
  let total =
    List.fold_left (fun a c -> a + List.length (Olfu_manip.Scan_trace.cells c)) 0 chains
  in
  let s = Stats.of_netlist nl in
  Alcotest.(check int) "all cells on chains" s.Stats.flops total;
  List.iter
    (fun c ->
      Alcotest.(check bool) "chain terminated" true
        (c.Olfu_manip.Scan_trace.scan_out <> None))
    chains

(* Gate-level core executes programs exactly like the ISA simulator. *)
let check_program_equivalence cfg nl prog_items =
  let program = Asm.assemble prog_items in
  let gold = Isa_sim.create ~xlen:cfg.Soc.xlen in
  Isa_sim.load gold ~addr:cfg.Soc.rom.Olfu_manip.Memmap.lo program;
  (* isa sim starts at pc 0; tcore fetches from pc 0 too, so programs must
     be linked at rom base = pc reset value *)
  ignore (Isa_sim.run gold : Isa_sim.outcome);
  let run = Testbench.record cfg nl ~program in
  Alcotest.(check bool) "gate-level run halted" true run.Testbench.halted;
  Alcotest.(check (list (pair int int)))
    "write traces equal" (Isa_sim.writes gold) run.Testbench.writes;
  Alcotest.(check bool) "replay reproduces" true
    (Testbench.replay_matches cfg nl run)

let test_core_executes_basic () =
  let nl = Lazy.force t16 in
  check_program_equivalence Soc.tcore16 nl
    [
      Asm.I (Isa.Li (1, 42)); Asm.I (Isa.Li (15, 0x12)); Asm.I (Isa.Sw (1, 15));
      Asm.I (Isa.Addi (1, 1)); Asm.I (Isa.Sw (1, 15)); Asm.I Isa.Halt;
    ]

let test_core_executes_suite () =
  let nl = Lazy.force t16 in
  List.iter
    (fun p -> check_program_equivalence Soc.tcore16 nl p.Programs.items)
    (Programs.suite Soc.tcore16)

let prop_core_matches_isa_sim =
  QCheck2.Test.make ~count:10 ~name:"gate-level core = ISA simulator"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let cfg = Soc.tcore16 in
      let nl = Lazy.force t16 in
      (* random straight-line program over safe registers, ending with
         stores and halt *)
      let ri n = Random.State.int rng n in
      let instrs =
        List.init 24 (fun _ ->
            match ri 13 with
            | 0 -> Isa.Li (ri 8, ri 256)
            | 1 -> Isa.Addi (ri 8, ri 256)
            | 2 -> Isa.Add (ri 8, ri 8)
            | 3 -> Isa.Sub (ri 8, ri 8)
            | 4 -> Isa.And_ (ri 8, ri 8)
            | 5 -> Isa.Or_ (ri 8, ri 8)
            | 6 -> Isa.Xor_ (ri 8, ri 8)
            | 7 -> Isa.Sll (ri 8, ri 16)
            | 8 -> Isa.Mul (ri 8, ri 8)
            | 9 -> Isa.Mulh (ri 8, ri 8)
            | 10 -> Isa.Div (ri 8, ri 8)
            | 11 -> Isa.Rem (ri 8, ri 8)
            | _ -> Isa.Srl (ri 8, ri 16))
      in
      let items =
        Asm.load_const_fixed 15 (cfg.Soc.ram.Olfu_manip.Memmap.lo + ri 16)
          ~nibbles:(cfg.Soc.xlen / 4)
        @ List.map (fun i -> Asm.I i) instrs
        @ List.concat_map
            (fun r -> [ Asm.I (Isa.Sw (r, 15)); Asm.I (Isa.Addi (15, 1)) ])
            [ 0; 1; 2; 3; 4; 5; 6; 7 ]
        @ [ Asm.I Isa.Halt ]
      in
      let program = Asm.assemble items in
      let gold = Isa_sim.create ~xlen:cfg.Soc.xlen in
      Isa_sim.load gold ~addr:cfg.Soc.rom.Olfu_manip.Memmap.lo program;
      ignore (Isa_sim.run gold : Isa_sim.outcome);
      let run = Testbench.record cfg nl ~program in
      run.Testbench.halted && Isa_sim.writes gold = run.Testbench.writes)

(* The DfT additions (BIST controller, boundary scan) must be transparent
   in mission mode: a full-DfT core executes programs identically. *)
let test_dft_transparent () =
  let cfg =
    { Soc.tcore16 with Soc.name = "tcore16_dft"; bist = true;
      boundary_scan = true }
  in
  let nl = Soc.generate cfg in
  let s = Stats.of_netlist nl in
  Alcotest.(check bool) "bigger than base" true
    (s.Stats.flops > (Stats.of_netlist (Lazy.force t16)).Stats.flops);
  List.iter
    (fun p ->
      Alcotest.(check bool) (p ^ " present") true (Netlist.find nl p <> None))
    [ "bist_en"; "bist_start"; "bs_mode"; "bs_tdi"; "bist_pass"; "bs_tdo" ];
  let program =
    Asm.assemble
      [
        Asm.I (Isa.Li (1, 9)); Asm.I (Isa.Li (2, 4)); Asm.I (Isa.Mul (1, 2));
        Asm.I (Isa.Li (15, 0x42)); Asm.I (Isa.Sw (1, 15)); Asm.I Isa.Halt;
      ]
  in
  let gold = Isa_sim.create ~xlen:cfg.Soc.xlen in
  Isa_sim.load gold ~addr:0 program;
  ignore (Isa_sim.run gold : Isa_sim.outcome);
  let run = Testbench.record cfg nl ~program in
  Alcotest.(check bool) "halted" true run.Testbench.halted;
  Alcotest.(check (list (pair int int)))
    "writes equal" (Isa_sim.writes gold) run.Testbench.writes

(* The BIST controller actually works pre-mission: enabling it runs a
   campaign to completion. *)
let test_bist_runs_premission () =
  let cfg =
    { Soc.tcore16 with Soc.name = "tcore16_bist"; bist = true }
  in
  let nl = Soc.generate cfg in
  let sim = Olfu_sim.Seq_sim.create ~init:Logic4.X nl in
  let set name v = Olfu_sim.Seq_sim.set_input_name sim name v in
  List.iter (fun n -> set n Logic4.L0) (Soc.debug_control_inputs cfg);
  set "scan_en" Logic4.L0;
  set "scan_in0" Logic4.L0;
  Array.iter
    (fun i -> Olfu_sim.Seq_sim.set_input sim i Logic4.L0)
    (Netlist.inputs nl);
  set "rstn" Logic4.L0;
  Olfu_sim.Seq_sim.step sim;
  set "rstn" Logic4.L1;
  set "bist_en" Logic4.L1;
  set "bist_start" Logic4.L1;
  Olfu_sim.Seq_sim.run sim 300;
  Olfu_sim.Seq_sim.settle sim;
  Alcotest.check (Alcotest.testable Logic4.pp Logic4.equal) "bist done"
    Logic4.L1
    (Olfu_sim.Seq_sim.value_name sim "bist_done")

(* Debug unit actually works pre-mission: halting the core via DE+HALT *)
let test_debug_halt_works () =
  let cfg = Soc.tcore16 in
  let nl = Lazy.force t16 in
  let sim = Olfu_sim.Seq_sim.create ~init:Logic4.X nl in
  let set name v = Olfu_sim.Seq_sim.set_input_name sim name v in
  (* reset, everything quiet *)
  List.iter (fun n -> set n Logic4.L0) (Soc.debug_control_inputs cfg);
  set "scan_en" Logic4.L0;
  set "scan_in0" Logic4.L0;
  Array.iter
    (fun i ->
      match Netlist.name nl i with
      | Some s when String.length s > 4 && String.sub s 0 4 = "bus_" ->
        Olfu_sim.Seq_sim.set_input sim i Logic4.L0
      | _ -> ())
    (Netlist.inputs nl);
  set "rstn" Logic4.L0;
  Olfu_sim.Seq_sim.step sim;
  set "rstn" Logic4.L1;
  (* run two cycles, then assert debug halt: the state must freeze *)
  Olfu_sim.Seq_sim.step sim;
  Olfu_sim.Seq_sim.step sim;
  set "dbg_de" Logic4.L1;
  set "dbg_halt" Logic4.L1;
  Olfu_sim.Seq_sim.settle sim;
  let pc_nets =
    Array.init cfg.Soc.xlen (fun i ->
        Netlist.find_exn nl (Printf.sprintf "pc[%d]" i))
  in
  let pc_before =
    Array.map (fun n -> Olfu_sim.Seq_sim.value sim n) pc_nets
  in
  for _ = 1 to 4 do
    Olfu_sim.Seq_sim.step sim
  done;
  Olfu_sim.Seq_sim.settle sim;
  Array.iteri
    (fun i n ->
      Alcotest.(check bool)
        (Printf.sprintf "pc[%d] frozen" i)
        true
        (Logic4.equal pc_before.(i) (Olfu_sim.Seq_sim.value sim n)))
    pc_nets

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "soc"
    [
      ( "rtl",
        [
          Alcotest.test_case "adder" `Quick test_rtl_adder;
          Alcotest.test_case "barrel shifter" `Quick test_rtl_barrel;
          Alcotest.test_case "multiplier" `Quick test_rtl_multiplier;
          Alcotest.test_case "divider" `Quick test_rtl_divider;
          Alcotest.test_case "mux tree + decoder" `Quick
            test_rtl_mux_tree_decoder;
          Alcotest.test_case "eq + sign extend" `Quick test_rtl_eq_and_extend;
          Alcotest.test_case "config pp" `Quick test_config_pp_and_regions;
        ] );
      ( "isa",
        [
          Alcotest.test_case "encode/decode" `Quick test_isa_roundtrip;
          Alcotest.test_case "assembler labels" `Quick test_asm_labels;
          Alcotest.test_case "load_const" `Quick test_asm_load_const;
          Alcotest.test_case "isa sim" `Quick test_isa_sim_basics;
        ] );
      ( "generate",
        [
          Alcotest.test_case "tcore16" `Quick test_generate_tcore16;
          Alcotest.test_case "scan chains" `Quick test_scan_chains_traceable;
        ] );
      ( "execution",
        [
          Alcotest.test_case "basic program" `Quick test_core_executes_basic;
          Alcotest.test_case "sbst suite" `Slow test_core_executes_suite;
          qt prop_core_matches_isa_sim;
          Alcotest.test_case "debug halt" `Quick test_debug_halt_works;
          Alcotest.test_case "dft transparent" `Quick test_dft_transparent;
          Alcotest.test_case "bist campaign" `Quick test_bist_runs_premission;
        ] );
    ]

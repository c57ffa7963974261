open Olfu_logic
open Olfu_netlist
open Olfu_fault
open Olfu_soc
open Olfu_sbst

let cfg = Soc.tcore16
let t16 = lazy (Soc.generate cfg)

(* --- assembler --- *)

let test_asm_forward_branch () =
  let prog =
    [
      Asm.I (Isa.Li (1, 1)); Asm.Beqz (2, "end"); Asm.I (Isa.Li (1, 2));
      Asm.L "end"; Asm.I Isa.Halt;
    ]
  in
  let sim = Isa_sim.create ~xlen:16 in
  Isa_sim.load sim ~addr:0 (Asm.assemble prog);
  ignore (Isa_sim.run sim : Isa_sim.outcome);
  (* r2 = 0, so the branch is taken and li r1,2 is skipped *)
  Alcotest.(check int) "r1" 1 (Isa_sim.reg sim 1)

let test_asm_unknown_label () =
  try
    ignore (Asm.assemble [ Asm.Bnez (1, "nowhere"); Asm.I Isa.Halt ] : int array);
    Alcotest.fail "expected failure"
  with Invalid_argument _ -> ()

let test_asm_duplicate_label () =
  try
    ignore (Asm.assemble [ Asm.L "a"; Asm.L "a"; Asm.I Isa.Halt ] : int array);
    Alcotest.fail "expected failure"
  with Invalid_argument _ -> ()

let test_asm_branch_range () =
  let far = List.init 200 (fun _ -> Asm.I Isa.Nop) in
  try
    ignore
      (Asm.assemble ((Asm.Bnez (1, "end") :: far) @ [ Asm.L "end"; Asm.I Isa.Halt ])
        : int array);
    Alcotest.fail "expected range failure"
  with Invalid_argument _ -> ()

let test_load_const_fixed_stable_length () =
  let l1 = List.length (Asm.load_const_fixed 3 0 ~nibbles:4) in
  let l2 = List.length (Asm.load_const_fixed 3 0xFFFF ~nibbles:4) in
  Alcotest.(check int) "same length" l1 l2;
  (try
     ignore (Asm.load_const_fixed 3 0x1FFFF ~nibbles:4 : Asm.item list);
     Alcotest.fail "expected overflow failure"
   with Invalid_argument _ -> ())

let test_label_addresses () =
  let prog = [ Asm.I Isa.Nop; Asm.L "x"; Asm.I Isa.Halt; Asm.L "y" ] in
  Alcotest.(check (list (pair string int)))
    "addresses" [ ("x", 1); ("y", 2) ] (Asm.label_addresses prog)

let test_asm_parse_roundtrip () =
  let src =
    {|
; countdown demo
start:
    li   r1, 0x05
    li   r15, 0x40   # signature pointer
loop:
    sw   r1, [r15]
    addi r15, 1
    addi r1, -1
    bnez r1, loop
    beqz r1, done
    nop
done:
    mul  r2, r1
    div  r2, r1
    lw   r3, [r15]
    li   r4, 14      ; address of the final halt
    jr   r4
    nop              ; skipped by the jump
    halt
|}
  in
  let items = Asm.parse src in
  let words = Asm.assemble items in
  Alcotest.(check int) "15 instructions" 15 (Array.length words);
  (* the printer round-trips through the parser *)
  let printed = Format.asprintf "%a" Asm.pp_items items in
  let again = Asm.assemble (Asm.parse printed) in
  Alcotest.(check bool) "print/parse stable" true (words = again);
  (* and the program behaves: counts 5 signatures *)
  let sim = Isa_sim.create ~xlen:16 in
  Isa_sim.load sim ~addr:0 words;
  ignore (Isa_sim.run ~max_steps:500 sim : Isa_sim.outcome);
  Alcotest.(check int) "five stores + one load path" 5
    (List.length (Isa_sim.writes sim))

let test_asm_parse_errors () =
  let expect src =
    match Asm.parse src with
    | exception Asm.Parse_error _ -> ()
    | _ -> Alcotest.fail ("expected parse error for " ^ src)
  in
  expect "frob r1, r2";
  expect "li r99, 4";
  expect "add r1";
  expect "lw r1, r2";
  expect "li r1, banana"

(* --- ISA simulator semantics --- *)

let run_prog ?(xlen = 16) items =
  let sim = Isa_sim.create ~xlen in
  Isa_sim.load sim ~addr:0 (Asm.assemble items);
  ignore (Isa_sim.run sim : Isa_sim.outcome);
  sim

let test_isa_sim_wraparound () =
  let sim =
    run_prog
      [ Asm.I (Isa.Li (1, 0xFF)); Asm.I (Isa.Sll (1, 8)); Asm.I (Isa.Addi (1, 0x7F));
        Asm.I (Isa.Addi (1, 0x7F)); Asm.I (Isa.Addi (1, 2)); Asm.I Isa.Halt ]
  in
  (* 0xFF00 + 127 + 127 + 2 = 0x0000 (mod 2^16) *)
  Alcotest.(check int) "wraps" 0 (Isa_sim.reg sim 1)

let test_isa_sim_divmod_matches_ocaml () =
  List.iter
    (fun (a, b) ->
      let sim =
        run_prog
          [ Asm.I (Isa.Li (1, a)); Asm.I (Isa.Li (2, b)); Asm.I (Isa.Li (3, 0));
            Asm.I (Isa.Add (3, 1)); Asm.I (Isa.Div (3, 2)); Asm.I (Isa.Li (4, 0));
            Asm.I (Isa.Add (4, 1)); Asm.I (Isa.Rem (4, 2)); Asm.I Isa.Halt ]
      in
      Alcotest.(check int) (Printf.sprintf "%d/%d" a b) (a / b) (Isa_sim.reg sim 3);
      Alcotest.(check int) (Printf.sprintf "%d mod %d" a b) (a mod b)
        (Isa_sim.reg sim 4))
    [ (200, 7); (255, 255); (1, 2); (99, 10) ]

let test_isa_sim_mul_width () =
  let sim =
    run_prog
      [ Asm.I (Isa.Li (1, 0xFF)); Asm.I (Isa.Sll (1, 8)); Asm.I (Isa.Addi (1, 0x7F));
        (* r1 = 0xFF7F *)
        Asm.I (Isa.Li (2, 0xFF)); Asm.I (Isa.Li (3, 0)); Asm.I (Isa.Add (3, 1));
        Asm.I (Isa.Mul (3, 2)); Asm.I (Isa.Li (4, 0)); Asm.I (Isa.Add (4, 1));
        Asm.I (Isa.Mulh (4, 2)); Asm.I Isa.Halt ]
  in
  let p = 0xFF7F * 0xFF in
  Alcotest.(check int) "low" (p land 0xFFFF) (Isa_sim.reg sim 3);
  Alcotest.(check int) "high" (p lsr 16) (Isa_sim.reg sim 4)

(* --- programs --- *)

let test_programs_assemble_and_halt () =
  List.iter
    (fun p ->
      let words = Programs.assemble p in
      Alcotest.(check bool)
        (p.Programs.pname ^ " nonempty")
        true
        (Array.length words > 4);
      let sim = Isa_sim.create ~xlen:cfg.Soc.xlen in
      Isa_sim.load sim ~addr:cfg.Soc.rom.Olfu_manip.Memmap.lo words;
      let out = Isa_sim.run ~max_steps:50_000 sim in
      Alcotest.(check bool) (p.Programs.pname ^ " halts") true out.Isa_sim.halted;
      Alcotest.(check bool)
        (p.Programs.pname ^ " does work")
        true
        (out.Isa_sim.steps > 10);
      Alcotest.(check bool)
        (p.Programs.pname ^ " writes signatures")
        true
        (List.length (Isa_sim.writes sim) > 2);
      (* signatures land in RAM *)
      List.iter
        (fun (a, _) ->
          Alcotest.(check bool) "write in ram" true
            (a >= cfg.Soc.ram.Olfu_manip.Memmap.lo
            && a <= cfg.Soc.ram.Olfu_manip.Memmap.hi))
        (Isa_sim.writes sim))
    (Programs.suite cfg)

(* --- testbench --- *)

let test_testbench_records_and_replays () =
  let nl = Lazy.force t16 in
  let p = Programs.register_march cfg in
  let run = Testbench.record cfg nl ~program:(Programs.assemble p) in
  Alcotest.(check bool) "halted" true run.Testbench.halted;
  Alcotest.(check bool) "strobes exist" true
    (Array.exists (fun s -> s.Olfu_fsim.Seq_fsim.strobe) run.Testbench.stimulus);
  Alcotest.(check bool) "replay ok" true (Testbench.replay_matches cfg nl run)

let test_testbench_observed_set () =
  let nl = Lazy.force t16 in
  let by_name s = Netlist.find_exn nl s in
  Alcotest.(check bool) "bus_wr observed" true
    (Testbench.observed_outputs nl (by_name "bus_wr"));
  Alcotest.(check bool) "misr observed" true
    (Testbench.observed_outputs nl (by_name "misr_out[0]"));
  Alcotest.(check bool) "gpr_obs not observed" false
    (Testbench.observed_outputs nl (by_name "gpr_obs[0]"));
  Alcotest.(check bool) "scan_out not observed" false
    (Testbench.observed_outputs nl (by_name "scan_out0"))

let test_testbench_data_preload () =
  (* LW from a preloaded RAM location, store it back doubled *)
  let nl = Lazy.force t16 in
  let base = cfg.Soc.ram.Olfu_manip.Memmap.lo in
  let items =
    Asm.load_const_fixed 10 (base + 0x20) ~nibbles:4
    @ Asm.load_const_fixed 15 base ~nibbles:4
    @ [ Asm.I (Isa.Lw (1, 10)); Asm.I (Isa.Add (1, 1)); Asm.I (Isa.Sw (1, 15));
        Asm.I Isa.Halt ]
  in
  let run =
    Testbench.record cfg nl
      ~program:(Asm.assemble items)
      ~data:[ (base + 0x20, 21) ]
  in
  Alcotest.(check (list (pair int int))) "write doubles preload" [ (base, 42) ]
    run.Testbench.writes

(* --- reference: the testbench on the scalar simulator ---
   [Testbench.record] as it ran on [Seq_sim] before the word-level core:
   settle to see the cycle's bus request, answer it, step. *)
let reference_record ?(max_cycles = 20_000) cfg nl ~program =
  let module Seq_sim = Olfu_sim.Seq_sim in
  let module Seq_fsim = Olfu_fsim.Seq_fsim in
  let xlen = cfg.Soc.xlen in
  let bus prefix =
    Array.init xlen (fun i ->
        Netlist.find_exn nl (Printf.sprintf "%s[%d]" prefix i))
  in
  let rstn = Netlist.find_exn nl "rstn" in
  let rdata = bus "bus_rdata" and addr = bus "bus_addr" in
  let wdata = bus "bus_wdata" in
  let rd_en = Netlist.find_exn nl "bus_rd" in
  let wr_en = Netlist.find_exn nl "bus_wr" in
  let halted = Netlist.find_exn nl "halted" in
  let scan_en = Netlist.find nl "scan_en" in
  let dbg_inputs =
    Soc.debug_control_inputs cfg |> List.filter_map (fun s -> Netlist.find nl s)
  in
  let scan_ins = Netlist.nodes_with_role nl Netlist.Scan_in |> Array.to_list in
  let memory = Hashtbl.create 1024 in
  Array.iteri
    (fun i w -> Hashtbl.replace memory (cfg.Soc.rom.Olfu_manip.Memmap.lo + i) w)
    program;
  let sim = Seq_sim.create ~init:Logic4.X nl in
  let read_bus nets =
    let acc = ref 0 and ok = ref true in
    Array.iteri
      (fun i n ->
        match Logic4.to_bool (Seq_sim.value sim n) with
        | Some true -> acc := !acc lor (1 lsl i)
        | Some false -> ()
        | None -> ok := false)
      nets;
    if !ok then Some !acc else None
  in
  let base_assign reset_active rdata_val =
    let acc = ref [ (rstn, if reset_active then Logic4.L0 else Logic4.L1) ] in
    (match scan_en with
    | Some se -> acc := (se, Logic4.L0) :: !acc
    | None -> ());
    List.iter (fun i -> acc := (i, Logic4.L0) :: !acc) dbg_inputs;
    List.iter (fun i -> acc := (i, Logic4.L0) :: !acc) scan_ins;
    Array.iteri
      (fun i n ->
        acc := (n, Logic4.of_bool ((rdata_val lsr i) land 1 = 1)) :: !acc)
      rdata;
    !acc
  in
  let steps = ref [] and writes = ref [] in
  let finished = ref false and cycle = ref 0 in
  let apply assigns =
    List.iter (fun (i, v) -> Seq_sim.set_input sim i v) assigns
  in
  let reset_assigns = base_assign true 0 in
  apply reset_assigns;
  Seq_sim.step sim;
  steps := { Seq_fsim.assign = reset_assigns; strobe = false } :: !steps;
  incr cycle;
  while (not !finished) && !cycle < max_cycles do
    Seq_sim.settle sim;
    let a = read_bus addr in
    let reading = Logic4.equal (Seq_sim.value sim rd_en) Logic4.L1 in
    let writing = Logic4.equal (Seq_sim.value sim wr_en) Logic4.L1 in
    let response =
      if reading then
        match a with
        | Some a -> Option.value ~default:0 (Hashtbl.find_opt memory a)
        | None -> 0
      else 0
    in
    if writing then begin
      match a, read_bus wdata with
      | Some a, Some v ->
        Hashtbl.replace memory a v;
        writes := (a, v) :: !writes
      | _ -> ()
    end;
    let assigns = base_assign false response in
    apply assigns;
    Seq_sim.step sim;
    steps := { Seq_fsim.assign = assigns; strobe = writing } :: !steps;
    incr cycle;
    if Logic4.equal (Seq_sim.value sim halted) Logic4.L1 then finished := true
  done;
  steps := { Seq_fsim.assign = base_assign false 0; strobe = true } :: !steps;
  incr cycle;
  {
    Testbench.stimulus = Array.of_list (List.rev !steps);
    cycles = !cycle;
    writes = List.rev !writes;
    halted = !finished;
  }

let test_record_matches_reference () =
  let nl = Lazy.force t16 in
  List.iter
    (fun p ->
      let program = Programs.assemble p in
      let r = Testbench.record cfg nl ~program in
      let e = reference_record cfg nl ~program in
      let name what = Printf.sprintf "%s: %s" p.Programs.pname what in
      Alcotest.(check bool) (name "stimulus") true
        (r.Testbench.stimulus = e.Testbench.stimulus);
      Alcotest.(check int) (name "cycles") e.Testbench.cycles r.Testbench.cycles;
      Alcotest.(check (list (pair int int)))
        (name "writes") e.Testbench.writes r.Testbench.writes;
      Alcotest.(check bool) (name "halted") e.Testbench.halted
        r.Testbench.halted)
    (Programs.suite cfg)

(* --- coverage machinery --- *)

let test_coverage_detects_and_prunes () =
  let nl = Lazy.force t16 in
  (* tiny deterministic sample: first 150 faults *)
  let u = Fault.universe nl in
  let fl = Flist.create nl (Array.sub u 0 150) in
  (* classify scan faults first so pruning has an effect *)
  ignore (Olfu_manip.Scan_trace.prune nl fl : int);
  let summary =
    Coverage.grade cfg nl fl [ Programs.register_march cfg ]
  in
  Alcotest.(check bool) "detected some" true (summary.Coverage.detected > 0);
  Alcotest.(check bool) "pruned >= raw" true
    (summary.Coverage.pruned_coverage >= summary.Coverage.raw_coverage);
  Alcotest.(check int) "one program" 1 (List.length summary.Coverage.programs)

let test_detected_faults_stay_detected () =
  (* grading twice cannot lower the detected count *)
  let nl = Lazy.force t16 in
  let u = Fault.universe nl in
  let fl = Flist.create nl (Array.sub u 200 100) in
  let s1 = Coverage.grade cfg nl fl [ Programs.alu_patterns cfg ] in
  let d1 = Flist.count_status fl Status.Detected in
  let _s2 = Coverage.grade cfg nl fl [ Programs.alu_patterns cfg ] in
  let d2 = Flist.count_status fl Status.Detected in
  ignore s1;
  Alcotest.(check int) "stable" d1 d2

(* a gate-level/golden cross-check on the MISR: replaying the same
   stimulus twice gives identical signatures (determinism) *)
let test_misr_deterministic () =
  let nl = Lazy.force t16 in
  let p = Programs.alu_patterns cfg in
  let run = Testbench.record cfg nl ~program:(Programs.assemble p) in
  let misr_of () =
    let sim = Olfu_sim.Seq_sim.create ~init:Logic4.X nl in
    Array.iter
      (fun step ->
        List.iter
          (fun (i, v) -> Olfu_sim.Seq_sim.set_input sim i v)
          step.Olfu_fsim.Seq_fsim.assign;
        Olfu_sim.Seq_sim.step sim)
      run.Testbench.stimulus;
    Olfu_sim.Seq_sim.settle sim;
    Array.init cfg.Soc.xlen (fun i ->
        Olfu_sim.Seq_sim.value_name sim (Printf.sprintf "misr/r[%d]" i))
  in
  let a = misr_of () and b = misr_of () in
  Array.iteri
    (fun i v ->
      Alcotest.(check bool) (Printf.sprintf "misr bit %d" i) true
        (Logic4.equal v b.(i));
      Alcotest.(check bool) "binary" true (Logic4.is_binary v))
    a

let () =
  Alcotest.run "sbst"
    [
      ( "asm",
        [
          Alcotest.test_case "forward branch" `Quick test_asm_forward_branch;
          Alcotest.test_case "unknown label" `Quick test_asm_unknown_label;
          Alcotest.test_case "duplicate label" `Quick test_asm_duplicate_label;
          Alcotest.test_case "branch range" `Quick test_asm_branch_range;
          Alcotest.test_case "fixed-length const" `Quick
            test_load_const_fixed_stable_length;
          Alcotest.test_case "label addresses" `Quick test_label_addresses;
          Alcotest.test_case "parse roundtrip" `Quick test_asm_parse_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_asm_parse_errors;
        ] );
      ( "isa-sim",
        [
          Alcotest.test_case "wraparound" `Quick test_isa_sim_wraparound;
          Alcotest.test_case "div/mod" `Quick test_isa_sim_divmod_matches_ocaml;
          Alcotest.test_case "mul width" `Quick test_isa_sim_mul_width;
        ] );
      ( "programs",
        [ Alcotest.test_case "assemble and halt" `Quick test_programs_assemble_and_halt ] );
      ( "testbench",
        [
          Alcotest.test_case "record/replay" `Quick test_testbench_records_and_replays;
          Alcotest.test_case "observed set" `Quick test_testbench_observed_set;
          Alcotest.test_case "data preload" `Quick test_testbench_data_preload;
          Alcotest.test_case "misr deterministic" `Quick test_misr_deterministic;
          Alcotest.test_case "record = scalar reference" `Quick
            test_record_matches_reference;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "detects and prunes" `Slow test_coverage_detects_and_prunes;
          Alcotest.test_case "grading idempotent" `Slow
            test_detected_faults_stay_detected;
        ] );
    ]

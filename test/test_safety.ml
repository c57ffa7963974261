open Olfu_logic
open Olfu_netlist
open Olfu_fault
open Olfu_safety
module B = Netlist.Builder
module Seq_fsim = Olfu_fsim.Seq_fsim
module U = Olfu_atpg.Untestable

(* --- taxonomy --- *)

let test_of_status () =
  let chk st c = Alcotest.(check bool) "class" true (Taxonomy.of_status st = c) in
  chk (Status.Undetectable Status.Tied) Taxonomy.Structural_uc;
  chk (Status.Undetectable Status.Blocked) Taxonomy.Structural_uc;
  chk (Status.Undetectable Status.Unused) Taxonomy.Structural_uc;
  chk (Status.Undetectable Status.Conflict) Taxonomy.Conflict_uc;
  chk (Status.Undetectable Status.Software) Taxonomy.Software_safe;
  chk Status.Detected Taxonomy.Unclassified;
  chk Status.Not_analyzed Taxonomy.Unclassified

(* --- SEU unit netlists --- *)

(* one flop straight to the only output: any upset is visible *)
let vulnerable_ff () =
  let b = B.create () in
  let d = B.input b "d" in
  let ff = B.dff b ~name:"ff" ~d in
  let _ = B.output b "FO" ff in
  let nl = B.freeze_exn b in
  (nl, ff)

(* the flop drives nothing: the prefilter alone proves masking *)
let dead_ff () =
  let b = B.create () in
  let d = B.input b "d" in
  let ff = B.dff b ~name:"ff" ~d in
  let _ = B.output b "FO" (B.buf b d) in
  let nl = B.freeze_exn b in
  (nl, ff)

(* the flop is ANDed with constant 0 on the way out: the prefilter sees
   a path (it ignores controlling values) but the encoding proves every
   difference dies at the gate *)
let gated_ff () =
  let b = B.create () in
  let d = B.input b "d" in
  let ff = B.dff b ~name:"ff" ~d in
  let zero = B.tie b Logic4.L0 in
  let g = B.and2 b ~name:"g" ff zero in
  let _ = B.output b "FO" g in
  let nl = B.freeze_exn b in
  (nl, ff)

(* duplicated flop with an XOR comparator on an alarm output: an upset
   in either copy is visible, but never silently *)
let protected_ff () =
  let b = B.create () in
  let d = B.input b "d" in
  let ff1 = B.dff b ~name:"ff1" ~d in
  let ff2 = B.dff b ~name:"ff2" ~d in
  let _ = B.output b "FO" ff1 in
  let cmp = B.xor2 b ~name:"cmp" ff1 ff2 in
  let _ = B.output b "alarm_flag" cmp in
  let nl = B.freeze_exn b in
  (nl, ff1)

let test_seu_vulnerable () =
  let nl, ff = vulnerable_ff () in
  let r = Seu.classify_ff ~window:2 nl ff in
  Alcotest.(check bool) "vulnerable" true (r.Seu.cls = Taxonomy.Seu_vulnerable)

let test_seu_masked_structural () =
  let nl, ff = dead_ff () in
  let r = Seu.classify_ff ~window:3 nl ff in
  Alcotest.(check bool) "masked" true (r.Seu.cls = Taxonomy.Seu_masked);
  Alcotest.(check bool) "by prefilter" true r.Seu.structural

let test_seu_masked_gated () =
  let nl, ff = gated_ff () in
  let r = Seu.classify_ff ~window:3 nl ff in
  Alcotest.(check bool) "masked" true (r.Seu.cls = Taxonomy.Seu_masked);
  Alcotest.(check bool) "by encoding, not prefilter" false r.Seu.structural

let test_seu_protected () =
  let nl, ff = protected_ff () in
  let r = Seu.classify_ff ~window:2 nl ff in
  Alcotest.(check bool) "protected" true (r.Seu.cls = Taxonomy.Seu_protected)

let test_seu_non_seq_rejected () =
  let nl, _ = vulnerable_ff () in
  let inp = (Netlist.inputs nl).(0) in
  Alcotest.check_raises "non-seq"
    (Invalid_argument "Seu.classify_ff: not a sequential node") (fun () ->
      ignore (Seu.classify_ff nl inp))

(* A window of no cycles observes nothing: every flop would read
   "masked".  Rejected instead. *)
let test_seu_empty_window_rejected () =
  let nl, ff = vulnerable_ff () in
  Alcotest.check_raises "window 0"
    (Invalid_argument "Seu.classify_ff: window 0 < 1") (fun () ->
      ignore (Seu.classify_ff ~window:0 nl ff));
  Alcotest.check_raises "run window -1"
    (Invalid_argument "Seu.run: window -1 < 1") (fun () ->
      ignore (Seu.run ~window:(-1) nl))

let test_run_counts () =
  let nl, _ = protected_ff () in
  let r = Seu.run ~window:2 nl in
  Alcotest.(check int) "total" 2 r.Seu.total_ffs;
  Alcotest.(check int) "checked" 2 (Array.length r.Seu.results);
  (* ff1 feeds the functional output: protected.  ff2 only feeds the
     comparator: its upset never corrupts FO, so it is masked (an
     alarm-only divergence is not a functional failure) *)
  Alcotest.(check int) "ff1 protected" 1 r.Seu.protected_;
  Alcotest.(check int) "ff2 masked" 1 r.Seu.masked;
  Alcotest.(check int) "sum" 2
    (r.Seu.masked + r.Seu.protected_ + r.Seu.vulnerable + r.Seu.unknown)

(* --- concrete replay --- *)

let stim_all window v =
  Array.init window (fun _ -> { Seq_fsim.assign = v; strobe = true })

let test_replay_vulnerable_diverges () =
  let nl, ff = vulnerable_ff () in
  let d = (Netlist.inputs nl).(0) in
  let obs =
    Seq_fsim.run_seu ~init:Logic4.L0 ~alarm:(Seu.default_alarm nl) nl
      ~ffs:[| ff |]
      (stim_all 2 [ (d, Logic4.L0) ])
  in
  Alcotest.(check bool) "diverged" true obs.(0).Seq_fsim.seu_diverged;
  Alcotest.(check bool) "no alarm" false obs.(0).Seq_fsim.seu_alarmed

let test_replay_protected_alarms () =
  let nl, ff = protected_ff () in
  let d = (Netlist.inputs nl).(0) in
  let obs =
    Seq_fsim.run_seu ~init:Logic4.L0 ~alarm:(Seu.default_alarm nl) nl
      ~ffs:[| ff |]
      (stim_all 2 [ (d, Logic4.L0) ])
  in
  Alcotest.(check bool) "diverged" true obs.(0).Seq_fsim.seu_diverged;
  Alcotest.(check bool) "alarmed" true obs.(0).Seq_fsim.seu_alarmed

(* --- software-safe mechanism --- *)

(* The per-class split as a serial sweep made it before the rows came
   from classification passes: every fault of the universe asks the base
   analysis, then the software-strengthened one, then the
   invariant-strengthened one.  The reference for [pass_rows]. *)
let reference_breakdown ?software ?invariant t nl =
  let tied = ref 0 and blocked = ref 0 and conflict = ref 0 in
  let sw = ref 0 and inv = ref 0 in
  Array.iter
    (fun f ->
      match U.fault_verdict t f with
      | Some (Status.Undetectable Status.Tied) -> incr tied
      | Some (Status.Undetectable Status.Blocked) -> incr blocked
      | Some (Status.Undetectable Status.Conflict) -> incr conflict
      | Some _ | None -> (
        match software with
        | Some tsw when U.fault_verdict tsw f <> None -> incr sw
        | _ -> (
          match invariant with
          | None -> ()
          | Some tin -> if U.fault_verdict tin f <> None then incr inv)))
    (Fault.universe nl);
  [
    (Status.Tied, !tied);
    (Status.Blocked, !blocked);
    (Status.Conflict, !conflict);
    (Status.Software, !sw);
    (Status.Invariant, !inv);
  ]

(* The rows as the flow's consumers make them: the base analysis
   classifies the universe, then each strengthened analysis the faults
   still open. *)
let pass_rows ?software ?invariant t nl =
  let fl = Flist.full nl in
  ignore (U.classify ~jobs:1 t fl : int);
  let count c = Flist.count_status fl (Status.Undetectable c) in
  let base =
    List.map (fun c -> (c, count c)) [ Status.Tied; Status.Blocked; Status.Conflict ]
  in
  let pass = function None -> 0 | Some a -> U.classify ~jobs:1 a fl in
  let sw = pass software in
  let inv = pass invariant in
  base @ [ (Status.Software, sw); (Status.Invariant, inv) ]

let test_software_breakdown () =
  let b = B.create () in
  let a = B.input b "a" in
  let g = B.input b "g" in
  let x = B.and2 b ~name:"x" a g in
  let _ = B.output b "FO" x in
  let nl = B.freeze_exn b in
  let gid = match Netlist.find nl "g" with Some i -> i | None -> assert false in
  let t = U.analyze nl in
  let base = pass_rows t nl in
  Alcotest.(check int) "no software row without facts" 0
    (List.assoc Status.Software base);
  (* the software proves g is held at 0: x becomes constant and its
     s-a-0 faults turn untestable — attributed to the Software class *)
  let consts = Olfu_atpg.Ternary.run ~assume:[ (gid, Logic4.L0) ] nl in
  let tsw = U.analyze ~consts nl in
  let bd = pass_rows ~software:tsw t nl in
  Alcotest.(check bool) "software proofs appear" true
    (List.assoc Status.Software bd > 0);
  List.iter
    (fun c ->
      Alcotest.(check int)
        (Status.code (Status.Undetectable c) ^ " row unchanged")
        (List.assoc c base) (List.assoc c bd))
    [ Status.Tied; Status.Blocked; Status.Conflict ]

(* Classification passes make the reference's rows on random sequential
   netlists with tie cells, under each flip-flop reading, with random
   constants on inputs and flops standing for the software facts and the
   proved invariants. *)
let prop_passes_are_breakdown =
  QCheck2.Test.make ~count:40 ~name:"strengthened passes = breakdown rows"
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_bound 2))
    (fun (seed, mode) ->
      let rng = Random.State.make [| seed |] in
      let nl =
        Test_support.random_seq_netlist ~ties:true rng ~inputs:4 ~gates:30
          ~flops:4
      in
      let ff_mode =
        Olfu_atpg.Ternary.[| Steady_state; Reset_join; Cut |].(mode)
      in
      let strengthened () =
        let assume =
          Array.to_list (Array.append (Netlist.inputs nl) (Netlist.seq_nodes nl))
          |> List.filter (fun _ -> Random.State.int rng 3 = 0)
          |> List.map (fun i -> (i, Logic4.of_bool (Random.State.bool rng)))
        in
        U.analyze ~consts:(Olfu_atpg.Ternary.run ~ff_mode ~assume nl) nl
      in
      let t = U.analyze ~ff_mode nl in
      let software = strengthened () in
      let invariant = strengthened () in
      pass_rows ~software ~invariant t nl
      = reference_breakdown ~software ~invariant t nl)

(* --- the on-line BMC machine --- *)

(* every bench oracle and the invariant engine run on bmc_machine: it
   must equal tying scan_en and scan_in0 to 0, and leave a netlist with
   neither port unchanged *)
let test_bmc_machine () =
  let build ~scan =
    let b = B.create () in
    let d = B.input b "d" in
    let ff =
      if scan then
        let se = B.input b "scan_en" in
        let si = B.input b "scan_in0" in
        B.sdff b ~name:"ff" ~d ~si ~se
      else B.dff b ~name:"ff" ~d
    in
    let _ = B.output b "q" ff in
    B.freeze_exn b
  in
  let digest = Olfu_netlist.Analysis.digest_of in
  let nl = build ~scan:true in
  let tied =
    Olfu_manip.Script.apply nl
      [
        Olfu_manip.Script.Tie_input ("scan_en", Logic4.L0);
        Olfu_manip.Script.Tie_input ("scan_in0", Logic4.L0);
      ]
  in
  Alcotest.(check bool) "the ties change the digest" true
    (digest tied <> digest nl);
  Alcotest.(check string) "scan ports tied to 0" (digest tied)
    (digest (Classify.bmc_machine nl));
  let plain = build ~scan:false in
  Alcotest.(check string) "no scan ports: unchanged" (digest plain)
    (digest (Classify.bmc_machine plain))

(* --- full classifier on the small core --- *)

(* A safe-fault pass's count and its evidence split, as "UT n" codes. *)
let check_pass what (n, split) count by =
  Alcotest.(check int) what n count;
  Alcotest.(check (list string))
    (what ^ " evidence") split
    (List.map
       (fun (u, k) -> Printf.sprintf "%s %d" (Status.code (Status.Undetectable u)) k)
       by)

let test_classify_tcore16 () =
  let module A = Olfu_absint.Absint in
  let module P = Olfu_sbst.Programs in
  let cfg = Olfu_soc.Soc.tcore16 in
  let nl = Olfu_soc.Soc.generate cfg in
  let mission = Olfu.Mission.of_soc cfg nl in
  let named =
    List.map (fun p -> (p.P.pname, A.of_program cfg p)) (P.suite cfg)
  in
  let facts = A.activation_facts ~label:"tcore16-suite" cfg named in
  let config =
    {
      Classify.default with
      Classify.rc = { Olfu.Run_config.default with jobs = 2 };
      window = 2;
      seu_limit = 6;
    }
  in
  let r = Classify.run ~config ~facts nl mission in
  Alcotest.(check bool) "consistent" true (Classify.consistent r);
  Alcotest.(check int) "partition" r.Classify.universe
    (List.fold_left (fun acc (_, n) -> acc + n) 0 r.Classify.counts);
  Alcotest.(check bool) "structural verdicts present" true
    (List.assoc Taxonomy.Structural_uc r.Classify.counts > 0);
  Alcotest.(check int) "seu sample" 6 (Array.length r.Classify.seu.Seu.results);
  check_pass "invariant safe" (34, [ "UT 1"; "UB 17"; "UC 16" ])
    r.Classify.invariant_safe r.Classify.invariant_by

(* the pinned passes on the large core: software facts resolve here *)
let test_classify_tcore32 () =
  let module A = Olfu_absint.Absint in
  let cfg = Olfu_soc.Soc.tcore32 in
  let nl = Olfu_soc.Soc.generate cfg in
  let named =
    List.map
      (fun p -> (p.Olfu_sbst.Programs.pname, A.of_program cfg p))
      (Olfu_sbst.Programs.suite cfg)
  in
  let facts = A.activation_facts ~label:"tcore32-suite" cfg named in
  let config =
    {
      Classify.default with
      Classify.rc = { Olfu.Run_config.default with jobs = 2 };
      window = 1;
      seu_limit = 1;
    }
  in
  let r = Classify.run ~config ~facts nl (Olfu.Mission.of_soc cfg nl) in
  Alcotest.(check bool) "consistent" true (Classify.consistent r);
  check_pass "software safe" (761, [ "UT 544"; "UB 203"; "UC 14" ])
    r.Classify.software_safe r.Classify.software_by;
  check_pass "invariant safe" (164, [ "UT 97"; "UB 61"; "UC 6" ])
    r.Classify.invariant_safe r.Classify.invariant_by

(* --- qcheck: BMC verdicts vs concrete replay --- *)

(* random feed-forward machines: three inputs and an active-low reset,
   four flops fed by random two-input gates (the first two resettable,
   so the invariant prover has a reset state to prove from), two
   functional outputs and one "err_flag" alarm *)
let build_rand seed =
  let st = Random.State.make [| seed |] in
  let b = B.create () in
  let i1 = B.input b "i1" in
  let i2 = B.input b "i2" in
  let i3 = B.input b "i3" in
  let pool = ref [ i1; i2; i3 ] in
  let pick () = List.nth !pool (Random.State.int st (List.length !pool)) in
  let gate () =
    let x = pick () and y = pick () in
    match Random.State.int st 5 with
    | 0 -> B.and2 b x y
    | 1 -> B.or2 b x y
    | 2 -> B.xor2 b x y
    | 3 -> B.nand2 b x y
    | _ -> B.not_ b x
  in
  let rstn = B.input ~roles:[ Netlist.Reset ] b "rstn" in
  let ffs =
    Array.init 4 (fun k ->
        let name = Printf.sprintf "ff%d" k in
        let ff =
          if k < 2 then B.dffr b ~name ~d:(gate ()) ~rstn
          else B.dff b ~name ~d:(gate ())
        in
        pool := ff :: !pool;
        ff)
  in
  let _ = B.output b "FO1" (gate ()) in
  let _ = B.output b "FO2" (gate ()) in
  let _ = B.output b "err_flag" (gate ()) in
  (B.freeze_exn b, ffs)

let prop_seu_sound_vs_replay =
  QCheck2.Test.make ~count:40 ~name:"SEU verdicts sound vs concrete replay"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let nl, ffs = build_rand seed in
      let window = 3 in
      let st = Random.State.make [| seed + 7 |] in
      let inputs = Array.to_list (Netlist.inputs nl) in
      let stim =
        Array.init window (fun _ ->
            {
              Seq_fsim.assign =
                List.map
                  (fun i ->
                    (* reset held inactive, as in the SEU encoding *)
                    if Netlist.has_role nl i Netlist.Reset then (i, Logic4.L1)
                    else
                      (i, if Random.State.bool st then Logic4.L1 else Logic4.L0))
                  inputs;
              strobe = true;
            })
      in
      let obs =
        Seq_fsim.run_seu ~init:Logic4.L0 ~alarm:(Seu.default_alarm nl) nl
          ~ffs stim
      in
      (* the replay starts from all-zero flops: the reset state of the
         resettable ones and a legal power-up of the plain ones, so every
         invariant the machine's own prover certifies holds in it *)
      let proved = (Olfu_invar.Invar.run ~jobs:1 nl).Olfu_invar.Invar.proved in
      (* a replayed divergence is one concrete BMC witness: flops the
         model checker calls masked must not show it, and protected ones
         only with the alarm raised in the same window — with or without
         the invariants constraining the pre-upset state *)
      List.for_all
        (fun invariants ->
          Array.for_all2
            (fun ff (o : Seq_fsim.seu_obs) ->
              let r = Seu.classify_ff ~window ~invariants nl ff in
              match r.Seu.cls with
              | Taxonomy.Seu_masked -> not o.Seq_fsim.seu_diverged
              | Taxonomy.Seu_protected ->
                (not o.Seq_fsim.seu_diverged) || o.Seq_fsim.seu_alarmed
              | Taxonomy.Seu_vulnerable | Taxonomy.Seu_unknown -> true)
            ffs obs)
        [ []; proved ])

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "safety"
    [
      ( "taxonomy",
        [ Alcotest.test_case "of_status" `Quick test_of_status ] );
      ( "seu",
        [
          Alcotest.test_case "vulnerable" `Quick test_seu_vulnerable;
          Alcotest.test_case "masked structural" `Quick
            test_seu_masked_structural;
          Alcotest.test_case "masked gated" `Quick test_seu_masked_gated;
          Alcotest.test_case "protected" `Quick test_seu_protected;
          Alcotest.test_case "non-seq rejected" `Quick
            test_seu_non_seq_rejected;
          Alcotest.test_case "empty window rejected" `Quick
            test_seu_empty_window_rejected;
          Alcotest.test_case "run counts" `Quick test_run_counts;
          qt prop_seu_sound_vs_replay;
        ] );
      ( "replay",
        [
          Alcotest.test_case "vulnerable diverges" `Quick
            test_replay_vulnerable_diverges;
          Alcotest.test_case "protected alarms" `Quick
            test_replay_protected_alarms;
        ] );
      ( "software",
        [
          Alcotest.test_case "breakdown row" `Quick test_software_breakdown;
          qt prop_passes_are_breakdown;
        ] );
      ( "classify",
        [
          Alcotest.test_case "bmc machine" `Quick test_bmc_machine;
          Alcotest.test_case "tcore16" `Slow test_classify_tcore16;
          Alcotest.test_case "tcore32" `Slow test_classify_tcore32;
        ] );
    ]

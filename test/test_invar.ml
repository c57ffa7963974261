open Olfu_logic
open Olfu_netlist
module B = Netlist.Builder
module Invar = Olfu_invar.Invar
module Seq_sim = Olfu_sim.Seq_sim

(* --- per-class unit netlists ---

   Sequential feedback is built in two passes: flops are created on a
   placeholder driver, then [B.set_fanin] closes the loops (pin 0 is the
   d input of both [Dffr] layouts used here). *)

(* one-hot ring walker: from reset 000 the state goes 100 -> 010 -> 001
   -> 100 ...; reachable codes {0,1,2,4}, every flop pair is mutex *)
let one_hot_fsm () =
  let b = B.create () in
  let rstn = B.input ~roles:[ Netlist.Reset ] b "rstn" in
  let ph = B.tie b Logic4.L0 in
  let st = Array.init 3 (fun i ->
      B.dffr b ~name:(Printf.sprintf "st[%d]" i) ~d:ph ~rstn)
  in
  let idle = B.nor2 b (B.or2 b st.(0) st.(1)) st.(2) in
  B.set_fanin b st.(0) [| idle; rstn |];
  B.set_fanin b st.(1) [| st.(0); rstn |];
  B.set_fanin b st.(2) [| st.(1); rstn |];
  let _ = B.output b "FO" (B.or2 b st.(2) st.(0)) in
  (B.freeze_exn b, st)

(* 2-bit saturating counter: 0 -> 1 -> 2 -> 2 -> ...; code 3 unreachable *)
let saturating_counter () =
  let b = B.create () in
  let rstn = B.input ~roles:[ Netlist.Reset ] b "rstn" in
  let ph = B.tie b Logic4.L0 in
  let c0 = B.dffr b ~name:"cnt[0]" ~d:ph ~rstn in
  let c1 = B.dffr b ~name:"cnt[1]" ~d:ph ~rstn in
  B.set_fanin b c0 [| B.nor2 b c0 c1; rstn |];
  B.set_fanin b c1 [| B.or2 b c1 c0; rstn |];
  let _ = B.output b "FO" (B.xor2 b c0 c1) in
  (B.freeze_exn b, [| c0; c1 |])

(* grant pair: a' = d AND NOT b, b' = NOT d AND NOT a — never both 1,
   inductively (a' AND b' contains d AND NOT d), while each flop toggles *)
let mutex_pair () =
  let b = B.create () in
  let rstn = B.input ~roles:[ Netlist.Reset ] b "rstn" in
  let d = B.input b "d" in
  let ph = B.tie b Logic4.L0 in
  let a = B.dffr b ~name:"gnt_a" ~d:ph ~rstn in
  let bb = B.dffr b ~name:"gnt_b" ~d:ph ~rstn in
  B.set_fanin b a [| B.and2 b d (B.not_ b bb); rstn |];
  B.set_fanin b bb [| B.and2 b (B.not_ b d) (B.not_ b a); rstn |];
  let _ = B.output b "FO" (B.or2 b a bb) in
  (B.freeze_exn b, a, bb)

(* free-running 8-bit incrementer: bit 7 is 0 for the first 128 cycles —
   long enough to fool the 96-cycle miner, short enough for the
   256-cycle filter to catch *)
let counter8 () =
  let b = B.create () in
  let rstn = B.input ~roles:[ Netlist.Reset ] b "rstn" in
  let ph = B.tie b Logic4.L0 in
  let q = Array.init 8 (fun i ->
      B.dffr b ~name:(Printf.sprintf "q[%d]" i) ~d:ph ~rstn)
  in
  let carry = ref (B.tie b Logic4.L1) in
  Array.iter
    (fun qi ->
      B.set_fanin b qi [| B.xor2 b qi !carry; rstn |];
      carry := B.and2 b !carry qi)
    q;
  let _ = B.output b "FO" q.(7) in
  (B.freeze_exn b, q)

(* --- tests --- *)

let find_range proved group =
  List.find_opt
    (fun (inv : Invar.invariant) ->
      match inv.Invar.form with
      | Invar.Range { group = g; _ } -> g = group
      | _ -> false)
    proved

let has_mutex proved a b =
  List.exists
    (fun (inv : Invar.invariant) ->
      match inv.Invar.form with
      | Invar.Mutex (x, y) -> (x, y) = (a, b) || (x, y) = (b, a)
      | _ -> false)
    proved

let test_one_hot () =
  let nl, st = one_hot_fsm () in
  let r = Invar.run nl in
  (match find_range r.Invar.proved st with
  | Some { Invar.form = Invar.Range { reach; _ }; cert } ->
    Alcotest.(check (list int)) "reachable codes" [ 0; 1; 2; 4 ] reach;
    Alcotest.(check bool) "certificate k" true (cert.Invar.cert_k >= 1)
  | _ -> Alcotest.fail "no proved range on st");
  Alcotest.(check bool) "st0/st1 mutex" true
    (has_mutex r.Invar.proved st.(0) st.(1));
  Alcotest.(check bool) "st1/st2 mutex" true
    (has_mutex r.Invar.proved st.(1) st.(2));
  (* the at-most-one form of the same fact, fed to the prover directly *)
  let proved, failed = Invar.prove nl [ Invar.At_most_one st ] in
  Alcotest.(check int) "amo failed" 0 (List.length failed);
  Alcotest.(check int) "amo proved" 1 (List.length proved)

let test_saturating_counter () =
  let nl, c = saturating_counter () in
  let r = Invar.run nl in
  match find_range r.Invar.proved c with
  | Some { Invar.form = Invar.Range { reach; _ }; _ } ->
    Alcotest.(check (list int)) "reachable codes" [ 0; 1; 2 ] reach
  | _ -> Alcotest.fail "no proved range on cnt"

let test_mutex_pair () =
  let nl, a, b = mutex_pair () in
  let r = Invar.run nl in
  Alcotest.(check bool) "gnt mutex proved" true (has_mutex r.Invar.proved a b);
  (* neither grant flop is constant: the fact is genuinely sequential *)
  List.iter
    (fun (inv : Invar.invariant) ->
      match inv.Invar.form with
      | Invar.Const { ff; _ } ->
        if ff = a || ff = b then Alcotest.fail "grant flop proved constant"
      | _ -> ())
    r.Invar.proved

let test_sim_filter_kills_false_const () =
  let nl, q = counter8 () in
  let is_const_q7 c =
    match c with
    | Invar.Const { ff; value } -> ff = q.(7) && value = false
    | _ -> false
  in
  (* the 96-cycle mining trace never sees bit 7 rise ... *)
  let mined = Invar.mine nl in
  Alcotest.(check bool) "miner fooled" true (List.exists is_const_q7 mined);
  (* ... the 256-cycle filter kills the candidate before any proof *)
  let r = Invar.run nl in
  Alcotest.(check bool) "filter killed it" true
    (List.exists is_const_q7 r.Invar.killed);
  List.iter
    (fun (inv : Invar.invariant) ->
      if is_const_q7 inv.Invar.form then
        Alcotest.fail "false candidate reached the proved set")
    r.Invar.proved

let test_report_partition () =
  let nl, _ = one_hot_fsm () in
  let r = Invar.run nl in
  Alcotest.(check int) "mined = killed + unproved + proved"
    (List.length r.Invar.mined)
    (List.length r.Invar.killed
    + List.length r.Invar.unproved
    + List.length r.Invar.proved);
  let by = Invar.count_by_class r in
  let total = List.fold_left (fun acc (_, p, o) -> acc + p + o) 0 by in
  Alcotest.(check int) "class table covers every candidate"
    (List.length r.Invar.mined) total

(* An induction of depth 0 checks no cycle and would prove anything. *)
let test_zero_depth_rejected () =
  let nl, st = one_hot_fsm () in
  Alcotest.check_raises "prove k 0" (Invalid_argument "Invar.prove: k 0 < 1")
    (fun () -> ignore (Invar.prove ~k:0 nl [ Invar.At_most_one st ]));
  Alcotest.check_raises "run k -1" (Invalid_argument "Invar.run: k -1 < 1")
    (fun () -> ignore (Invar.run ~k:(-1) nl))

(* --- qcheck: proved invariants hold on long random traces --- *)

let build_rand seed =
  let st = Random.State.make [| seed |] in
  let b = B.create () in
  let rstn = B.input ~roles:[ Netlist.Reset ] b "rstn" in
  let i1 = B.input b "i1" in
  let i2 = B.input b "i2" in
  let ph = B.tie b Logic4.L0 in
  let ffs =
    Array.init 4 (fun k ->
        B.dffr b ~name:(Printf.sprintf "r[%d]" k) ~d:ph ~rstn)
  in
  let pool = ref [ i1; i2; ffs.(0); ffs.(1); ffs.(2); ffs.(3) ] in
  let pick () = List.nth !pool (Random.State.int st (List.length !pool)) in
  let gate () =
    let x = pick () and y = pick () in
    let g =
      match Random.State.int st 5 with
      | 0 -> B.and2 b x y
      | 1 -> B.or2 b x y
      | 2 -> B.xor2 b x y
      | 3 -> B.nand2 b x y
      | _ -> B.not_ b x
    in
    pool := g :: !pool;
    g
  in
  Array.iter (fun ff -> B.set_fanin b ff [| gate (); rstn |]) ffs;
  let _ = B.output b "FO" (gate ()) in
  (B.freeze_exn b, ffs)

let bit sim ff =
  match Seq_sim.value sim ff with
  | Logic4.L1 -> Some true
  | Logic4.L0 -> Some false
  | _ -> None

let holds sim (inv : Invar.invariant) =
  match inv.Invar.form with
  | Invar.Const { ff; value } -> (
    match bit sim ff with Some x -> x = value | None -> true)
  | Invar.Implies { a; av; b; bv } -> (
    match (bit sim a, bit sim b) with
    | Some x, Some y -> x <> av || y = bv
    | _ -> true)
  | Invar.Mutex (a, b) -> (
    match (bit sim a, bit sim b) with
    | Some x, Some y -> not (x && y)
    | _ -> true)
  | Invar.At_most_one g ->
    let ones =
      Array.fold_left
        (fun acc ff -> if bit sim ff = Some true then acc + 1 else acc)
        0 g
    in
    ones <= 1
  | Invar.Range { group; reach } ->
    let value = ref 0 and binary = ref true in
    Array.iteri
      (fun i ff ->
        match bit sim ff with
        | Some true -> value := !value lor (1 lsl i)
        | Some false -> ()
        | None -> binary := false)
      group;
    (not !binary) || List.mem !value reach

let prop_proved_hold_on_traces =
  QCheck2.Test.make ~count:25
    ~name:"proved invariants hold on long random traces"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let nl, _ = build_rand seed in
      let r = Invar.run nl in
      let st = Random.State.make [| seed + 13 |] in
      let sim = Seq_sim.create ~init:Logic4.L0 nl in
      let inputs = Netlist.inputs nl in
      let rstn =
        Array.to_list inputs
        |> List.find (fun i -> Netlist.has_role nl i Netlist.Reset)
      in
      let ok = ref true in
      for _cycle = 0 to 299 do
        Array.iter
          (fun i ->
            if i <> rstn then
              Seq_sim.set_input sim i
                (if Random.State.bool st then Logic4.L1 else Logic4.L0))
          inputs;
        Seq_sim.set_input sim rstn Logic4.L1;
        Seq_sim.settle sim;
        List.iter
          (fun inv -> if not (holds sim inv) then ok := false)
          r.Invar.proved;
        Seq_sim.step sim
      done;
      !ok)

let prop_sliced_prove_identical =
  QCheck2.Test.make ~count:15
    ~name:"sliced prove = unsliced prove (proved set, certs, failures)"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let nl, _ = build_rand seed in
      let cands = Invar.mine ~seed nl in
      let pf = Invar.prove ~jobs:1 ~sliced:false nl cands in
      let ps = Invar.prove ~jobs:1 ~sliced:true nl cands in
      pf = ps)

(* --- tcore16 integration regression --- *)

let test_tcore16_counts () =
  let cfg = Olfu_soc.Soc.tcore16 in
  let nl = Olfu_soc.Soc.generate cfg in
  let mission = Olfu.Mission.of_soc cfg nl in
  let machine =
    Olfu_safety.Classify.bmc_machine (Olfu.Flow.mission_netlist nl mission)
  in
  let r = Invar.run ~jobs:2 machine in
  let by = Invar.count_by_class r in
  let proved cls =
    match List.find_opt (fun (c, _, _) -> c = cls) by with
    | Some (_, p, _) -> p
    | None -> 0
  in
  (* pinned counts: the pipeline is deterministic (fixed seeds, greatest
     inductive subset), so any drift is a real behaviour change *)
  Alcotest.(check int) "proved" 66 (List.length r.Invar.proved);
  Alcotest.(check int) "const proved" 60 (proved "const");
  Alcotest.(check int) "mutex proved" 3 (proved "mutex");
  Alcotest.(check int) "range proved" 3 (proved "range");
  Alcotest.(check bool) "a non-constant class is proved" true
    (proved "mutex" + proved "at-most-one" + proved "range" >= 1)

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "invar"
    [
      ( "classes",
        [
          Alcotest.test_case "one-hot ring" `Quick test_one_hot;
          Alcotest.test_case "saturating counter" `Quick
            test_saturating_counter;
          Alcotest.test_case "mutex pair" `Quick test_mutex_pair;
          Alcotest.test_case "sim filter kills false const" `Quick
            test_sim_filter_kills_false_const;
          Alcotest.test_case "report partition" `Quick test_report_partition;
          Alcotest.test_case "zero depth rejected" `Quick
            test_zero_depth_rejected;
        ] );
      ("soundness", [ qt prop_proved_hold_on_traces ]);
      ("slicing", [ qt prop_sliced_prove_identical ]);
      ("integration", [ Alcotest.test_case "tcore16 counts" `Quick test_tcore16_counts ]);
    ]

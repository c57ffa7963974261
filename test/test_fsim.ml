open Olfu_logic
open Olfu_netlist
open Olfu_fault
open Olfu_atpg
open Olfu_fsim
module B = Netlist.Builder

(* --- combinational PPSFP --- *)

let test_adder_high_coverage () =
  let nl = Test_support.full_adder () in
  let fl = Flist.full nl in
  let pats = Comb_fsim.random_patterns ~seed:7 nl 64 in
  let r = Comb_fsim.run nl fl pats in
  (* every adder fault is detectable and 64 random patterns cover the whole
     8-entry input space with overwhelming probability *)
  Alcotest.(check int) "all detected" (Flist.size fl) r.Comb_fsim.detected;
  Alcotest.(check (float 0.001)) "coverage 100%" 1.0 (Flist.fault_coverage fl)

let test_podem_tests_detect () =
  (* PODEM's patterns, replayed through the fault simulator, must detect. *)
  let nl = Test_support.full_adder () in
  let srcs = Array.append (Netlist.inputs nl) (Netlist.seq_nodes nl) in
  Array.iter
    (fun f ->
      match Podem.run nl f with
      | Podem.Test asg ->
        let pat =
          Array.map
            (fun s ->
              match List.assoc_opt s asg with
              | Some b -> Logic4.of_bool b
              | None -> Logic4.L0)
            srcs
        in
        Alcotest.(check bool)
          (Printf.sprintf "fsim confirms %s" (Fault.to_string nl f))
          true
          (Comb_fsim.detects nl f pat)
      | _ -> Alcotest.fail "adder fault not tested")
    (Fault.universe nl)

let test_redundant_never_detected () =
  let nl = Test_support.redundant_circuit () in
  let bnode = Netlist.find_exn nl "b" in
  let fl = Flist.create nl [| Fault.sa0 bnode Cell.Pin.Out |] in
  let r = Comb_fsim.run nl fl (Comb_fsim.random_patterns ~seed:3 nl 256) in
  Alcotest.(check int) "no detection" 0 r.Comb_fsim.detected

let prop_untestable_never_detected =
  QCheck2.Test.make ~count:20
    ~name:"implication-untestable faults never detected by fsim"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let nl = Test_support.random_comb_netlist rng ~inputs:4 ~gates:20 in
      let t = Untestable.analyze ~ff_mode:Ternary.Cut nl in
      let fl = Flist.full nl in
      ignore
        (Comb_fsim.run nl fl (Comb_fsim.random_patterns ~seed nl 128)
          : Comb_fsim.report);
      let ok = ref true in
      Flist.iteri
        (fun _ f st ->
          if Status.equal st Status.Detected then
            match Untestable.fault_verdict t f with
            | Some _ -> ok := false  (* engine called a detected fault dead *)
            | None -> ())
        fl;
      !ok)

(* batching edge: more than 64 patterns, non-multiple of 64 *)
let test_batching () =
  let nl = Test_support.full_adder () in
  let fl = Flist.full nl in
  let r = Comb_fsim.run nl fl (Comb_fsim.random_patterns ~seed:1 nl 100) in
  Alcotest.(check int) "patterns counted" 100 r.Comb_fsim.patterns;
  Alcotest.(check bool) "detected all" true
    (Flist.count_status fl Status.Detected = Flist.size fl)

(* --- cone engine vs full-settle oracle, parallel determinism --- *)

let statuses fl = Array.init (Flist.size fl) (Flist.status fl)

let prop_cone_engine_matches_full =
  QCheck2.Test.make ~count:15
    ~name:"cone engine = full-settle baseline, statuses identical any jobs"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let nl =
        if seed mod 2 = 0 then
          Test_support.random_comb_netlist rng ~inputs:4 ~gates:25
        else Test_support.random_seq_netlist rng ~inputs:3 ~gates:18 ~flops:3
      in
      (* 100 patterns: two batches, the second partial *)
      let pats = Comb_fsim.random_patterns ~seed nl 100 in
      let run engine jobs =
        let fl = Flist.full nl in
        let r = Comb_fsim.run ~engine ~jobs nl fl pats in
        (statuses fl, r)
      in
      let reference = run Comb_fsim.Full_settle 1 in
      List.for_all
        (fun jobs -> run Comb_fsim.Cone jobs = reference)
        [ 1; 2; 4 ])

let prop_cone_matches_detects_oracle =
  QCheck2.Test.make ~count:25
    ~name:"cone run agrees with the single-fault detects oracle"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let nl = Test_support.random_comb_netlist rng ~inputs:4 ~gates:20 in
      let universe = Fault.universe nl in
      let f = universe.(Random.State.int rng (Array.length universe)) in
      if f.Fault.site.Fault.pin = Cell.Pin.Clk then true
      else begin
        let pat = (Comb_fsim.random_patterns ~seed nl 1).(0) in
        let fl = Flist.create nl [| f |] in
        ignore
          (Comb_fsim.run ~engine:Comb_fsim.Cone ~jobs:1 nl fl [| pat |]
            : Comb_fsim.report);
        Bool.equal
          (Status.equal (Flist.status fl 0) Status.Detected)
          (Comb_fsim.detects nl f pat)
      end)

(* --- sequential, fault-parallel --- *)

let shift3 () =
  let b = B.create () in
  let d = B.input b "d" in
  let f1 = B.dff b ~name:"f1" ~d in
  let f2 = B.dff b ~name:"f2" ~d:f1 in
  let f3 = B.dff b ~name:"f3" ~d:f2 in
  let _ = B.output b "q" f3 in
  B.freeze_exn b

let drive nl name v = (Netlist.find_exn nl name, v)

let test_seq_shift_detection () =
  let nl = shift3 () in
  let fl = Flist.full nl in
  (* walk 1 then 0 through the register, strobing every cycle *)
  let stim =
    Array.init 10 (fun i ->
        {
          Seq_fsim.assign =
            [ drive nl "d" (Logic4.of_bool (i mod 4 < 2)) ];
          strobe = true;
        })
  in
  let r = Seq_fsim.run ~init:Logic4.L0 nl fl stim in
  Alcotest.(check int) "cycles" 10 r.Seq_fsim.cycles;
  (* every stuck-at on the d path shows at q *)
  let d = Netlist.find_exn nl "d" in
  let idx f = Option.get (Flist.find fl f) in
  Alcotest.(check bool) "d s@0 detected" true
    (Status.equal (Flist.status fl (idx (Fault.sa0 d Cell.Pin.Out))) Status.Detected);
  Alcotest.(check bool) "d s@1 detected" true
    (Status.equal (Flist.status fl (idx (Fault.sa1 d Cell.Pin.Out))) Status.Detected);
  let f2 = Netlist.find_exn nl "f2" in
  Alcotest.(check bool) "f2 out s@1 detected" true
    (Status.equal (Flist.status fl (idx (Fault.sa1 f2 Cell.Pin.Out))) Status.Detected)

let test_seq_clock_fault () =
  let nl = shift3 () in
  let f1 = Netlist.find_exn nl "f1" in
  let fl = Flist.create nl [| Fault.sa0 f1 Cell.Pin.Clk |] in
  (* with init 0 and a walking 1, a frozen f1 never passes the 1 along *)
  let stim =
    Array.init 8 (fun i ->
        {
          Seq_fsim.assign = [ drive nl "d" (Logic4.of_bool (i mod 2 = 0)) ];
          strobe = true;
        })
  in
  let r = Seq_fsim.run ~init:Logic4.L0 nl fl stim in
  Alcotest.(check int) "clock fault detected" 1 r.Seq_fsim.detected

let test_seq_unobserved_output () =
  let nl = shift3 () in
  let fl = Flist.full nl in
  let stim =
    Array.init 8 (fun i ->
        {
          Seq_fsim.assign = [ drive nl "d" (Logic4.of_bool (i mod 2 = 0)) ];
          strobe = true;
        })
  in
  (* observing nothing detects nothing *)
  let r = Seq_fsim.run ~init:Logic4.L0 ~observe:(fun _ -> false) nl fl stim in
  Alcotest.(check int) "no observation, no detection" 0 r.Seq_fsim.detected

let test_seq_scan_faults_undetected () =
  (* mission stimulus (se = 0) never detects SI faults: the empirical
     confirmation of the paper's scan rule *)
  let b = B.create () in
  let d = B.input b "d" in
  let si = B.input b ~roles:[ Netlist.Scan_in ] "si" in
  let se = B.input b ~roles:[ Netlist.Scan_enable ] "se" in
  let ff = B.sdff b ~name:"ff" ~d ~si ~se in
  let _ = B.output b "q" ff in
  let nl = B.freeze_exn b in
  let fl = Flist.full nl in
  let stim =
    Array.init 8 (fun i ->
        {
          Seq_fsim.assign =
            [
              drive nl "d" (Logic4.of_bool (i mod 2 = 0));
              drive nl "si" (Logic4.of_bool (i mod 3 = 0));
              drive nl "se" Logic4.L0;
            ];
          strobe = true;
        })
  in
  ignore (Seq_fsim.run ~init:Logic4.L0 nl fl stim : Seq_fsim.report);
  let idx f = Option.get (Flist.find fl f) in
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "%s undetected" (Fault.to_string nl f))
        false
        (Status.equal (Flist.status fl (idx f)) Status.Detected))
    [
      Fault.sa0 ff (Cell.Pin.In 1); Fault.sa1 ff (Cell.Pin.In 1);
      Fault.sa0 ff (Cell.Pin.In 2);
    ];
  (* while SE s@1 IS detected: it swaps the captured value to si *)
  Alcotest.(check bool) "SE s@1 detected" true
    (Status.equal
       (Flist.status fl (idx (Fault.sa1 ff (Cell.Pin.In 2))))
       Status.Detected)

(* fault-parallel = serial scalar: spot-check against a scalar rerun *)
let prop_seq_matches_scalar =
  QCheck2.Test.make ~count:10 ~name:"fault-parallel = scalar sequential"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let nl = Test_support.random_seq_netlist rng ~inputs:3 ~gates:12 ~flops:3 in
      let fl = Flist.full nl in
      let ins = Netlist.inputs nl in
      let stim =
        Array.init 12 (fun _ ->
            {
              Seq_fsim.assign =
                Array.to_list ins
                |> List.map (fun i ->
                       (i, Logic4.of_bool (Random.State.bool rng)));
              strobe = true;
            })
      in
      ignore (Seq_fsim.run ~init:Logic4.L0 nl fl stim : Seq_fsim.report);
      (* re-run a few faults alone (their own batch) and compare verdicts *)
      let ok = ref true in
      let check_lone fi =
        let f = Flist.fault fl fi in
        let fl1 = Flist.create nl [| f |] in
        ignore (Seq_fsim.run ~init:Logic4.L0 nl fl1 stim : Seq_fsim.report);
        let lone = Status.equal (Flist.status fl1 0) Status.Detected in
        let batched = Status.equal (Flist.status fl fi) Status.Detected in
        if lone <> batched then ok := false
      in
      let n = Flist.size fl in
      check_lone 0;
      check_lone (n / 2);
      check_lone (n - 1);
      check_lone (n / 3);
      !ok)

let prop_seq_jobs_deterministic =
  QCheck2.Test.make ~count:10
    ~name:"seq fsim statuses identical for any jobs"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let nl =
        Test_support.random_seq_netlist rng ~inputs:3 ~gates:15 ~flops:4
      in
      let ins = Netlist.inputs nl in
      let stim =
        Array.init 10 (fun _ ->
            {
              Seq_fsim.assign =
                Array.to_list ins
                |> List.map (fun i ->
                       (i, Logic4.of_bool (Random.State.bool rng)));
              strobe = true;
            })
      in
      let run jobs =
        let fl = Flist.full nl in
        let r = Seq_fsim.run ~init:Logic4.L0 ~jobs nl fl stim in
        (statuses fl, r)
      in
      let reference = run 1 in
      List.for_all (fun jobs -> run jobs = reference) [ 2; 4 ])

(* --- reference: the boxed Dualrail loops the word-level core replaced ---
   One batch of 63 faults at a time over [Dualrail.t] environments, the
   faults' masks in per-batch [Hashtbl]s keyed by node or (node, pin).
   Batches run one after the other: each owns its fault indices, so the
   engine's [jobs] cannot matter. *)
module Reference = struct
  type batch = {
    fault_index : int array;  (* flist index per lane, -1 for unused/good *)
    stem0 : (int, int64) Hashtbl.t;  (* node -> lanes stuck at 0 *)
    stem1 : (int, int64) Hashtbl.t;
    branch0 : (int * int, int64) Hashtbl.t;  (* (node, pin) -> lanes *)
    branch1 : (int * int, int64) Hashtbl.t;
    clk : (int, int64) Hashtbl.t;  (* flop node -> frozen lanes *)
  }

  let add_mask tbl key lane =
    let m = Option.value ~default:0L (Hashtbl.find_opt tbl key) in
    Hashtbl.replace tbl key (Int64.logor m (Int64.shift_left 1L lane))

  let make_batch fl lanes =
    let b =
      {
        fault_index = Array.make 64 (-1);
        stem0 = Hashtbl.create 67;
        stem1 = Hashtbl.create 67;
        branch0 = Hashtbl.create 67;
        branch1 = Hashtbl.create 67;
        clk = Hashtbl.create 17;
      }
    in
    List.iteri
      (fun k fi ->
        let lane = k + 1 in
        b.fault_index.(lane) <- fi;
        let f = Flist.fault fl fi in
        let { Fault.node; pin } = f.Fault.site in
        match pin with
        | Cell.Pin.Out ->
          add_mask (if f.Fault.stuck then b.stem1 else b.stem0) node lane
        | Cell.Pin.In p ->
          add_mask
            (if f.Fault.stuck then b.branch1 else b.branch0)
            (node, p) lane
        | Cell.Pin.Clk -> add_mask b.clk node lane)
      lanes;
    b

  let mask_of tbl key = Option.value ~default:0L (Hashtbl.find_opt tbl key)

  let inject_stem b node v =
    let m0 = mask_of b.stem0 node and m1 = mask_of b.stem1 node in
    if m0 = 0L && m1 = 0L then v else Dualrail.force_mask v ~m0 ~m1

  let next_state nl operand s =
    match Netlist.kind nl s with
    | Cell.Dff -> operand s 0
    | Cell.Dffr ->
      Dualrail.mux ~sel:(operand s 1) ~a:Dualrail.zero ~b:(operand s 0)
    | Cell.Sdff ->
      Dualrail.mux ~sel:(operand s 2) ~a:(operand s 0) ~b:(operand s 1)
    | Cell.Sdffr ->
      Dualrail.mux ~sel:(operand s 3) ~a:Dualrail.zero
        ~b:(Dualrail.mux ~sel:(operand s 2) ~a:(operand s 0) ~b:(operand s 1))
    | _ -> assert false

  (* one settle of [env]: sources, flops, then the topological order *)
  let settle nl env ~inputs ~state ~stem ~operand =
    Netlist.iter_nodes
      (fun i nd ->
        match nd.Netlist.kind with
        | Cell.Input -> env.(i) <- stem i inputs.(i)
        | Cell.Tie0 -> env.(i) <- stem i Dualrail.zero
        | Cell.Tie1 -> env.(i) <- stem i Dualrail.one
        | Cell.Tiex -> env.(i) <- stem i Dualrail.unknown
        | _ -> ())
      nl;
    Array.iteri (fun k s -> env.(s) <- stem s state.(k)) (Netlist.seq_nodes nl);
    Array.iter
      (fun i ->
        let nd = Netlist.node nl i in
        let ins = Array.init (Array.length nd.Netlist.fanin) (operand i) in
        env.(i) <- stem i (Test_support.comb_par nd.Netlist.kind ins))
      (Netlist.topo nl)

  let run ~init ~observe nl fl stimulus =
    let seqs = Netlist.seq_nodes nl in
    let outs = Array.to_list (Netlist.outputs nl) |> List.filter observe in
    let n = Netlist.length nl in
    let active =
      Flist.indices fl ~f:(fun st ->
          match st with
          | Status.Not_analyzed | Status.Not_detected
          | Status.Possibly_detected ->
            true
          | _ -> false)
    in
    let detected = ref 0 and possibly = ref 0 in
    let rec batches = function
      | [] -> []
      | l ->
        let rec take k acc rest =
          match rest with
          | x :: tl when k > 0 -> take (k - 1) (x :: acc) tl
          | _ -> (List.rev acc, rest)
        in
        let batch, rest = take 63 [] l in
        batch :: batches rest
    in
    List.iter
      (fun lane_faults ->
        let b = make_batch fl lane_faults in
        let env = Array.make n Dualrail.unknown in
        let inputs = Array.make n Dualrail.unknown in
        let state = Array.map (fun _ -> Dualrail.const init) seqs in
        let det = Array.make 64 false and pt = Array.make 64 false in
        let operand node p =
          let v = env.((Netlist.fanin nl node).(p)) in
          let m0 = mask_of b.branch0 (node, p)
          and m1 = mask_of b.branch1 (node, p) in
          if m0 = 0L && m1 = 0L then v else Dualrail.force_mask v ~m0 ~m1
        in
        Array.iter
          (fun step ->
            List.iter
              (fun (i, v) -> inputs.(i) <- Dualrail.const v)
              step.Seq_fsim.assign;
            settle nl env ~inputs ~state ~stem:(inject_stem b) ~operand;
            if step.Seq_fsim.strobe then
              List.iter
                (fun o ->
                  let fv = operand o 0 in
                  let g = Dualrail.get fv 0 in
                  if Logic4.is_binary g then begin
                    let d = Dualrail.diff_mask (Dualrail.const g) fv in
                    let p = Int64.lognot (Dualrail.binary_mask fv) in
                    for lane = 1 to 63 do
                      if b.fault_index.(lane) >= 0 then begin
                        let bit = Int64.shift_left 1L lane in
                        if Int64.logand d bit <> 0L then det.(lane) <- true
                        else if Int64.logand p bit <> 0L then pt.(lane) <- true
                      end
                    done
                  end)
                outs;
            Array.iteri
              (fun k s ->
                let next = inject_stem b s (next_state nl operand s) in
                let frozen = mask_of b.clk s in
                state.(k) <-
                  (if frozen = 0L then next
                   else Dualrail.select_mask next state.(k) frozen))
              seqs)
          stimulus;
        for lane = 1 to 63 do
          let fi = b.fault_index.(lane) in
          if fi >= 0 then
            if det.(lane) then begin
              Flist.set_status fl fi Status.Detected;
              incr detected
            end
            else if
              pt.(lane)
              && not
                   (Status.equal (Flist.status fl fi) Status.Possibly_detected)
            then begin
              Flist.set_status fl fi Status.Possibly_detected;
              incr possibly
            end
        done)
      (batches active);
    {
      Seq_fsim.cycles = Array.length stimulus;
      faults_simulated = List.length active;
      detected = !detected;
      possibly = !possibly;
    }

  let run_seu ~init ~observe ~alarm nl ~ffs stimulus =
    let seqs = Netlist.seq_nodes nl in
    let seq_slot = Hashtbl.create 97 in
    Array.iteri (fun k s -> Hashtbl.replace seq_slot s k) seqs;
    let outs p = Array.to_list (Netlist.outputs nl) |> List.filter p in
    let func_outs = outs (fun o -> observe o && not (alarm o)) in
    let alarm_outs = outs (fun o -> observe o && alarm o) in
    let n = Netlist.length nl in
    let results =
      Array.map
        (fun ff ->
          { Seq_fsim.seu_ff = ff; seu_diverged = false; seu_alarmed = false })
        ffs
    in
    let rec batches lo =
      if lo >= Array.length ffs then []
      else
        let hi = min (Array.length ffs) (lo + 63) in
        (lo, hi) :: batches hi
    in
    List.iter
      (fun (lo, hi) ->
        let env = Array.make n Dualrail.unknown in
        let inputs = Array.make n Dualrail.unknown in
        let state = Array.map (fun _ -> Dualrail.const init) seqs in
        for k = lo to hi - 1 do
          let slot = Hashtbl.find seq_slot ffs.(k) in
          state.(slot) <-
            Dualrail.set state.(slot) (1 + k - lo) (Logic4.not_ init)
        done;
        let diverged = ref 0L and alarmed = ref 0L in
        let operand node p = env.((Netlist.fanin nl node).(p)) in
        Array.iter
          (fun step ->
            List.iter
              (fun (i, v) -> inputs.(i) <- Dualrail.const v)
              step.Seq_fsim.assign;
            settle nl env ~inputs ~state ~stem:(fun _ v -> v) ~operand;
            if step.Seq_fsim.strobe then begin
              let strobe_outs acc outs =
                List.fold_left
                  (fun acc o ->
                    let fv = operand o 0 in
                    let g = Dualrail.get fv 0 in
                    if Logic4.is_binary g then
                      Int64.logor acc (Dualrail.diff_mask (Dualrail.const g) fv)
                    else acc)
                  acc outs
              in
              diverged := strobe_outs !diverged func_outs;
              alarmed := strobe_outs !alarmed alarm_outs
            end;
            Array.iteri
              (fun k s -> state.(k) <- next_state nl operand s)
              seqs)
          stimulus;
        for k = lo to hi - 1 do
          let bit = Int64.shift_left 1L (1 + k - lo) in
          results.(k) <-
            {
              (results.(k)) with
              seu_diverged = Int64.logand !diverged bit <> 0L;
              seu_alarmed = Int64.logand !alarmed bit <> 0L;
            }
        done)
      (batches 0);
    results
end

(* A random machine over every cell kind and a stimulus that drives a
   random subset of inputs per cycle, X included, strobing two cycles in
   three. *)
let random_machine seed =
  let rng = Random.State.make [| seed |] in
  let nl =
    Test_support.random_seq_netlist ~all_kinds:true rng ~inputs:4 ~gates:24
      ~flops:6
  in
  let values = [| Logic4.L0; Logic4.L1; Logic4.L0; Logic4.L1; Logic4.X |] in
  let stim =
    Array.init 14 (fun c ->
        {
          Seq_fsim.assign =
            Array.to_list (Netlist.inputs nl)
            |> List.filter (fun _ -> c = 0 || Random.State.int rng 3 > 0)
            |> List.map (fun i -> (i, values.(Random.State.int rng 5)));
          strobe = c mod 3 <> 1;
        })
  in
  (nl, rng, stim)

let prop_seq_matches_reference =
  QCheck2.Test.make ~count:30
    ~name:"word-level seq fsim = boxed reference, any init and jobs"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let nl, rng, stim = random_machine seed in
      let init = if seed mod 2 = 0 then Logic4.X else Logic4.L0 in
      let observe o = (o + seed) mod 4 <> 0 in
      (* 64..123 faults: two batches, the second partial *)
      let u = Fault.universe nl in
      let faults = Array.sub u 0 (min (Array.length u) (64 + (seed mod 60))) in
      let pre = Array.map (fun _ -> Random.State.int rng 8) faults in
      let fresh () =
        let fl = Flist.create nl faults in
        Array.iteri
          (fun k r ->
            if r = 0 then Flist.set_status fl k Status.Detected
            else if r = 1 then Flist.set_status fl k Status.Possibly_detected)
          pre;
        fl
      in
      let fl_ref = fresh () in
      let r_ref = Reference.run ~init ~observe nl fl_ref stim in
      Array.length faults > 63
      && List.for_all
           (fun jobs ->
             let fl = fresh () in
             let r = Seq_fsim.run ~init ~observe ~jobs nl fl stim in
             r = r_ref && statuses fl = statuses fl_ref)
           [ 1; 2; 4 ])

let prop_seu_matches_reference =
  QCheck2.Test.make ~count:30 ~name:"word-level SEU replay = boxed reference"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let nl, _, stim = random_machine seed in
      let init = if seed mod 2 = 0 then Logic4.L0 else Logic4.X in
      let observe o = (o + seed) mod 5 <> 0 in
      let alarm o = o mod 3 = 0 in
      (* every flop, repeated past one batch *)
      let seqs = Netlist.seq_nodes nl in
      let ffs = Array.init 70 (fun k -> seqs.(k mod Array.length seqs)) in
      Seq_fsim.run_seu ~init ~observe ~alarm nl ~ffs stim
      = Reference.run_seu ~init ~observe ~alarm nl ~ffs stim)

(* --- reference: the boxed Dualrail full-settle engine Comb_fsim ran on ---
   Per 64-pattern batch a [Dualrail.t] environment settled by [comb_par];
   per fault, one after the other, the whole netlist settled again with
   the fault injected.  Outputs are observed on their operand, captures
   from the flop's operands. *)
module Comb_reference = struct
  let pt_mask good faulty =
    Int64.logand (Dualrail.binary_mask good)
      (Int64.lognot (Dualrail.binary_mask faulty))

  (* Settle [env], whose source lanes are loaded, with [fault] injected;
     returns the operand reader of the settled circuit. *)
  let settle nl env fault =
    let site, stuck =
      match fault with
      | Some (f : Fault.t) ->
        ( Some f.Fault.site,
          Dualrail.const (if f.Fault.stuck then Logic4.L1 else Logic4.L0) )
      | None -> (None, Dualrail.unknown)
    in
    let faulty i pin =
      match site with
      | Some { Fault.node; pin = p } -> node = i && Cell.Pin.equal p pin
      | None -> false
    in
    Netlist.iter_nodes
      (fun i nd ->
        match nd.Netlist.kind with
        | Cell.Tie0 -> env.(i) <- Dualrail.zero
        | Cell.Tie1 -> env.(i) <- Dualrail.one
        | Cell.Tiex -> env.(i) <- Dualrail.unknown
        | _ -> if faulty i Cell.Pin.Out then env.(i) <- stuck)
      nl;
    let operand i p =
      if faulty i (Cell.Pin.In p) then stuck else env.((Netlist.fanin nl i).(p))
    in
    Array.iter
      (fun i ->
        let ins = Array.init (Array.length (Netlist.fanin nl i)) (operand i) in
        let v = Test_support.comb_par (Netlist.kind nl i) ins in
        env.(i) <- (if faulty i Cell.Pin.Out then stuck else v))
      (Netlist.topo nl);
    operand

  let run ~observe_captures ~observable_output nl fl patterns =
    let srcs = Array.append (Netlist.inputs nl) (Netlist.seq_nodes nl) in
    let seqs = Netlist.seq_nodes nl in
    let outs = List.filter observable_output (Array.to_list (Netlist.outputs nl)) in
    let detected = ref 0 and possibly = ref 0 in
    for batch = 0 to ((Array.length patterns + 63) / 64) - 1 do
      let base = batch * 64 in
      let lanes = min 64 (Array.length patterns - base) in
      let live =
        if lanes = 64 then -1L else Int64.sub (Int64.shift_left 1L lanes) 1L
      in
      let genv = Array.make (Netlist.length nl) Dualrail.unknown in
      Array.iteri
        (fun k src ->
          for lane = 0 to lanes - 1 do
            genv.(src) <- Dualrail.set genv.(src) lane patterns.(base + lane).(k)
          done)
        srcs;
      let good_op = settle nl genv None in
      let good_cap = Array.map (Reference.next_state nl good_op) seqs in
      for fi = 0 to Flist.size fl - 1 do
        let st = Flist.status fl fi and f = Flist.fault fl fi in
        let active =
          match st with
          | Status.Not_analyzed | Status.Not_detected
          | Status.Possibly_detected ->
            f.Fault.site.Fault.pin <> Cell.Pin.Clk
          | _ -> false
        in
        if active then begin
          let op = settle nl (Array.copy genv) (Some f) in
          let det = ref 0L and pt = ref 0L in
          let compare good fv =
            det := Int64.logor !det (Dualrail.diff_mask good fv);
            pt := Int64.logor !pt (pt_mask good fv)
          in
          List.iter (fun o -> compare genv.(o) (op o 0)) outs;
          if observe_captures then
            Array.iteri
              (fun k s -> compare good_cap.(k) (Reference.next_state nl op s))
              seqs;
          if Int64.logand !det live <> 0L then begin
            Flist.set_status fl fi Status.Detected;
            incr detected
          end
          else if
            Int64.logand !pt live <> 0L
            && not (Status.equal st Status.Possibly_detected)
          then begin
            Flist.set_status fl fi Status.Possibly_detected;
            incr possibly
          end
        end
      done
    done;
    {
      Comb_fsim.patterns = Array.length patterns;
      detected = !detected;
      possibly = !possibly;
    }
end

let prop_comb_matches_reference =
  QCheck2.Test.make ~count:200
    ~name:"both comb engines = boxed full-settle reference, any jobs"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let nl =
        if seed mod 2 = 0 then
          Test_support.random_comb_netlist rng ~inputs:4 ~gates:25
        else
          Test_support.random_seq_netlist ~ties:true ~all_kinds:true rng
            ~inputs:3 ~gates:20 ~flops:4
      in
      (* 1-130 patterns, half the time 1-3: the last batch is partial,
         and with ties in the netlist the lanes past the last pattern can
         hold binary values that no live lane shows *)
      let npat =
        1 + Random.State.int rng (if Random.State.bool rng then 3 else 130)
      in
      let values = [| Logic4.L0; Logic4.L1; Logic4.L0; Logic4.L1; Logic4.X |] in
      let width = Array.length (Netlist.inputs nl) + Array.length (Netlist.seq_nodes nl) in
      let pats =
        Array.init npat (fun _ ->
            Array.init width (fun _ -> values.(Random.State.int rng 5)))
      in
      let observe_captures = Random.State.bool rng in
      let observable_output o = (o + seed) mod 3 <> 0 in
      let faults = Fault.universe ~include_ties:true nl in
      let pre = Array.map (fun _ -> Random.State.int rng 8) faults in
      let fresh () =
        let fl = Flist.create nl faults in
        Array.iteri
          (fun k r ->
            if r = 0 then Flist.set_status fl k Status.Detected
            else if r = 1 then Flist.set_status fl k Status.Possibly_detected
            else if r = 2 then
              Flist.set_status fl k (Status.Undetectable Status.Tied))
          pre;
        fl
      in
      let fl_ref = fresh () in
      let r_ref =
        Comb_reference.run ~observe_captures ~observable_output nl fl_ref pats
      in
      List.for_all
        (fun (engine, jobs) ->
          let fl = fresh () in
          let r =
            Comb_fsim.run ~observe_captures ~observable_output ~engine ~jobs nl
              fl pats
          in
          r = r_ref && statuses fl = statuses fl_ref)
        [
          (Comb_fsim.Cone, 1); (Comb_fsim.Cone, 2); (Comb_fsim.Cone, 4);
          (Comb_fsim.Full_settle, 1); (Comb_fsim.Full_settle, 2);
          (Comb_fsim.Full_settle, 4);
        ])

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "fsim"
    [
      ( "comb",
        [
          Alcotest.test_case "adder coverage" `Quick test_adder_high_coverage;
          Alcotest.test_case "podem tests detect" `Quick test_podem_tests_detect;
          Alcotest.test_case "redundant undetected" `Quick
            test_redundant_never_detected;
          Alcotest.test_case "batching" `Quick test_batching;
          qt prop_untestable_never_detected;
          qt prop_cone_engine_matches_full;
          qt prop_cone_matches_detects_oracle;
        ] );
      ("comb-ref", [ qt prop_comb_matches_reference ]);
      ( "seq",
        [
          Alcotest.test_case "shift detection" `Quick test_seq_shift_detection;
          Alcotest.test_case "clock fault" `Quick test_seq_clock_fault;
          Alcotest.test_case "unobserved" `Quick test_seq_unobserved_output;
          Alcotest.test_case "scan faults" `Quick test_seq_scan_faults_undetected;
          qt prop_seq_matches_scalar;
          qt prop_seq_jobs_deterministic;
        ] );
      ( "boxed",
        [ qt prop_seq_matches_reference; qt prop_seu_matches_reference ] );
    ]

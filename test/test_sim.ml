open Olfu_logic
open Olfu_netlist
open Olfu_sim
module B = Netlist.Builder

let l4 = Alcotest.testable Logic4.pp Logic4.equal

let test_adder_truth_table () =
  let nl = Test_support.full_adder () in
  let a = Netlist.find_exn nl "a"
  and b = Netlist.find_exn nl "b"
  and cin = Netlist.find_exn nl "cin"
  and sum = Netlist.find_exn nl "sum_net"
  and cout = Netlist.find_exn nl "cout_net" in
  for v = 0 to 7 do
    let bit k = Logic4.of_bool ((v lsr k) land 1 = 1) in
    let env = Comb_sim.init nl Logic4.X in
    env.(a) <- bit 0;
    env.(b) <- bit 1;
    env.(cin) <- bit 2;
    Comb_sim.settle nl env;
    let total = (v land 1) + ((v lsr 1) land 1) + ((v lsr 2) land 1) in
    Alcotest.check l4 "sum" (Logic4.of_bool (total land 1 = 1)) env.(sum);
    Alcotest.check l4 "cout" (Logic4.of_bool (total >= 2)) env.(cout)
  done

let test_x_propagation () =
  let nl = Test_support.full_adder () in
  let env = Comb_sim.init nl Logic4.X in
  env.(Netlist.find_exn nl "a") <- Logic4.L0;
  env.(Netlist.find_exn nl "b") <- Logic4.L0;
  (* cin unknown *)
  Comb_sim.settle nl env;
  Alcotest.check l4 "sum unknown" Logic4.X env.(Netlist.find_exn nl "sum_net");
  Alcotest.check l4 "cout known" Logic4.L0 env.(Netlist.find_exn nl "cout_net")

let shift_register () =
  let b = B.create () in
  let d = B.input b "d" in
  let f1 = B.dff b ~name:"f1" ~d in
  let f2 = B.dff b ~name:"f2" ~d:f1 in
  let f3 = B.dff b ~name:"f3" ~d:f2 in
  let _ = B.output b "q" f3 in
  B.freeze_exn b

let test_shift_register () =
  let nl = shift_register () in
  let sim = Seq_sim.create ~init:Logic4.L0 nl in
  Seq_sim.set_input_name sim "d" Logic4.L1;
  Seq_sim.step sim;
  Seq_sim.set_input_name sim "d" Logic4.L0;
  Seq_sim.step sim;
  Seq_sim.step sim;
  Seq_sim.settle sim;
  (* the 1 shifted to the last stage *)
  Alcotest.check l4 "f3" Logic4.L1 (Seq_sim.value_name sim "f3");
  Alcotest.check l4 "f2" Logic4.L0 (Seq_sim.value_name sim "f2")

let test_dffr_reset () =
  let b = B.create () in
  let d = B.input b "d" in
  let rstn = B.input b ~roles:[ Netlist.Reset ] "rstn" in
  let ff = B.dffr b ~name:"ff" ~d ~rstn in
  let _ = B.output b "q" ff in
  let nl = B.freeze_exn b in
  let sim = Seq_sim.create nl in
  Seq_sim.set_input_name sim "d" Logic4.L1;
  Seq_sim.set_input_name sim "rstn" Logic4.L0;
  Seq_sim.step sim;
  Seq_sim.settle sim;
  Alcotest.check l4 "reset dominates" Logic4.L0 (Seq_sim.value_name sim "ff");
  Seq_sim.set_input_name sim "rstn" Logic4.L1;
  Seq_sim.step sim;
  Seq_sim.settle sim;
  Alcotest.check l4 "captures d" Logic4.L1 (Seq_sim.value_name sim "ff")

let test_sdff_scan_shift () =
  let b = B.create () in
  let d = B.input b "d" in
  let si = B.input b "si" in
  let se = B.input b "se" in
  let ff = B.sdff b ~name:"ff" ~d ~si ~se in
  let _ = B.output b "q" ff in
  let nl = B.freeze_exn b in
  let sim = Seq_sim.create ~init:Logic4.L0 nl in
  Seq_sim.set_input_name sim "d" Logic4.L0;
  Seq_sim.set_input_name sim "si" Logic4.L1;
  Seq_sim.set_input_name sim "se" Logic4.L1;
  Seq_sim.step sim;
  Seq_sim.settle sim;
  Alcotest.check l4 "shift captured si" Logic4.L1 (Seq_sim.value_name sim "ff");
  Seq_sim.set_input_name sim "se" Logic4.L0;
  Seq_sim.step sim;
  Seq_sim.settle sim;
  Alcotest.check l4 "mission captured d" Logic4.L0 (Seq_sim.value_name sim "ff")

let test_dffr_x_reset_pessimism () =
  (* rstn unknown: the flop may or may not reset; only a 0 data value is
     certain (both alternatives agree) *)
  let b = B.create () in
  let d = B.input b "d" in
  let rstn = B.input b "rstn" in
  let ff = B.dffr b ~name:"ff" ~d ~rstn in
  let _ = B.output b "q" ff in
  let nl = B.freeze_exn b in
  let sim = Seq_sim.create ~init:Logic4.L1 nl in
  Seq_sim.set_input_name sim "d" Logic4.L1;
  Seq_sim.set_input_name sim "rstn" Logic4.X;
  Seq_sim.step sim;
  Seq_sim.settle sim;
  Alcotest.check l4 "d=1, rstn=X -> X" Logic4.X (Seq_sim.value_name sim "ff");
  Seq_sim.set_input_name sim "d" Logic4.L0;
  Seq_sim.step sim;
  Seq_sim.settle sim;
  Alcotest.check l4 "d=0, rstn=X -> 0" Logic4.L0 (Seq_sim.value_name sim "ff")

let test_set_state_and_errors () =
  let nl = shift_register () in
  let sim = Seq_sim.create nl in
  let f2 = Netlist.find_exn nl "f2" in
  Seq_sim.set_state sim f2 Logic4.L1;
  Seq_sim.settle sim;
  Alcotest.check l4 "forced state" Logic4.L1 (Seq_sim.value sim f2);
  (try
     Seq_sim.set_state sim (Netlist.find_exn nl "d") Logic4.L1;
     Alcotest.fail "expected error"
   with Invalid_argument _ -> ());
  (try
     Seq_sim.set_input sim f2 Logic4.L1;
     Alcotest.fail "expected error"
   with Invalid_argument _ -> ())

let prop_par_next_states_match =
  QCheck2.Test.make ~count:20 ~name:"parallel next-state = scalar"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let nl = Test_support.random_seq_netlist rng ~inputs:3 ~gates:10 ~flops:3 in
      (* drive identical values through both simulators *)
      let env = Comb_sim.init nl Logic4.X in
      let st = Lanes.create (Lanes.compile nl) in
      Lanes.reset st ~init:Logic4.X;
      Array.iter
        (fun i ->
          let v = Logic4.of_bool (Random.State.bool rng) in
          env.(i) <- v;
          Lanes.set_input st i v)
        (Netlist.inputs nl);
      Array.iter
        (fun i ->
          let v = Random.State.bool rng in
          env.(i) <- Logic4.of_bool v;
          Lanes.set_state_word st i (if v then -1L else 0L))
        (Netlist.seq_nodes nl);
      Comb_sim.settle nl env;
      Lanes.settle st;
      let hi = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout 1 in
      let lo = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout 1 in
      let lane0 () =
        let h = Int64.logand (Bigarray.Array1.get hi 0) 1L
        and l = Int64.logand (Bigarray.Array1.get lo 0) 1L in
        if h = l then Logic4.X else if h = 1L then Logic4.L1 else Logic4.L0
      in
      let captured =
        Array.map
          (fun (i, v) ->
            Lanes.capture st i ~hi ~lo 0;
            Logic4.equal v (lane0 ()))
          (Comb_sim.next_states nl env)
      in
      (* the edge loads the same values *)
      Lanes.clock st;
      Array.for_all Fun.id captured
      && Array.for_all
           (fun (i, v) -> Logic4.equal v (Lanes.get st i 0))
           (Comb_sim.next_states nl env))

let test_override_injection () =
  (* force the carry net of the adder to 1 regardless of inputs *)
  let nl = Test_support.full_adder () in
  let cout = Netlist.find_exn nl "cout_net" in
  let env = Comb_sim.init nl Logic4.X in
  Array.iter (fun i -> env.(i) <- Logic4.L0) (Netlist.inputs nl);
  Comb_sim.settle_with nl env ~override:(fun i ->
      if i = cout then Some Logic4.L1 else None);
  Alcotest.check l4 "forced" Logic4.L1 env.(cout)

(* The word-level core agrees with 64 scalar runs. *)
let prop_par_matches_scalar =
  QCheck2.Test.make ~count:30 ~name:"bit-parallel = scalar x64"
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (seed, pat_seed) ->
      let rng = Random.State.make [| seed |] in
      let nl = Test_support.random_comb_netlist rng ~inputs:5 ~gates:25 in
      let prng = Random.State.make [| pat_seed |] in
      let n = Netlist.length nl in
      (* random 64-lane stimulus on inputs, incl. some X lanes *)
      let st = Lanes.create (Lanes.compile nl) in
      Lanes.reset st ~init:Logic4.X;
      let lanes_of_input = Hashtbl.create 7 in
      Array.iter
        (fun i ->
          let lanes =
            Array.init 64 (fun _ ->
                match Random.State.int prng 5 with
                | 0 -> Logic4.X
                | k -> Logic4.of_bool (k land 1 = 1))
          in
          Hashtbl.add lanes_of_input i lanes;
          let v = Dualrail.of_lanes lanes in
          Lanes.set_rails st i ~hi:v.Dualrail.hi ~lo:v.Dualrail.lo)
        (Netlist.inputs nl);
      Lanes.settle st;
      let ok = ref true in
      for lane = 0 to 7 do
        (* spot-check 8 of the 64 lanes *)
        let env = Comb_sim.init nl Logic4.X in
        Array.iter
          (fun i -> env.(i) <- (Hashtbl.find lanes_of_input i).(lane))
          (Netlist.inputs nl);
        Comb_sim.settle nl env;
        for i = 0 to n - 1 do
          if not (Cell.equal_kind (Netlist.kind nl i) Cell.Input) then
            if not (Logic4.equal env.(i) (Lanes.get st i lane)) then
              ok := false
        done
      done;
      !ok)

(* --- the word-level core against the boxed loop it replaced ---
   The random-simulation loop invariant mining ran on: [Dualrail.t]
   environments, [comb_par] per node, next state by [Dualrail.mux]. *)
let boxed_cycle nl env ~state ~driven =
  Netlist.iter_nodes
    (fun i nd ->
      match nd.Netlist.kind with
      | Cell.Input | Cell.Tiex -> env.(i) <- driven.(i)
      | Cell.Tie0 -> env.(i) <- Dualrail.zero
      | Cell.Tie1 -> env.(i) <- Dualrail.one
      | _ -> ())
    nl;
  Array.iteri (fun k s -> env.(s) <- state.(k)) (Netlist.seq_nodes nl);
  let operand i p = env.((Netlist.fanin nl i).(p)) in
  Array.iter
    (fun i ->
      let nd = Netlist.node nl i in
      let ins = Array.init (Array.length nd.Netlist.fanin) (operand i) in
      env.(i) <- Test_support.comb_par nd.Netlist.kind ins)
    (Netlist.topo nl);
  Array.map
    (fun s ->
      match Netlist.kind nl s with
      | Cell.Dff -> operand s 0
      | Cell.Dffr ->
        Dualrail.mux ~sel:(operand s 1) ~a:Dualrail.zero ~b:(operand s 0)
      | Cell.Sdff ->
        Dualrail.mux ~sel:(operand s 2) ~a:(operand s 0) ~b:(operand s 1)
      | Cell.Sdffr ->
        Dualrail.mux ~sel:(operand s 3) ~a:Dualrail.zero
          ~b:(Dualrail.mux ~sel:(operand s 2) ~a:(operand s 0) ~b:(operand s 1))
      | _ -> assert false)
    (Netlist.seq_nodes nl)

let prop_lanes_match_boxed =
  QCheck2.Test.make ~count:60
    ~name:"lanes core = boxed Dualrail loop, every node every cycle"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let nl =
        Test_support.random_seq_netlist ~all_kinds:true rng ~inputs:4
          ~gates:30 ~flops:6
      in
      let n = Netlist.length nl in
      let core = Lanes.compile nl in
      let st = Lanes.create core in
      let init = [| Logic4.X; Logic4.L0; Logic4.L1 |].(seed mod 3) in
      Lanes.reset st ~init;
      let seqs = Netlist.seq_nodes nl in
      let state = Array.map (fun _ -> Dualrail.const init) seqs in
      (* some flops start from a random word *)
      Array.iteri
        (fun k s ->
          if Random.State.int rng 3 = 0 then begin
            let w = Random.State.bits64 rng in
            Lanes.set_state_word st s w;
            state.(k) <- Dualrail.make ~hi:w ~lo:(Int64.lognot w)
          end)
        seqs;
      let env = Array.make n Dualrail.unknown in
      let driven = Array.make n Dualrail.unknown in
      let same i (v : Dualrail.t) =
        Int64.equal (Bigarray.Array1.get (Lanes.hi st) i) v.Dualrail.hi
        && Int64.equal (Bigarray.Array1.get (Lanes.lo st) i) v.Dualrail.lo
        && Logic4.equal (Lanes.get st i (seed mod 64)) (Dualrail.get v (seed mod 64))
      in
      let ok = ref true in
      for _cycle = 1 to 20 do
        (* a random word on inputs and Tiex, or one value in every lane *)
        Netlist.iter_nodes
          (fun i nd ->
            match nd.Netlist.kind with
            | Cell.Input | Cell.Tiex ->
              if Random.State.int rng 4 = 0 then begin
                let v =
                  [| Logic4.L0; Logic4.L1; Logic4.X |].(Random.State.int rng 3)
                in
                Lanes.set_input st i v;
                driven.(i) <- Dualrail.const v
              end
              else begin
                let w = Random.State.bits64 rng in
                Lanes.set_input_word st i w;
                driven.(i) <- Dualrail.make ~hi:w ~lo:(Int64.lognot w)
              end
            | _ -> ())
          nl;
        let next = boxed_cycle nl env ~state ~driven in
        Lanes.settle st;
        for i = 0 to n - 1 do
          if not (same i env.(i)) then ok := false
        done;
        (* after the edge a flop reads its new state *)
        Lanes.clock st;
        Array.iteri
          (fun k s ->
            state.(k) <- next.(k);
            if not (same s next.(k)) then ok := false)
          seqs
      done;
      !ok)

let test_lanes_errors () =
  let nl = Test_support.full_adder () in
  let st = Lanes.create (Lanes.compile nl) in
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "drive a gate" true
    (raises (fun () ->
         Lanes.set_input st (Netlist.find_exn nl "sum_net") Logic4.L1));
  Alcotest.(check bool) "state of an input" true
    (raises (fun () -> Lanes.set_state_word st (Netlist.find_exn nl "a") 0L));
  Alcotest.(check bool) "rails of a gate" true
    (raises (fun () ->
         Lanes.set_rails st (Netlist.find_exn nl "sum_net") ~hi:0L ~lo:(-1L)));
  let w = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout 1 in
  Alcotest.(check bool) "capture of a gate" true
    (raises (fun () ->
         Lanes.capture st (Netlist.find_exn nl "sum_net") ~hi:w ~lo:w 0))

let test_toggle () =
  let b = B.create () in
  let i = B.input b "live" in
  let dead = B.input b "dead" in
  let g = B.and2 b ~name:"g" i dead in
  let _ = B.output b "o" g in
  let nl = B.freeze_exn b in
  let sim = Seq_sim.create nl in
  let tog = Toggle.create nl in
  List.iter
    (fun v ->
      Seq_sim.set_input_name sim "live" v;
      Seq_sim.set_input_name sim "dead" Logic4.L0;
      Seq_sim.settle sim;
      Toggle.record tog sim)
    [ Logic4.L0; Logic4.L1 ];
  Alcotest.(check bool) "live toggled" true
    (Toggle.verdict tog (Netlist.find_exn nl "live") = Toggle.Toggled);
  (match Toggle.verdict tog (Netlist.find_exn nl "dead") with
  | Toggle.Constant v -> Alcotest.check l4 "dead const 0" Logic4.L0 v
  | _ -> Alcotest.fail "dead should be constant");
  Alcotest.(check (list int)) "suspects" [ Netlist.find_exn nl "dead" ]
    (Toggle.suspects tog)

let test_vcd_writer () =
  let nl = shift_register () in
  let sim = Seq_sim.create ~init:Logic4.L0 nl in
  let vcd = Vcd.create nl in
  List.iter
    (fun v ->
      Seq_sim.set_input_name sim "d" v;
      Seq_sim.settle sim;
      Vcd.sample vcd sim;
      Seq_sim.step sim)
    [ Logic4.L1; Logic4.L0; Logic4.L1; Logic4.L1 ];
  let s = Vcd.to_string vcd in
  let contains needle =
    let nh = String.length s and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub s i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "header" true (contains "$enddefinitions");
  Alcotest.(check bool) "declares f2" true (contains " f2 $end");
  Alcotest.(check bool) "dumpvars" true (contains "$dumpvars");
  Alcotest.(check bool) "timesteps" true (contains "#3");
  (* value changes only on change: the constant-0 f3 appears once *)
  let count_sub sub =
    let n = ref 0 in
    let ls = String.length sub in
    for i = 0 to String.length s - ls do
      if String.sub s i ls = sub then incr n
    done;
    !n
  in
  ignore (count_sub "x" : int);
  Alcotest.(check bool) "nonempty body" true (String.length s > 200)

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "sim"
    [
      ( "comb",
        [
          Alcotest.test_case "adder truth table" `Quick test_adder_truth_table;
          Alcotest.test_case "x propagation" `Quick test_x_propagation;
          Alcotest.test_case "override injection" `Quick test_override_injection;
        ] );
      ( "seq",
        [
          Alcotest.test_case "shift register" `Quick test_shift_register;
          Alcotest.test_case "dffr reset" `Quick test_dffr_reset;
          Alcotest.test_case "sdff scan shift" `Quick test_sdff_scan_shift;
          Alcotest.test_case "x reset pessimism" `Quick
            test_dffr_x_reset_pessimism;
          Alcotest.test_case "set_state + errors" `Quick
            test_set_state_and_errors;
        ] );
      ( "par",
        [ qt prop_par_matches_scalar; qt prop_par_next_states_match ] );
      ( "lanes",
        [
          qt prop_lanes_match_boxed;
          Alcotest.test_case "errors" `Quick test_lanes_errors;
        ] );
      ("toggle", [ Alcotest.test_case "activity" `Quick test_toggle ]);
      ("vcd", [ Alcotest.test_case "writer" `Quick test_vcd_writer ]);
    ]

open Olfu_logic
open Olfu_netlist
module B = Netlist.Builder

let test_build_adder () =
  let nl = Test_support.full_adder () in
  Alcotest.(check int) "inputs" 3 (Array.length (Netlist.inputs nl));
  Alcotest.(check int) "outputs" 2 (Array.length (Netlist.outputs nl));
  Alcotest.(check bool) "finds sum_net" true (Netlist.find nl "sum_net" <> None);
  let stats = Stats.of_netlist nl in
  Alcotest.(check int) "gates" 5 stats.Stats.gates;
  Alcotest.(check int) "flops" 0 stats.Stats.flops

let test_topo_order () =
  let nl = Test_support.full_adder () in
  let pos = Array.make (Netlist.length nl) (-1) in
  Array.iteri (fun k i -> pos.(i) <- k) (Netlist.topo nl);
  (* every combinational node appears after all its non-source fanins *)
  Netlist.iter_nodes
    (fun i nd ->
      if pos.(i) >= 0 then
        Array.iter
          (fun d ->
            if pos.(d) >= 0 then
              Alcotest.(check bool)
                (Printf.sprintf "node %d after fanin %d" i d)
                true
                (pos.(d) < pos.(i)))
          nd.Netlist.fanin)
    nl

let test_comb_loop_detected () =
  let b = B.create () in
  let i = B.input b "i" in
  let g1 = B.and2 b i i in
  let g2 = B.or2 b g1 i in
  (* close a combinational loop g1 <- g2 *)
  B.set_fanin b g1 [| i; g2 |];
  match B.freeze b with
  | Error [ Netlist.Combinational_loop _ ] -> ()
  | Error e ->
    Alcotest.failf "unexpected errors: %a"
      Format.(pp_print_list Netlist.pp_error)
      e
  | Ok _ -> Alcotest.fail "loop not detected"

let test_arity_error () =
  let nodes =
    [|
      { Netlist.kind = Cell.Input; fanin = [||]; name = Some "i" };
      { Netlist.kind = Cell.Mux2; fanin = [| 0; 0 |]; name = None };
    |]
  in
  match Netlist.create nodes with
  | Error (Netlist.Bad_arity { expected = 3; got = 2; _ } :: _) -> ()
  | _ -> Alcotest.fail "expected arity error"

let test_dangling () =
  let nodes =
    [| { Netlist.kind = Cell.Buf; fanin = [| 5 |]; name = None } |]
  in
  match Netlist.create nodes with
  | Error (Netlist.Dangling_fanin _ :: _) -> ()
  | _ -> Alcotest.fail "expected dangling error"

let test_duplicate_name () =
  let nodes =
    [|
      { Netlist.kind = Cell.Input; fanin = [||]; name = Some "n" };
      { Netlist.kind = Cell.Input; fanin = [||]; name = Some "n" };
    |]
  in
  match Netlist.create nodes with
  | Error errs ->
    Alcotest.(check bool) "dup reported" true
      (List.exists (function Netlist.Duplicate_name _ -> true | _ -> false) errs)
  | Ok _ -> Alcotest.fail "expected duplicate error"

let test_fanout () =
  let b = B.create () in
  let i = B.input b "i" in
  let g1 = B.not_ b i in
  let g2 = B.and2 b i g1 in
  let _ = B.output b "o" g2 in
  let nl = B.freeze_exn b in
  let fo = Netlist.fanout nl i in
  Alcotest.(check int) "input drives 2 branches" 2 (Array.length fo)

let test_roles () =
  let b = B.create () in
  let i = B.input b ~roles:[ Netlist.Scan_enable ] "se" in
  let _ = B.output b "o" i in
  let nl = B.freeze_exn b in
  Alcotest.(check bool) "role kept" true
    (Netlist.has_role nl (Netlist.find_exn nl "se") Netlist.Scan_enable);
  Alcotest.(check int) "role query" 1
    (Array.length (Netlist.nodes_with_role nl Netlist.Scan_enable))

let test_remove_compacts () =
  let b = B.create () in
  let i = B.input b "i" in
  let dead = B.not_ b i in
  let live = B.buf b ~name:"live" i in
  let _ = B.output b "o" live in
  B.remove_node b dead;
  let nl = B.freeze_exn b in
  Alcotest.(check int) "node count" 3 (Netlist.length nl);
  Alcotest.(check bool) "live survives" true (Netlist.find nl "live" <> None)

let test_remove_dangling_ref () =
  let b = B.create () in
  let i = B.input b "i" in
  let g = B.not_ b i in
  let _ = B.output b "o" g in
  B.remove_node b i;
  match B.freeze b with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected dangling after removal"

let test_of_netlist_roundtrip () =
  let nl = Test_support.full_adder () in
  let nl2 = B.freeze_exn (B.of_netlist nl) in
  Alcotest.(check int) "same size" (Netlist.length nl) (Netlist.length nl2);
  Netlist.iter_nodes
    (fun i nd ->
      let nd2 = Netlist.node nl2 i in
      Alcotest.(check bool) "same kind" true
        (Cell.equal_kind nd.Netlist.kind nd2.Netlist.kind);
      Alcotest.(check (array int)) "same fanin" nd.Netlist.fanin
        nd2.Netlist.fanin)
    nl

let test_builder_tie () =
  let b = B.create () in
  let t0 = B.tie b Logic4.L0 in
  let t1 = B.tie b Logic4.L1 in
  let tx = B.tie b Logic4.X in
  let g = B.gate b Cell.And [ t0; t1; tx ] in
  let _ = B.output b "o" g in
  let nl = B.freeze_exn b in
  Alcotest.(check bool) "tie0" true (Cell.equal_kind (Netlist.kind nl t0) Cell.Tie0);
  Alcotest.(check bool) "tie1" true (Cell.equal_kind (Netlist.kind nl t1) Cell.Tie1);
  Alcotest.(check bool) "tiex" true (Cell.equal_kind (Netlist.kind nl tx) Cell.Tiex)

let test_level () =
  let b = B.create () in
  let i = B.input b "i" in
  let g1 = B.not_ b i in
  let g2 = B.not_ b g1 in
  let g3 = B.not_ b g2 in
  let _ = B.output b "o" g3 in
  let nl = B.freeze_exn b in
  Alcotest.(check int) "level input" 0 (Netlist.level nl i);
  Alcotest.(check int) "level g3" 3 (Netlist.level nl g3)

let test_vec () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Alcotest.(check int) "push index" i (Vec.push v (i * 2))
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get" 84 (Vec.get v 42);
  Vec.set v 42 7;
  Alcotest.(check int) "set" 7 (Vec.get v 42);
  Alcotest.(check int) "to_array" 100 (Array.length (Vec.to_array v));
  (try
     ignore (Vec.get v 100 : int);
     Alcotest.fail "expected bounds failure"
   with Invalid_argument _ -> ())

let test_cell_pins () =
  let pins = Cell.pins Cell.Sdff ~fanin_count:3 in
  Alcotest.(check int) "sdff pins" 5 (List.length pins);
  Alcotest.(check bool) "has clk" true
    (List.exists (Cell.Pin.equal Cell.Pin.Clk) pins);
  let pins = Cell.pins Cell.And ~fanin_count:4 in
  Alcotest.(check int) "and4 pins" 5 (List.length pins)

let test_cell_names () =
  Alcotest.(check string) "sdff si" "SI" (Cell.input_pin_name Cell.Sdff 1);
  Alcotest.(check string) "sdff se" "SE" (Cell.input_pin_name Cell.Sdff 2);
  Alcotest.(check string) "dffr rstn" "RSTN" (Cell.input_pin_name Cell.Dffr 1);
  (match Cell.kind_of_name "nand" with
  | Some Cell.Nand -> ()
  | _ -> Alcotest.fail "kind_of_name");
  Alcotest.(check bool) "unknown kind" true (Cell.kind_of_name "frob" = None)

let prop_random_netlists_valid =
  QCheck2.Test.make ~count:50 ~name:"random netlists freeze cleanly"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let nl = Test_support.random_comb_netlist rng ~inputs:4 ~gates:30 in
      Netlist.length nl > 0
      &&
      (* topo covers exactly the non-source nodes *)
      let src = ref 0 in
      Netlist.iter_nodes
        (fun _ nd ->
          match nd.Netlist.kind with
          | Cell.Input | Cell.Tie0 | Cell.Tie1 | Cell.Tiex -> incr src
          | k -> if Cell.is_seq k then incr src)
        nl;
      Array.length (Netlist.topo nl) = Netlist.length nl - !src)

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "netlist"
    [
      ( "build",
        [
          Alcotest.test_case "full adder" `Quick test_build_adder;
          Alcotest.test_case "topo order" `Quick test_topo_order;
          Alcotest.test_case "fanout" `Quick test_fanout;
          Alcotest.test_case "roles" `Quick test_roles;
          Alcotest.test_case "ties" `Quick test_builder_tie;
          Alcotest.test_case "levels" `Quick test_level;
          qt prop_random_netlists_valid;
        ] );
      ( "validate",
        [
          Alcotest.test_case "comb loop" `Quick test_comb_loop_detected;
          Alcotest.test_case "arity" `Quick test_arity_error;
          Alcotest.test_case "dangling" `Quick test_dangling;
          Alcotest.test_case "duplicate name" `Quick test_duplicate_name;
        ] );
      ( "edit",
        [
          Alcotest.test_case "remove compacts" `Quick test_remove_compacts;
          Alcotest.test_case "remove dangling" `Quick test_remove_dangling_ref;
          Alcotest.test_case "of_netlist roundtrip" `Quick
            test_of_netlist_roundtrip;
        ] );
      ( "cells",
        [
          Alcotest.test_case "pins" `Quick test_cell_pins;
          Alcotest.test_case "names" `Quick test_cell_names;
        ] );
      ("vec", [ Alcotest.test_case "vec ops" `Quick test_vec ]);
    ]

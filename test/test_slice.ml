open Olfu_logic
open Olfu_netlist
module B = Netlist.Builder
module Slice = Olfu_slice.Slice
module Seq_sim = Olfu_sim.Seq_sim

(* --- severing on the paper's mission cells --- *)

(* Fig. 2 scan cell in mission: SE tied 0 means the flop never reads SI,
   so the hard slice keeps only FI while the structural one keeps both *)
let test_scan_severing () =
  let nl, ff = Test_support.scan_cell_mission () in
  let g = Slice.build nl in
  let fi = Netlist.find_exn nl "FI" and si = Netlist.find_exn nl "SI" in
  let k = g.Slice.ford.(ff) in
  Alcotest.(check (list int))
    "structural reads FI and SI" [ fi; si ]
    (Array.to_list g.Slice.structural.Slice.in_deps.(k));
  Alcotest.(check (list int))
    "hard slice reads FI only" [ fi ]
    (Array.to_list g.Slice.hard_edges.Slice.in_deps.(k));
  Alcotest.(check (list int))
    "mission slice reads FI only" [ fi ]
    (Array.to_list g.Slice.mission_edges.Slice.in_deps.(k))

(* Fig. 4 debug mux in mission: DE tied 0 selects FI, so the DI branch
   of the mux disappears from the severed slice *)
let test_mux_severing () =
  let nl, _mux, ff = Test_support.debug_cell_mission () in
  let g = Slice.build nl in
  let fi = Netlist.find_exn nl "FI" and di = Netlist.find_exn nl "DI" in
  let k = g.Slice.ford.(ff) in
  Alcotest.(check (list int))
    "structural reads FI and DI" [ fi; di ]
    (Array.to_list g.Slice.structural.Slice.in_deps.(k));
  Alcotest.(check (list int))
    "hard slice reads FI only" [ fi ]
    (Array.to_list g.Slice.hard_edges.Slice.in_deps.(k))

(* --- reduced machines --- *)

let test_backward_machine () =
  let nl, ff = Test_support.scan_cell_mission () in
  let g = Slice.build nl in
  let r = Slice.backward g ~targets:[ ff ] in
  let rnl = r.Slice.rnl in
  (* SI is dead logic in the slice *)
  Alcotest.(check bool) "SI dropped" true (Netlist.find rnl "SI" = None);
  let nff = r.Slice.new_of_old.(ff) in
  Alcotest.(check bool) "ff kept" true (nff >= 0);
  Alcotest.(check string) "kind preserved" "SDFF"
    (Cell.kind_name (Netlist.kind rnl nff));
  (* d mapped, si severed to a fresh X, se rewired to its constant *)
  let fi = Netlist.fanin rnl nff in
  Alcotest.(check string) "d pin is the mapped FI" "INPUT"
    (Cell.kind_name (Netlist.kind rnl fi.(0)));
  Alcotest.(check string) "si pin severed to Tiex" "TIEX"
    (Cell.kind_name (Netlist.kind rnl fi.(1)));
  Alcotest.(check string) "se pin tied to 0" "TIE0"
    (Cell.kind_name (Netlist.kind rnl fi.(2)));
  Slice.certify g r

let test_get_memoized () =
  let nl, _ = Test_support.scan_cell_mission () in
  Alcotest.(check bool) "same graph" true (Slice.get nl == Slice.get nl)

(* ring walker: three flops in one feedback loop form one SCC *)
let ring3 () =
  let b = B.create () in
  let rstn = B.input ~roles:[ Netlist.Reset ] b "rstn" in
  let ph = B.tie b Logic4.L0 in
  let st =
    Array.init 3 (fun i ->
        B.dffr b ~name:(Printf.sprintf "st[%d]" i) ~d:ph ~rstn)
  in
  let idle = B.nor2 b (B.or2 b st.(0) st.(1)) st.(2) in
  B.set_fanin b st.(0) [| idle; rstn |];
  B.set_fanin b st.(1) [| st.(0); rstn |];
  B.set_fanin b st.(2) [| st.(1); rstn |];
  let _ = B.output b "FO" (B.or2 b st.(2) st.(0)) in
  B.freeze_exn b

let test_scc_ring () =
  let nl = ring3 () in
  let g = Slice.build nl in
  let c = Slice.scc g.Slice.hard_edges (Array.length g.Slice.flops) in
  Alcotest.(check int) "one component" 1 (Array.length c.Slice.comps);
  Alcotest.(check int) "of size 3" 3 (Array.length c.Slice.comps.(0));
  let sizes = Slice.backward_sizes g g.Slice.hard_edges in
  Array.iter (fun s -> Alcotest.(check int) "slice size 3" 3 s) sizes;
  let dot = Slice.condensation_dot g g.Slice.hard_edges in
  Alcotest.(check bool) "dot mentions the component" true
    (String.length dot > 0)

(* --- properties on random sequential machines --- *)

(* the reduced machine is a stuttering-free projection: with reset held
   inactive and identical inputs, every kept output matches cycle by
   cycle (hard constants hold in any such run) *)
let prop_backward_sim_equiv =
  QCheck2.Test.make ~count:20 ~name:"backward slice simulates identically"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let nl =
        Test_support.random_seq_netlist rng ~inputs:3 ~gates:12 ~flops:3
      in
      let g = Slice.build nl in
      let r =
        Slice.backward g ~targets:(Array.to_list (Netlist.outputs nl))
      in
      let rnl = r.Slice.rnl in
      let sim = Seq_sim.create ~init:Logic4.L0 nl in
      let rsim = Seq_sim.create ~init:Logic4.L0 rnl in
      let ok = ref true in
      for _cycle = 0 to 5 do
        (* same named input gets the same value in both machines *)
        Array.iter
          (fun i ->
            let v =
              if Netlist.has_role nl i Netlist.Reset then Logic4.L1
              else if Random.State.bool rng then Logic4.L1
              else Logic4.L0
            in
            Seq_sim.set_input sim i v;
            match Netlist.name nl i with
            | Some n when Netlist.find rnl n <> None ->
              Seq_sim.set_input_name rsim n v
            | _ -> ())
          (Netlist.inputs nl);
        Seq_sim.settle sim;
        Seq_sim.settle rsim;
        Array.iter
          (fun o ->
            match Netlist.name rnl o with
            | Some n ->
              if Seq_sim.value_name sim n <> Seq_sim.value_name rsim n then
                ok := false
            | None -> ())
          (Netlist.outputs rnl);
        Seq_sim.step sim;
        Seq_sim.step rsim
      done;
      !ok)

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "slice"
    [
      ( "severing",
        [
          Alcotest.test_case "scan cell" `Quick test_scan_severing;
          Alcotest.test_case "debug mux" `Quick test_mux_severing;
        ] );
      ( "machine",
        [
          Alcotest.test_case "backward" `Quick test_backward_machine;
          Alcotest.test_case "memoized" `Quick test_get_memoized;
          Alcotest.test_case "scc ring" `Quick test_scc_ring;
          qt prop_backward_sim_equiv;
        ] );
    ]

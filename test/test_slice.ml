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
  let c = g.Slice.hard_edges.Slice.cond in
  Alcotest.(check int) "one component" 1 (Array.length c.Slice.comps);
  Alcotest.(check int) "of size 3" 3 (Array.length c.Slice.comps.(0));
  let sizes = Slice.backward_sizes g.Slice.hard_edges in
  Array.iter (fun s -> Alcotest.(check int) "slice size 3" 3 s) sizes;
  let dot = Slice.condensation_dot g g.Slice.hard_edges in
  Alcotest.(check bool) "dot mentions the component" true
    (String.length dot > 0)

(* --- reference: one cone walk per flop, one DFS per closure ---

   The quadratic algorithm [Slice.build] replaced, kept as the oracle:
   each flop's and output's edges come from a backward walk over the
   live fanins of its own, with a separate copy of the severing rule,
   and each closure is a fresh depth-first search. *)

let ref_dead_pin consts nl d =
  let fi = Netlist.fanin nl d in
  match Netlist.kind nl d with
  | Cell.Mux2 -> (
      match consts.(fi.(0)) with Logic4.L0 -> 2 | Logic4.L1 -> 1 | _ -> -1)
  | Cell.Sdff | Cell.Sdffr -> (
      match consts.(fi.(2)) with Logic4.L0 -> 1 | Logic4.L1 -> 0 | _ -> -1)
  | _ -> -1

let ref_iter_live consts nl d f =
  let dead = ref_dead_pin consts nl d in
  Array.iteri (fun p e -> if p <> dead then f e) (Netlist.fanin nl d)

let sorted_uniq l = Array.of_list (List.sort_uniq Int.compare l)

let ref_edges nl flops ford consts =
  let n = Netlist.length nl in
  let nf = Array.length flops in
  let vis = Array.make n 0 in
  let gen = ref 0 in
  (* flop ordinals and non-constant inputs in the backward combinational
     cone of the seed node's live fanins *)
  let cone_deps seed =
    incr gen;
    let g = !gen in
    let sup = ref [] and ins = ref [] in
    let stack = ref [] in
    let visit e =
      if vis.(e) <> g then begin
        vis.(e) <- g;
        if not (Logic4.is_binary consts.(e)) then
          let k = Netlist.kind nl e in
          if Cell.is_seq k then sup := ford.(e) :: !sup
          else
            match k with
            | Cell.Input -> ins := e :: !ins
            | Cell.Tie0 | Cell.Tie1 | Cell.Tiex -> ()
            | _ -> stack := e :: !stack
      end
    in
    ref_iter_live consts nl seed visit;
    let rec drain () =
      match !stack with
      | [] -> ()
      | e :: tl ->
        stack := tl;
        ref_iter_live consts nl e visit;
        drain ()
    in
    drain ();
    (sorted_uniq !sup, sorted_uniq !ins)
  in
  let cones = Array.map cone_deps flops in
  let supports = Array.map fst cones and in_deps = Array.map snd cones in
  let out_deps =
    Array.map (fun o -> (o, fst (cone_deps o))) (Netlist.outputs nl)
  in
  let cons = Array.make nf [] in
  Array.iteri
    (fun k sup -> Array.iter (fun s -> cons.(s) <- k :: cons.(s)) sup)
    supports;
  (supports, Array.map sorted_uniq cons, in_deps, out_deps)

let ref_closure adj seeds =
  let mark = Array.make (Array.length adj) false in
  let rec go k =
    if not mark.(k) then begin
      mark.(k) <- true;
      Array.iter go adj.(k)
    end
  in
  List.iter go seeds;
  mark

let count_true m = Array.fold_left (fun a b -> if b then a + 1 else a) 0 m

(* every way [g] disagrees with the reference, under all three regimes;
   closures are checked on eight random seed sets per regime *)
let mismatches rng g =
  let nl = g.Slice.nl in
  let nf = Array.length g.Slice.flops in
  let regime (label, consts, (e : Slice.edges)) =
    let supports, consumers, in_deps, out_deps =
      ref_edges nl g.Slice.flops g.Slice.ford consts
    in
    let seed_sets =
      if nf = 0 then []
      else
        List.init 8 (fun _ ->
            List.init (Random.State.int rng 4) (fun _ ->
                Random.State.int rng nf))
    in
    List.filter_map
      (fun (what, ok) -> if ok then None else Some (label ^ " " ^ what))
      [
        ("supports", e.Slice.supports = supports);
        ("consumers", e.Slice.consumers = consumers);
        ("in_deps", e.Slice.in_deps = in_deps);
        ("out_deps", e.Slice.out_deps = out_deps);
        ( "backward_sizes",
          Slice.backward_sizes e
          = Array.init nf (fun k -> count_true (ref_closure supports [ k ])) );
        ( "backward_flops",
          List.for_all
            (fun s -> Slice.backward_flops e s = ref_closure supports s)
            seed_sets );
        ( "forward_flops",
          List.for_all
            (fun s -> Slice.forward_flops e s = ref_closure consumers s)
            seed_sets );
      ]
  in
  List.concat_map regime
    [
      ( "structural",
        Array.make (Netlist.length nl) Logic4.X,
        g.Slice.structural );
      ("hard", g.Slice.hard, g.Slice.hard_edges);
      ("mission", g.Slice.mission, g.Slice.mission_edges);
    ]

(* 70 flops and 11 inputs: source rows and flop reach sets both span two
   63-bit words; the tie cells decide some mux selects *)
let random_machine seed =
  let rng = Random.State.make [| seed |] in
  ( rng,
    Test_support.random_seq_netlist ~ties:true rng ~inputs:10 ~gates:160
      ~flops:70 )

let prop_graph_matches_reference =
  QCheck2.Test.make ~count:60 ~name:"slice graph = per-flop reference"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng, nl = random_machine seed in
      match mismatches rng (Slice.build nl) with
      | [] -> true
      | m -> QCheck2.Test.fail_reportf "differs: %s" (String.concat ", " m))

(* the property above is only as strong as its netlists: some of them
   must sever a mux branch on a constant select *)
let test_generator_severs () =
  let severs seed =
    let _, nl = random_machine seed in
    let g = Slice.build nl in
    List.exists
      (fun d -> ref_dead_pin g.Slice.hard nl d >= 0)
      (List.init (Netlist.length nl) Fun.id)
  in
  Alcotest.(check bool) "a decided mux select" true
    (List.exists severs (List.init 10 Fun.id))

let test_tcore16_matches_reference () =
  let nl =
    Olfu_safety.Classify.bmc_machine
      (Olfu_soc.Soc.generate Olfu_soc.Soc.tcore16)
  in
  Alcotest.(check (list string)) "no mismatch" []
    (mismatches (Random.State.make [| 16 |]) (Slice.build nl))

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
      ( "reference",
        [
          qt prop_graph_matches_reference;
          Alcotest.test_case "generator severs" `Quick test_generator_severs;
          Alcotest.test_case "tcore16" `Quick test_tcore16_matches_reference;
        ] );
    ]

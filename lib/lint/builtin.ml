(* The built-in rule catalogue.

   The first ten rules port the checks of the original (since deleted)
   `Olfu_manip.Dft_lint` pass
   (same codes, severities and message shapes); the rest are the passes
   the OLFU flow needs before trusting a netlist: shift-path integrity,
   reset/clock domain hygiene, X-source and mission-constant
   reachability, debug tie-off preconditions, and structural metrics. *)

open Olfu_logic
open Olfu_netlist
module Scan_trace = Olfu_manip.Scan_trace

let name = Ctx.name

(* ---------------------------------------------------------------- *)
(* Scan (ported)                                                    *)
(* ---------------------------------------------------------------- *)

let scan_001 =
  Rule.make ~code:"SCAN-001" ~category:Rule.Scan ~severity:Rule.Warning
    ~title:"flip-flop not on a traceable scan chain"
    ~doc:
      "Every flip-flop should be scan-replaced and reachable from a \
       scan-in port; unscanned or unstitched cells lower coverage and \
       break the Sec. 3.1 pruning rule."
    (fun ctx ->
      let nl = Ctx.nl ctx in
      let on_chain = Ctx.chain_cells ctx in
      Array.to_list (Netlist.seq_nodes nl)
      |> List.filter_map (fun ff ->
             match Netlist.kind nl ff with
             | Cell.Sdff | Cell.Sdffr ->
               if Hashtbl.mem on_chain ff then None
               else
                 Some
                   (Rule.raw ~node:ff
                      (Printf.sprintf "scan cell %s is on no traceable chain"
                         (name ctx ff)))
             | Cell.Dff | Cell.Dffr ->
               Some
                 (Rule.raw ~node:ff
                    (Printf.sprintf "flip-flop %s is not scan-replaced"
                       (name ctx ff)))
             | _ -> None))

let scan_002 =
  Rule.make ~code:"SCAN-002" ~category:Rule.Scan ~severity:Rule.Error
    ~title:"scan-in port reaches no scan cell"
    ~doc:
      "A scan-in port whose trace reaches no mux-scan SI pin is a broken \
       chain head: shifting through it is impossible."
    (fun ctx ->
      Ctx.chains ctx
      |> List.filter_map (fun c ->
             if c.Scan_trace.hops = [] then
               Some
                 (Rule.raw ~node:c.Scan_trace.scan_in
                    (Printf.sprintf "scan-in %s reaches no scan cell"
                       (name ctx c.Scan_trace.scan_in)))
             else None))

let scan_003 =
  Rule.make ~code:"SCAN-003" ~category:Rule.Scan ~severity:Rule.Warning
    ~title:"scan chain without a scan-out port"
    ~doc:
      "A chain that never reaches a scan-out output marker cannot be \
       unloaded; capture data is lost."
    (fun ctx ->
      Ctx.chains ctx
      |> List.filter_map (fun c ->
             if c.Scan_trace.hops <> [] && c.Scan_trace.scan_out = None then
               Some
                 (Rule.raw ~node:c.Scan_trace.scan_in
                    (Printf.sprintf "chain from %s has no scan-out port"
                       (name ctx c.Scan_trace.scan_in)))
             else None))

let scan_004 =
  Rule.make ~code:"SCAN-004" ~category:Rule.Scan ~severity:Rule.Warning
    ~title:"scan cells driven by more than one scan-enable net"
    ~doc:
      "Multiple scan-enable nets suggest an incomplete stitch or a \
       partitioned test mode the mission tie script must know about."
    (fun ctx ->
      let nl = Ctx.nl ctx in
      let se_nets = Hashtbl.create 7 in
      Array.iter
        (fun ff ->
          match Netlist.kind nl ff with
          | Cell.Sdff | Cell.Sdffr ->
            Hashtbl.replace se_nets (Netlist.fanin nl ff).(2) ()
          | _ -> ())
        (Netlist.seq_nodes nl);
      if Hashtbl.length se_nets > 1 then
        [
          Rule.raw
            (Printf.sprintf "%d distinct scan-enable nets"
               (Hashtbl.length se_nets));
        ]
      else [])

(* ---------------------------------------------------------------- *)
(* Scan (new)                                                       *)
(* ---------------------------------------------------------------- *)

let se_traces ctx =
  let nl = Ctx.nl ctx in
  Array.to_list (Netlist.seq_nodes nl)
  |> List.filter_map (fun ff ->
         match Netlist.kind nl ff with
         | Cell.Sdff | Cell.Sdffr ->
           Some (ff, Ctx.back_trace nl (Netlist.fanin nl ff).(2))
         | _ -> None)

let scan_005 =
  Rule.make ~code:"SCAN-005" ~category:Rule.Scan ~severity:Rule.Warning
    ~title:"scan-enable polarity inconsistent across cells"
    ~doc:
      "Some scan cells see the scan-enable through an odd number of \
       inverters while others see it directly: in shift mode part of the \
       design captures functionally, corrupting the chain."
    (fun ctx ->
      let traces = se_traces ctx in
      let by_origin = Hashtbl.create 7 in
      List.iter
        (fun (ff, tr) ->
          let plain, inv =
            Option.value ~default:([], [])
              (Hashtbl.find_opt by_origin tr.Ctx.origin)
          in
          Hashtbl.replace by_origin tr.Ctx.origin
            (if tr.Ctx.inverted then (plain, ff :: inv)
             else (ff :: plain, inv)))
        traces;
      Hashtbl.fold
        (fun origin (plain, inv) acc ->
          if plain <> [] && inv <> [] then
            Rule.raw ~node:(List.hd inv) ~path:inv
              (Printf.sprintf
                 "%d of %d scan cells on SE net %s see it inverted (e.g. %s)"
                 (List.length inv)
                 (List.length plain + List.length inv)
                 (name ctx origin)
                 (name ctx (List.hd inv)))
            :: acc
          else acc)
        by_origin [])

let scan_006 =
  Rule.make ~code:"SCAN-006" ~category:Rule.Scan ~severity:Rule.Info
    ~title:"buffers on the scan shift path (census)"
    ~doc:
      "Counts the buffers/inverters living purely on each chain's shift \
       path.  Their faults are on-line functionally untestable (Sec. 3.1); \
       the census sizes that fault population."
    (fun ctx ->
      let nl = Ctx.nl ctx in
      List.mapi (fun i c -> (i, c)) (Ctx.chains ctx)
      |> List.filter_map (fun (i, c) ->
             let path =
               List.concat_map (fun h -> h.Scan_trace.path) c.Scan_trace.hops
               @ c.Scan_trace.tail_path
             in
             if path = [] then None
             else
               let inverting =
                 List.length
                   (List.filter
                      (fun n ->
                        Cell.equal_kind (Netlist.kind nl n) Cell.Not)
                      path)
               in
               Some
                 (Rule.raw ~node:c.Scan_trace.scan_in ~path
                    (Printf.sprintf
                       "chain %d (%s): %d cells, %d shift-path buffers (%d \
                        inverting)"
                       i
                       (name ctx c.Scan_trace.scan_in)
                       (List.length c.Scan_trace.hops)
                       (List.length path) inverting))))

let scan_007 =
  Rule.make ~code:"SCAN-007" ~category:Rule.Scan ~severity:Rule.Warning
    ~title:"scan chain lengths strongly imbalanced"
    ~doc:
      "Shift time is governed by the longest chain; a chain much longer \
       than the shortest wastes tester time and usually indicates a \
       stitching mistake.  Threshold: max/min length in percent \
       (thresholds.chain_imbalance)."
    (fun ctx ->
      let lengths =
        Ctx.chains ctx
        |> List.map (fun c -> List.length c.Scan_trace.hops)
        |> List.filter (fun l -> l > 0)
      in
      match lengths with
      | [] | [ _ ] -> []
      | _ ->
        let mx = List.fold_left max 0 lengths in
        let mn = List.fold_left min max_int lengths in
        if mx * 100 > mn * (Ctx.limits ctx).Ctx.chain_imbalance then
          [
            Rule.raw
              (Printf.sprintf
                 "chain lengths range %d..%d cells (over %d%% imbalance)"
                 mn mx
                 (Ctx.limits ctx).Ctx.chain_imbalance);
          ]
        else [])

let loop_001 =
  Rule.make ~code:"LOOP-001" ~category:Rule.Scan ~severity:Rule.Error
    ~title:"scan shift path forms a closed loop"
    ~doc:
      "The SI wiring of these cells forms a cycle detached from every \
       scan-in port: shifting can never load or unload them, and a naive \
       chain tracer would not terminate.  The finding path is the full \
       cycle (cells and shift-path buffers) in shift order."
    (fun ctx ->
      let nl = Ctx.nl ctx in
      Ctx.si_cycles ctx
      |> List.map (fun cycle ->
             let cells =
               List.filter
                 (fun n ->
                   match Netlist.kind nl n with
                   | Cell.Sdff | Cell.Sdffr -> true
                   | _ -> false)
                 cycle
             in
             let show = List.map (name ctx) cells in
             Rule.raw ~node:(List.hd cycle) ~path:cycle
               (Printf.sprintf
                  "shift path loops through %d cells: %s -> %s"
                  (List.length cells)
                  (String.concat " -> " show)
                  (List.hd show))))

let drv_001 =
  Rule.make ~code:"DRV-001" ~category:Rule.Scan ~severity:Rule.Error
    ~title:"net drives the SI pins of several scan cells"
    ~doc:
      "A shift-path fork: the chain order past this net is ambiguous and \
       at most one branch can be a real chain.  Usually a stitching bug."
    (fun ctx ->
      let nl = Ctx.nl ctx in
      let findings = ref [] in
      Netlist.iter_nodes
        (fun i _ ->
          let si_sinks =
            Array.to_list (Netlist.fanout nl i)
            |> List.filter_map (fun (sink, pin) ->
                   match Netlist.kind nl sink with
                   | (Cell.Sdff | Cell.Sdffr) when pin = 1 -> Some sink
                   | _ -> None)
          in
          match si_sinks with
          | _ :: _ :: _ ->
            findings :=
              Rule.raw ~node:i ~path:si_sinks
                (Printf.sprintf
                   "net %s drives the SI pins of %d scan cells (e.g. %s, %s)"
                   (name ctx i) (List.length si_sinks)
                   (name ctx (List.nth si_sinks 0))
                   (name ctx (List.nth si_sinks 1)))
              :: !findings
          | _ -> ())
        nl;
      List.rev !findings)

let drv_002 =
  Rule.make ~code:"DRV-002" ~category:Rule.Net ~severity:Rule.Info
    ~title:"net exported through several output ports"
    ~doc:
      "Two or more primary-output markers echo the same driver net.  Not \
       an error in this single-driver IR, but the alias usually means a \
       generator left a duplicated port."
    (fun ctx ->
      let nl = Ctx.nl ctx in
      let by_driver = Hashtbl.create 17 in
      Array.iter
        (fun o ->
          let d = (Netlist.fanin nl o).(0) in
          Hashtbl.replace by_driver d
            (o :: Option.value ~default:[] (Hashtbl.find_opt by_driver d)))
        (Netlist.outputs nl);
      Hashtbl.fold
        (fun d outs acc ->
          match outs with
          | _ :: _ :: _ ->
            Rule.raw ~node:d ~path:outs
              (Printf.sprintf "net %s is exported by %d ports (%s)"
                 (name ctx d) (List.length outs)
                 (String.concat ", " (List.map (name ctx) outs)))
            :: acc
          | _ -> acc)
        by_driver [])

(* ---------------------------------------------------------------- *)
(* Reset / clock                                                    *)
(* ---------------------------------------------------------------- *)

let rst_001 =
  Rule.make ~code:"RST-001" ~category:Rule.Reset ~severity:Rule.Warning
    ~title:"flip-flops without reset"
    ~doc:
      "Unresettable state starts at X after power-up; the mission \
       steady-state analysis (and silicon) may never converge on it."
    (fun ctx ->
      let nl = Ctx.nl ctx in
      let unreset =
        Array.to_list (Netlist.seq_nodes nl)
        |> List.filter (fun ff ->
               match Netlist.kind nl ff with
               | Cell.Dff | Cell.Sdff -> true
               | _ -> false)
      in
      if unreset = [] then []
      else
        [
          Rule.raw
            ~node:(List.hd unreset)
            ~path:unreset
            (Printf.sprintf "%d flip-flops without reset (e.g. %s)"
               (List.length unreset)
               (name ctx (List.hd unreset)));
        ])

let rst_002 =
  Rule.make ~code:"RST-002" ~category:Rule.Reset ~severity:Rule.Info
    ~title:"no input carries the reset role"
    ~doc:
      "Without a Reset-role input the ternary engine cannot compute a \
       post-reset state; Steady_state analysis degrades."
    (fun ctx ->
      if Array.length (Netlist.nodes_with_role (Ctx.nl ctx) Netlist.Reset) = 0
      then [ Rule.raw "no input carries the reset role" ]
      else [])

let rstn_pins ctx =
  let nl = Ctx.nl ctx in
  Array.to_list (Netlist.seq_nodes nl)
  |> List.filter_map (fun ff ->
         match Netlist.kind nl ff with
         | Cell.Dffr -> Some (ff, (Netlist.fanin nl ff).(1))
         | Cell.Sdffr -> Some (ff, (Netlist.fanin nl ff).(3))
         | _ -> None)

let rst_003 =
  Rule.make ~code:"RST-003" ~category:Rule.Reset ~severity:Rule.Warning
    ~title:"reset pin not driven from any reset input"
    ~doc:
      "The rstn pin of these cells reaches no Reset-role input at all, \
       even through reset gating logic (buffers, inverters, and/or \
       gates): an orphan reset the mission model does not control."
    (fun ctx ->
      let nl = Ctx.nl ctx in
      let bad =
        rstn_pins ctx
        |> List.filter (fun (_, net) -> Ctx.reset_roots nl net = [])
      in
      if bad = [] then []
      else
        let ffs = List.map fst bad in
        [
          Rule.raw ~node:(List.hd ffs) ~path:ffs
            (Printf.sprintf
               "%d resettable cells have an rstn pin not fed by a \
                reset-role input (e.g. %s)"
               (List.length ffs)
               (name ctx (List.hd ffs)));
        ])

let rst_004 =
  Rule.make ~code:"RST-004" ~category:Rule.Reset ~severity:Rule.Warning
    ~title:"several reset domains"
    ~doc:
      "Resettable cells root their rstn pins in different sets of \
       Reset-role inputs: more than one reset domain.  The mission model \
       asserts a single reset; extra domains stay uninitialized.  A reset \
       merely gated (e.g. ANDed with a debug pin) keeps its root and is \
       reported by RST-006, not here."
    (fun ctx ->
      let nl = Ctx.nl ctx in
      let domains = Hashtbl.create 7 in
      List.iter
        (fun (_, net) ->
          match Ctx.reset_roots nl net with
          | [] -> () (* RST-003's finding *)
          | roots -> Hashtbl.replace domains roots ())
        (rstn_pins ctx);
      if Hashtbl.length domains > 1 then
        let names =
          Hashtbl.fold
            (fun roots () acc ->
              String.concat "&" (List.map (name ctx) roots) :: acc)
            domains []
          |> List.sort compare
        in
        [
          Rule.raw
            (Printf.sprintf "%d reset domains: %s" (List.length names)
               (String.concat ", " names));
        ]
      else [])

let rst_006 =
  Rule.make ~code:"RST-006" ~category:Rule.Reset ~severity:Rule.Info
    ~title:"reset reaches an rstn pin only through gating logic"
    ~doc:
      "The rstn pin roots in a Reset-role input but only through \
       combinational gating (e.g. rstn AND trstn for a TAP held in reset \
       when the mission ties TRSTN low).  Legitimate in debug wrappers; \
       worth knowing because the gated cells sit in reset whenever the \
       gate is off."
    (fun ctx ->
      let nl = Ctx.nl ctx in
      let gated =
        rstn_pins ctx
        |> List.filter (fun (_, net) ->
               let tr = Ctx.back_trace nl net in
               (not
                  (Cell.equal_kind (Netlist.kind nl tr.Ctx.origin) Cell.Input
                  && Netlist.has_role nl tr.Ctx.origin Netlist.Reset))
               && Ctx.reset_roots nl net <> [])
        |> List.map fst
      in
      if gated = [] then []
      else
        [
          Rule.raw ~node:(List.hd gated) ~path:gated
            (Printf.sprintf
               "%d resettable cells see the reset only through gating \
                logic (e.g. %s)"
               (List.length gated)
               (name ctx (List.hd gated)));
        ])

let rst_005 =
  Rule.make ~code:"RST-005" ~category:Rule.Reset ~severity:Rule.Warning
    ~title:"reset reaches an rstn pin with inverted polarity"
    ~doc:
      "An odd number of inverters between the active-low reset input and \
       an active-low rstn pin: once reset is released (1), the cell is \
       held in reset forever — its cone is mission-constant."
    (fun ctx ->
      let nl = Ctx.nl ctx in
      let bad =
        rstn_pins ctx
        |> List.filter (fun (_, net) ->
               let tr = Ctx.back_trace nl net in
               tr.Ctx.inverted
               && Cell.equal_kind (Netlist.kind nl tr.Ctx.origin) Cell.Input
               && Netlist.has_role nl tr.Ctx.origin Netlist.Reset)
        |> List.map fst
      in
      if bad = [] then []
      else
        [
          Rule.raw ~node:(List.hd bad) ~path:bad
            (Printf.sprintf
               "%d cells see the reset input inverted on their rstn pin \
                (e.g. %s)"
               (List.length bad)
               (name ctx (List.hd bad)));
        ])

let clk_001 =
  Rule.make ~code:"CLK-001" ~category:Rule.Clock ~severity:Rule.Warning
    ~title:"clock input used as data"
    ~doc:
      "Sequential cells are clocked by the implicit global clock in this \
       IR, so any fanout of a Clock-role input is combinational data \
       logic — a clock-as-data crossing the structural engine cannot \
       reason about."
    (fun ctx ->
      let nl = Ctx.nl ctx in
      Array.to_list (Netlist.nodes_with_role nl Netlist.Clock)
      |> List.filter (fun i ->
             Cell.equal_kind (Netlist.kind nl i) Cell.Input
             && Array.length (Netlist.fanout nl i) > 0)
      |> List.map (fun i ->
             Rule.raw ~node:i
               (Printf.sprintf "clock input %s drives %d data loads"
                  (name ctx i)
                  (Array.length (Netlist.fanout nl i)))))

(* ---------------------------------------------------------------- *)
(* Nets / X propagation / constants                                 *)
(* ---------------------------------------------------------------- *)

let net_001 =
  Rule.make ~code:"NET-001" ~category:Rule.Net ~severity:Rule.Warning
    ~title:"floating (Tiex) net"
    ~doc:
      "A cut or floating net: a permanent X source.  Deliberate after \
       output floating (Sec. 3.2.2); suspicious in a fresh netlist."
    (fun ctx ->
      let nl = Ctx.nl ctx in
      let findings = ref [] in
      Netlist.iter_nodes
        (fun i nd ->
          if nd.Netlist.kind = Cell.Tiex then
            findings :=
              Rule.raw ~node:i
                (Printf.sprintf "floating net %s" (name ctx i))
              :: !findings)
        nl;
      List.rev !findings)

let net_002 =
  Rule.make ~code:"NET-002" ~category:Rule.Net ~severity:Rule.Info
    ~title:"nets constant in mission steady state"
    ~doc:
      "Nets the ternary engine proves constant in the mission steady \
       state (outside tie cells): the raw material of the Sec. 3.3 rule."
    (fun ctx ->
      let nl = Ctx.nl ctx in
      let t = Ctx.ternary ctx in
      let const_count = ref 0 in
      Netlist.iter_nodes
        (fun i nd ->
          if
            (not (Cell.is_tie nd.Netlist.kind))
            && nd.Netlist.kind <> Cell.Output
            && Logic4.is_binary (Olfu_atpg.Ternary.const_of t i)
          then incr const_count)
        nl;
      if !const_count > 0 then
        [
          Rule.raw
            (Printf.sprintf "%d nets constant in mission steady state"
               !const_count);
        ]
      else [])

let xprop_001 =
  Rule.make ~code:"XPROP-001" ~category:Rule.Net ~severity:Rule.Warning
    ~title:"floating net can poison primary outputs with X"
    ~doc:
      "Forward reachability from each Tiex source, restricted to nets \
       whose steady-state value is non-binary: outputs this reaches can \
       show X in mission mode.  A Tiex whose X is absorbed by constants \
       is reported only by NET-001."
    (fun ctx ->
      let nl = Ctx.nl ctx in
      let t = Ctx.ternary ctx in
      let poisoned_outputs src =
        let seen = Hashtbl.create 97 in
        let outs = ref [] in
        let rec visit i =
          if not (Hashtbl.mem seen i) then begin
            Hashtbl.replace seen i ();
            if not (Logic4.is_binary (Olfu_atpg.Ternary.const_of t i)) then begin
              if Cell.equal_kind (Netlist.kind nl i) Cell.Output then
                outs := i :: !outs;
              Array.iter (fun (sink, _) -> visit sink) (Netlist.fanout nl i)
            end
          end
        in
        visit src;
        List.rev !outs
      in
      let findings = ref [] in
      Netlist.iter_nodes
        (fun i nd ->
          if nd.Netlist.kind = Cell.Tiex then
            match poisoned_outputs i with
            | [] -> ()
            | outs ->
              findings :=
                Rule.raw ~node:i ~path:outs
                  (Printf.sprintf
                     "floating net %s can reach %d outputs with X (e.g. %s)"
                     (name ctx i) (List.length outs)
                     (name ctx (List.hd outs)))
                :: !findings)
        nl;
      List.rev !findings)

let const_001 =
  Rule.make ~code:"CONST-001" ~category:Rule.Net ~severity:Rule.Info
    ~title:"nets that become constant under the mission tie script"
    ~doc:
      "Ternary implication re-run with every free Debug_control input \
       assumed tied to 0 (the Sec. 3.2 script), plus any software-derived \
       assumptions: the nets newly proven constant are exactly what the \
       debug rule will claim.  Counts exclude the assumed nodes \
       themselves."
    (fun ctx ->
      let nl = Ctx.nl ctx in
      let assumed = Ctx.assumptions ctx in
      if assumed = [] then []
      else begin
        let plain = Ctx.ternary ctx in
        let mission = Ctx.mission_ternary ctx in
        let is_assumed = Hashtbl.create 17 in
        List.iter (fun (i, _) -> Hashtbl.replace is_assumed i ()) assumed;
        let fresh = ref [] in
        Netlist.iter_nodes
          (fun i nd ->
            if
              (not (Cell.is_tie nd.Netlist.kind))
              && (not (Hashtbl.mem is_assumed i))
              && Logic4.is_binary (Olfu_atpg.Ternary.const_of mission i)
              && not (Logic4.is_binary (Olfu_atpg.Ternary.const_of plain i))
            then fresh := i :: !fresh)
          nl;
        match List.rev !fresh with
        | [] -> []
        | l ->
          [
            Rule.raw ~node:(List.hd l) ~path:l
              (Printf.sprintf
                 "%d nets become constant when the %d mission assumptions \
                  are tied (e.g. %s)"
                 (List.length l) (List.length assumed)
                 (name ctx (List.hd l)));
          ]
      end)

let conflict_001 =
  Rule.make ~code:"CONFLICT-001" ~category:Rule.Testability
    ~severity:Rule.Info
    ~title:"nets with a value no mission test frame can realize"
    ~doc:
      "The static implication engine (direct gate implications, \
       contrapositives, bounded recursive learning) run over the \
       mission-tied ternary constants: nets the constants leave unknown \
       but whose closure proves one value impossible.  Every fault whose \
       excitation or propagation requires that value is functionally \
       untestable without any search (FIRE-style conflict \
       untestability)."
    (fun ctx ->
      let nl = Ctx.nl ctx in
      let mission = Ctx.mission_ternary ctx in
      let db =
        Olfu_atpg.Implic.build ~consts:mission.Olfu_atpg.Ternary.values nl
      in
      let scr = Olfu_atpg.Implic.Scratch.create db in
      match Olfu_atpg.Implic.conflict_nets ~limit:20 db scr with
      | [] -> []
      | conflicts ->
        [
          Rule.raw
            ~node:(fst (List.hd conflicts))
            ~path:(List.map fst conflicts)
            (Printf.sprintf
               "%d nets have a statically impossible value (e.g. %s can \
                never be %d)"
               (List.length conflicts)
               (name ctx (fst (List.hd conflicts)))
               (if snd (List.hd conflicts) then 1 else 0));
        ])

(* ---------------------------------------------------------------- *)
(* Observability / testability (ported)                             *)
(* ---------------------------------------------------------------- *)

let obs_001 =
  Rule.make ~code:"OBS-001" ~category:Rule.Observability
    ~severity:Rule.Warning ~title:"logic with no path to any output"
    ~doc:
      "Dead cones: cells with no structural path to an output marker.  \
       Their faults are untestable by construction; synthesis would \
       strip them.  The finding path lists the full cone."
    (fun ctx ->
      match Ctx.dead_nodes ctx with
      | [] -> []
      | dead ->
        [
          Rule.raw ~node:(List.hd dead) ~path:dead
            (Printf.sprintf "%d cells with no path to any output (e.g. %s)"
               (List.length dead)
               (name ctx (List.hd dead)));
        ])

let test_001 =
  Rule.make ~code:"TEST-001" ~category:Rule.Testability ~severity:Rule.Info
    ~title:"hardest-to-test nets by SCOAP"
    ~doc:
      "The highest finite SCOAP cc0+cc1+co scores: where ATPG effort \
       will concentrate.  Count set by thresholds.scoap_top."
    (fun ctx ->
      match
        Olfu_atpg.Scoap.hardest (Ctx.scoap ctx)
          ~n:(Ctx.limits ctx).Ctx.scoap_top
      with
      | [] -> []
      | hard ->
        [
          Rule.raw
            ~node:(fst (List.hd hard))
            ~path:(List.map fst hard)
            (Printf.sprintf "hardest nets by SCOAP: %s"
               (String.concat ", "
                  (List.map
                     (fun (i, score) ->
                       Printf.sprintf "%s (%d)" (name ctx i) score)
                     hard)));
        ])

(* ---------------------------------------------------------------- *)
(* Debug tie-off preconditions                                      *)
(* ---------------------------------------------------------------- *)

let debug_controls ctx =
  let nl = Ctx.nl ctx in
  Array.to_list (Netlist.nodes_with_role nl Netlist.Debug_control)
  |> List.partition (fun i ->
         Cell.equal_kind (Netlist.kind nl i) Cell.Input)

let dbg_001 =
  Rule.make ~code:"DBG-001" ~category:Rule.Debug ~severity:Rule.Warning
    ~title:"debug controls only partially tied off"
    ~doc:
      "Some Debug_control inputs are tied while others are still free: \
       the Sec. 3.2.1 manipulation was applied halfway, so the debug \
       fault accounting is neither mission nor test."
    (fun ctx ->
      let nl = Ctx.nl ctx in
      let untied, rest = debug_controls ctx in
      let tied =
        List.filter (fun i -> Cell.is_tie (Netlist.kind nl i)) rest
      in
      if tied <> [] && untied <> [] then
        [
          Rule.raw
            ~node:(List.hd untied)
            ~path:untied
            (Printf.sprintf
               "%d of %d debug controls are tied but %d remain free (e.g. \
                %s)"
               (List.length tied)
               (List.length tied + List.length untied)
               (List.length untied)
               (name ctx (List.hd untied)));
        ]
      else [])

let dbg_002 =
  Rule.make ~code:"DBG-002" ~category:Rule.Debug ~severity:Rule.Info
    ~title:"debug observation outputs not floated after tie-off"
    ~doc:
      "Every debug control is tied (mission preparation done) but \
       Debug_observe outputs are still connected: Sec. 3.2.2 requires \
       floating them before the structural screening, or their cones \
       stay observable."
    (fun ctx ->
      let nl = Ctx.nl ctx in
      let untied, rest = debug_controls ctx in
      let tied =
        List.filter (fun i -> Cell.is_tie (Netlist.kind nl i)) rest
      in
      let observes =
        Array.to_list (Netlist.outputs nl)
        |> List.filter (fun o -> Netlist.has_role nl o Netlist.Debug_observe)
      in
      if tied <> [] && untied = [] && observes <> [] then
        [
          Rule.raw
            ~node:(List.hd observes)
            ~path:observes
            (Printf.sprintf
               "debug controls are tied but %d observe outputs remain \
                connected (e.g. %s)"
               (List.length observes)
               (name ctx (List.hd observes)));
        ]
      else [])

(* ---------------------------------------------------------------- *)
(* Structural metrics                                               *)
(* ---------------------------------------------------------------- *)

let struct_001 =
  Rule.make ~code:"STRUCT-001" ~category:Rule.Structure
    ~severity:Rule.Warning ~title:"net fanout exceeds threshold"
    ~doc:
      "Data fanout (excluding scan-enable/scan-in/reset wiring pins) \
       above thresholds.max_fanout: an electrical and testability \
       hotspot.  Tie cells are exempt."
    (fun ctx ->
      let nl = Ctx.nl ctx in
      let limit = (Ctx.limits ctx).Ctx.max_fanout in
      let findings = ref [] in
      Netlist.iter_nodes
        (fun i nd ->
          if not (Cell.is_tie nd.Netlist.kind) then begin
            let fo = Ctx.data_fanout nl i in
            if fo > limit then
              findings :=
                Rule.raw ~node:i
                  (Printf.sprintf "net %s has data fanout %d (limit %d)"
                     (name ctx i) fo limit)
                :: !findings
          end)
        nl;
      List.rev !findings)

let struct_002 =
  Rule.make ~code:"STRUCT-002" ~category:Rule.Structure
    ~severity:Rule.Warning ~title:"combinational depth exceeds threshold"
    ~doc:
      "Logic depth above thresholds.max_depth: long ripple structures \
       dominate the critical path and blow up SCOAP/ATPG effort."
    (fun ctx ->
      let nl = Ctx.nl ctx in
      let limit = (Ctx.limits ctx).Ctx.max_depth in
      let worst = ref (-1) and worst_level = ref 0 and count = ref 0 in
      Netlist.iter_nodes
        (fun i _ ->
          let l = Netlist.level nl i in
          if l > limit then begin
            incr count;
            if l > !worst_level then begin
              worst := i;
              worst_level := l
            end
          end)
        nl;
      if !count > 0 then
        [
          Rule.raw ~node:!worst
            (Printf.sprintf
               "%d nets deeper than %d levels (deepest: %s at %d)"
               !count limit (name ctx !worst) !worst_level);
        ]
      else [])

(* ---------------------------------------------------------------- *)
(* Software facts (Sec. 3.3: what the mission software can drive)   *)
(* ---------------------------------------------------------------- *)

(* All SW-* rules are silent unless the caller supplied software facts
   (olfu lint --software, or Lint.run ?software): the netlist alone
   cannot know what the program side proves. *)

let sw_001 =
  Rule.make ~code:"SW-CONST" ~category:Rule.Software ~severity:Rule.Info
    ~title:"address bits proven constant by software but not tied"
    ~doc:
      "The abstract interpreter proved these address bits constant over \
       every analysed program (fetch and data), yet plain ternary \
       implication cannot show the corresponding address-register flops \
       constant: each one is a Sec. 3.3 tie/assume opportunity, and the \
       faults below it are functionally untestable on-line."
    (fun ctx ->
      match Ctx.software ctx with
      | None -> []
      | Some sw ->
        let nl = Ctx.nl ctx in
        let plain = Ctx.ternary ctx in
        let untied =
          List.filter_map
            (fun (bit, v) ->
              let flops =
                Netlist.nodes_with_role nl (Netlist.Address_reg bit)
                |> Array.to_list
                |> List.filter (fun i ->
                       not
                         (Logic4.is_binary (Olfu_atpg.Ternary.const_of plain i)))
              in
              if flops = [] then None else Some ((bit, v), flops))
            sw.Ctx.sw_const_addr_bits
        in
        (match untied with
        | [] -> []
        | ((bit0, v0), flops0) :: _ ->
          let nodes = List.concat_map snd untied in
          [
            Rule.raw ~node:(List.hd flops0) ~path:nodes
              (Printf.sprintf
                 "%s proves %d address bits constant (e.g. bit %d = %d at \
                  %s) with %d address-register flops left untied"
                 sw.Ctx.sw_label (List.length untied) bit0
                 (if v0 then 1 else 0)
                 (name ctx (List.hd flops0))
                 (List.length nodes));
          ]))

let sw_002 =
  Rule.make ~code:"SW-DEAD" ~category:Rule.Software ~severity:Rule.Warning
    ~title:"unreachable instruction words in a routine"
    ~doc:
      "Instruction words the abstract interpreter proves no execution of \
       the routine can ever fetch.  Dead code inflates the stored image \
       without exercising anything; if it was meant as a reachable test \
       pattern, the routine has a control-flow bug."
    (fun ctx ->
      match Ctx.software ctx with
      | None -> []
      | Some sw ->
        List.map
          (fun (pname, pcs) ->
            Rule.raw
              (Printf.sprintf
                 "routine %s: %d unreachable instruction words (first at \
                  0x%X)"
                 pname (List.length pcs) (List.hd pcs)))
          sw.Ctx.sw_dead_code)

let sw_003 =
  Rule.make ~code:"SW-OBS" ~category:Rule.Software ~severity:Rule.Error
    ~title:"no signature store provably reaches RAM"
    ~doc:
      "Memory content is the only on-line observation point (Sec. 4): a \
       suite whose stores never provably land in data RAM observes \
       nothing, so every fault it was meant to catch escapes."
    (fun ctx ->
      match Ctx.software ctx with
      | None -> []
      | Some sw ->
        if sw.Ctx.sw_store_total = 0 then
          [ Rule.raw (sw.Ctx.sw_label ^ " performs no signature store at all") ]
        else if not sw.Ctx.sw_ram_stores then
          [
            Rule.raw
              (Printf.sprintf
                 "none of the %d store sites in %s provably lands in data RAM"
                 sw.Ctx.sw_store_total sw.Ctx.sw_label);
          ]
        else [])

let sw_004 =
  Rule.make ~code:"SW-MAP" ~category:Rule.Software ~severity:Rule.Warning
    ~title:"memory access may escape every mapped region"
    ~doc:
      "A load or store whose abstract address is not contained in the \
       ROM or RAM region: it may hit unmapped space, where the bus model \
       and the memory-map constant-bit argument both stop holding."
    (fun ctx ->
      match Ctx.software ctx with
      | None -> []
      | Some sw -> List.map (fun s -> Rule.raw s) sw.Ctx.sw_unmapped)

let seu_001 =
  Rule.make ~code:"SEU-001" ~category:Rule.Testability ~severity:Rule.Info
    ~title:"state flop unprotected against single-event upsets"
    ~doc:
      "A flip-flop whose fanout cone reaches a functional primary output \
       while no alarm, parity or checker output (net name containing \
       alarm/parity/err/chk) observes it: a transient bit-flip there can \
       corrupt mission outputs with no on-line flag.  Informational \
       inventory of the exposed state — the bounded verdict per flop \
       comes from the safety taxonomy's SEU axis."
    (fun ctx ->
      let nl = Ctx.nl ctx in
      let is_alarm o =
        match Netlist.name nl o with
        | None -> false
        | Some n ->
          let n = String.lowercase_ascii n in
          let has sub =
            let ls = String.length n and lb = String.length sub in
            let rec go i =
              i + lb <= ls && (String.sub n i lb = sub || go (i + 1))
            in
            go 0
          in
          has "alarm" || has "parity" || has "err" || has "chk"
      in
      (* backward cone of the two output families, crossing flops *)
      let cone pred =
        let m = Array.make (Netlist.length nl) false in
        let rec go i =
          if not m.(i) then begin
            m.(i) <- true;
            Array.iter go (Netlist.fanin nl i)
          end
        in
        Array.iter (fun o -> if pred o then go o) (Netlist.outputs nl);
        m
      in
      let func = cone (fun o -> not (is_alarm o)) in
      let alarm = cone is_alarm in
      let seqs = Netlist.seq_nodes nl in
      let exposed =
        Array.to_list seqs
        |> List.filter (fun f -> func.(f) && not alarm.(f))
      in
      match exposed with
      | [] -> []
      | hd :: _ ->
        [
          Rule.raw ~node:hd ~path:exposed
            (Printf.sprintf
               "%d of %d state flops reach a functional output with no \
                alarm/parity observer (e.g. %s)"
               (List.length exposed) (Array.length seqs) (name ctx hd));
        ])

(* ---------------------------------------------------------------- *)
(* Invariant-backed (proved reachable-state facts)                  *)
(* ---------------------------------------------------------------- *)

let inv_001 =
  Rule.make ~code:"INV-001" ~category:Rule.Invariant ~severity:Rule.Info
    ~title:"register group reaches only part of its encoding space"
    ~doc:
      "The invariant engine proved the register's reachable value set by \
       k-induction; every missing code is an unreachable encoding, so the \
       decode logic for those codes is functionally untestable on-line \
       and the register is a re-encoding opportunity."
    (fun ctx ->
      match Ctx.invariants ctx with
      | None -> []
      | Some inv ->
        List.filter_map
          (fun (group, reach) ->
            let w = Array.length group in
            if w = 0 || w > 16 then None
            else
              let space = 1 lsl w in
              let missing = space - List.length reach in
              if missing <= 0 then None
              else
                Some
                  (Rule.raw ~node:group.(0) ~path:(Array.to_list group)
                     (Printf.sprintf
                        "%s: %d-bit register at %s reaches %d of %d codes \
                         (%d unreachable encodings)"
                        inv.Ctx.inv_label w (name ctx group.(0))
                        (List.length reach) space missing)))
          inv.Ctx.inv_ranges)

let inv_002 =
  Rule.make ~code:"INV-002" ~category:Rule.Invariant ~severity:Rule.Warning
    ~title:"gate conjoins a proved-mutex flop pair (dead branch)"
    ~doc:
      "An and/nand gate whose inputs trace back (through buffers, with \
       even inversion) to two flops the invariant engine proved never \
       simultaneously 1 can never see both inputs asserted: the and \
       output never rises, so the branch it selects is dead in every \
       reachable state."
    (fun ctx ->
      match Ctx.invariants ctx with
      | Some inv when inv.Ctx.inv_mutex <> [] ->
        let nl = Ctx.nl ctx in
        let mutex = Hashtbl.create 17 in
        List.iter
          (fun (a, b) -> Hashtbl.replace mutex (min a b, max a b) ())
          inv.Ctx.inv_mutex;
        let acc = ref [] in
        for i = 0 to Netlist.length nl - 1 do
          match Netlist.kind nl i with
          | Cell.And | Cell.Nand ->
            let ins =
              Array.to_list (Netlist.fanin nl i)
              |> List.filter_map (fun f ->
                     let tr = Ctx.back_trace nl f in
                     if tr.Ctx.inverted then None else Some tr.Ctx.origin)
            in
            let rec first_pair = function
              | [] -> None
              | a :: rest -> (
                match
                  List.find_opt
                    (fun b -> Hashtbl.mem mutex (min a b, max a b))
                    rest
                with
                | Some b -> Some (a, b)
                | None -> first_pair rest)
            in
            (match first_pair ins with
            | Some (a, b) ->
              acc :=
                Rule.raw ~node:i ~path:[ a; b ]
                  (Printf.sprintf
                     "%s %s conjoins mutex flops %s and %s — the gate can \
                      never assert in any reachable state"
                     (Cell.kind_name (Netlist.kind nl i))
                     (name ctx i) (name ctx a) (name ctx b))
                :: !acc
            | None -> ())
          | _ -> ()
        done;
        List.rev !acc
      | _ -> [])

let inv_003 =
  Rule.make ~code:"INV-003" ~category:Rule.Invariant ~severity:Rule.Info
    ~title:"flop proved constant by induction but not structurally tied"
    ~doc:
      "The invariant engine proved these flops constant in every \
       reachable state, yet mission ternary implication cannot show it: \
       each is a Sec. 3.3 tie/assume opportunity, and every fault whose \
       tests need the opposite value is functionally untestable \
       on-line."
    (fun ctx ->
      match Ctx.invariants ctx with
      | None -> []
      | Some inv -> (
        let tern = Ctx.mission_ternary ctx in
        let untied =
          List.filter
            (fun (ff, _) ->
              not (Logic4.is_binary (Olfu_atpg.Ternary.const_of tern ff)))
            inv.Ctx.inv_consts
        in
        match untied with
        | [] -> []
        | (ff0, v0) :: _ ->
          [
            Rule.raw ~node:ff0 ~path:(List.map fst untied)
              (Printf.sprintf
                 "%s proves %d flops constant (e.g. %s = %d) that ternary \
                  implication cannot tie"
                 inv.Ctx.inv_label (List.length untied) (name ctx ff0)
                 (if v0 then 1 else 0));
          ]))

(* ---------------------------------------------------------------- *)
(* Slice-backed (constant-severed cone of influence)                *)
(* ---------------------------------------------------------------- *)

(* an input the mission can actually drive: not clock/reset wiring, not
   the scan interface, not a tied debug control *)
let functional_input nl i =
  not
    (Netlist.has_role nl i Netlist.Clock
    || Netlist.has_role nl i Netlist.Reset
    || Netlist.has_role nl i Netlist.Scan_enable
    || Netlist.has_role nl i Netlist.Scan_in
    || Netlist.has_role nl i Netlist.Debug_control)

let functional_output nl o =
  not
    (Netlist.has_role nl o Netlist.Scan_out
    || Netlist.has_role nl o Netlist.Debug_observe)

let slice_001 =
  Rule.make ~code:"SLICE-001" ~category:Rule.Testability ~severity:Rule.Info
    ~title:"flop unreachable from any functional input under mission constants"
    ~doc:
      "No functional primary input (clock, reset, scan and tied debug \
       inputs excluded) remains in the flop's backward cone once \
       mission-constant severing drops the decided mux branches and \
       scan-data pins: the mission cannot steer the flop's state, so \
       faults needing a specific value there are on-line \
       controllability-limited.  Mission-constant flops are excluded — \
       the constant rules already report those."
    (fun ctx ->
      let nl = Ctx.nl ctx in
      let module Sl = Olfu_slice.Slice in
      let e = Ctx.slice ctx in
      let flops = Netlist.seq_nodes nl in
      let mission = (Ctx.mission_ternary ctx).Olfu_atpg.Ternary.values in
      (* a flop's backward cone holds a functional input exactly when the
         flop is forward-reachable from a flop that reads one *)
      let driven =
        Sl.forward_flops e
          (List.filter
             (fun o -> Array.exists (functional_input nl) e.Sl.in_deps.(o))
             (List.init (Array.length flops) Fun.id))
      in
      let unreachable =
        Array.to_list flops
        |> List.filteri (fun o f ->
               (not (Logic4.is_binary mission.(f))) && not driven.(o))
      in
      match unreachable with
      | [] -> []
      | hd :: _ ->
        [
          Rule.raw ~node:hd ~path:unreachable
            (Printf.sprintf
               "%d non-constant flops have no functional input left in \
                their mission-severed backward cone (e.g. %s)"
               (List.length unreachable) (name ctx hd));
        ])

let slice_002 =
  Rule.make ~code:"SLICE-002" ~category:Rule.Testability ~severity:Rule.Info
    ~title:"flop with no mission path to a functional output or alarm"
    ~doc:
      "Under mission-constant severing the flop's forward cone reaches \
       no output marker except scan-out or debug-observe nets: whatever \
       it latches, the field never sees it, so every fault whose effect \
       is confined to this flop is on-line observability-limited.  \
       Mission-constant flops are excluded."
    (fun ctx ->
      let nl = Ctx.nl ctx in
      let module Sl = Olfu_slice.Slice in
      let e = Ctx.slice ctx in
      let mission = (Ctx.mission_ternary ctx).Olfu_atpg.Ternary.values in
      (* a flop's forward cone meets a functional output's support exactly
         when the flop is in that support's backward closure *)
      let observed =
        Sl.backward_flops e
          (Array.to_list e.Sl.out_deps
          |> List.concat_map (fun (m, ffs) ->
                 if functional_output nl m then Array.to_list ffs else []))
      in
      let unobserved =
        Array.to_list (Netlist.seq_nodes nl)
        |> List.filteri (fun o f ->
               (not (Logic4.is_binary mission.(f))) && not observed.(o))
      in
      match unobserved with
      | [] -> []
      | hd :: _ ->
        [
          Rule.raw ~node:hd ~path:unobserved
            (Printf.sprintf
               "%d non-constant flops reach no functional output or alarm \
                through the mission-severed graph (e.g. %s)"
               (List.length unobserved) (name ctx hd));
        ])

let all =
  [
    scan_001; scan_002; scan_003; scan_004; scan_005; scan_006; scan_007;
    loop_001; drv_001; drv_002; rst_001; rst_002; rst_003; rst_004; rst_005;
    rst_006; clk_001; net_001; net_002; xprop_001; const_001; conflict_001;
    obs_001; test_001; dbg_001; dbg_002; struct_001; struct_002; sw_001;
    sw_002; sw_003; sw_004; seu_001; inv_001; inv_002; inv_003; slice_001;
    slice_002;
  ]

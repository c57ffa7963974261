open Olfu_netlist
open Olfu_fault
open Olfu_atpg
open Olfu_manip
module Trace = Olfu_obs.Trace

type source = Scan | Baseline | Debug_control | Debug_observe | Memory

let source_name = function
  | Scan -> "Scan"
  | Baseline -> "Baseline (reset/steady)"
  | Debug_control -> "Debug (control)"
  | Debug_observe -> "Debug (observation)"
  | Memory -> "Memory"

type step_report = {
  source : source;
  classified : int;
  by_verdict : (Status.undetectable * int) list;
  seconds : float;
}

let undet_classes =
  [|
    Status.Unused; Status.Tied; Status.Blocked; Status.Conflict;
    Status.Redundant; Status.Software; Status.Invariant;
  |]

let undet_tally fl =
  let a = Array.make (Array.length undet_classes) 0 in
  Flist.iteri
    (fun _ _ st ->
      match st with
      | Status.Undetectable u ->
        let k =
          match u with
          | Status.Unused -> 0
          | Status.Tied -> 1
          | Status.Blocked -> 2
          | Status.Conflict -> 3
          | Status.Redundant -> 4
          | Status.Software -> 5
          | Status.Invariant -> 6
        in
        a.(k) <- a.(k) + 1
      | _ -> ())
    fl;
  a

let diff_tally before after =
  let acc = ref [] in
  for k = Array.length undet_classes - 1 downto 0 do
    let d = after.(k) - before.(k) in
    if d <> 0 then acc := (undet_classes.(k), d) :: !acc
  done;
  !acc

type report = {
  universe : int;
  collapsed : int;
  dominance_pruned : int;
  steps : step_report list;
  prep : (string * float) list;
  total_olfu : int;
  fraction : float;
  flist : Flist.t;
  mission_netlist : Netlist.t;
  seconds : float;
}

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

type circuit = {
  netlist : Netlist.t;
  consts : Ternary.t option;
  observable : (int -> bool) option;
  edges : (int * int) list;
}

let analyze ?(implic = true) (cfg : Run_config.t) c =
  Untestable.analyze ~ff_mode:cfg.Run_config.ff_mode
    ?observable_output:c.observable ?consts:c.consts
    ~implic:(implic && cfg.Run_config.implic) ~extra_edges:c.edges
    ~trace:cfg.Run_config.trace c.netlist

(* A circuit whose implication database would be its predecessor's (the
   same netlist, constants and extra edges) asks no conflict question.
   Every fault still open when its step starts was examined by the
   previous step and got no verdict, conflict included.  A conflict
   verdict reads only the database, the fault's necessary literals and
   the stem's dominators, which sit below one virtual sink above every
   output and so ignore what is observed; it is deterministic, so it
   would answer [None] again.  Only structural verdicts can be new. *)
let same_database a b =
  a.netlist == b.netlist
  && Option.equal ( == ) a.consts b.consts
  && a.edges == b.edges

let analyses cfg circuits =
  let rec go prev = function
    | [] -> []
    | (source, c) :: rest ->
      let implic =
        match prev with Some p -> not (same_database p c) | None -> true
      in
      (source, fun () -> analyze ~implic cfg c) :: go (Some c) rest
  in
  go None circuits

(* The two manipulations that make the on-line mission circuit, each
   under its engine spans: the mission-constant debug controls tied
   (Sec. 3.2), then the address registers and ports the memory map
   forces (Sec. 3.3). *)
let tie_controls trace nl mission =
  Trace.span trace ~cat:"engine" "manip" (fun () ->
      Script.apply nl (Mission.tie_controls_script mission))

let force_addresses trace mission tied =
  let forced =
    Trace.span trace ~cat:"engine" "mission" (fun () ->
        Mission.address_forcing mission)
  in
  Trace.span trace ~cat:"engine" "manip" (fun () ->
      Const_regs.tie_addresses tied ~forced)

let mission_netlist nl mission =
  force_addresses Trace.null mission (tie_controls Trace.null nl mission)

(* The circuits of the four engine steps, each manipulation timed as a
   [prep] entry under its own engine span.  Debug control and Debug
   observation analyze the same tied netlist, so its ternary fixpoint is
   computed once, here, and neither step's seconds double-count it. *)
let stages (cfg : Run_config.t) nl mission =
  let trace = cfg.Run_config.trace in
  let engine name f = Trace.span trace ~cat:"engine" name f in
  let tied, tied_t = timed (fun () -> tie_controls trace nl mission) in
  let consts, consts_t =
    timed (fun () ->
        engine "ternary" (fun () ->
            Ternary.run ~ff_mode:cfg.Run_config.ff_mode tied))
  in
  (* debug observation: stop observing the debug buses (and scan-outs) *)
  let observable, observable_t =
    timed (fun () ->
        engine "mission" (fun () -> Mission.observed_in_field mission tied))
  in
  (* memory map: tie forced address registers and ports *)
  let mission_nl, mission_nl_t =
    timed (fun () -> force_addresses trace mission tied)
  in
  let circuit ?consts ?observable netlist =
    { netlist; consts; observable; edges = [] }
  in
  ( [
      (Baseline, circuit nl);
      (Debug_control, circuit ~consts tied);
      (Debug_observe, circuit ~consts ~observable tied);
      (Memory, circuit ~observable mission_nl);
    ],
    [
      ("tied netlist", tied_t);
      ("shared ternary fixpoint", consts_t);
      ("mission observability", observable_t);
      ("mission netlist", mission_nl_t);
    ] )

(* The step runner: [body] classifies still-open faults of [fl] inside a
   ["step"] span, and its newly classified faults are attributed to the
   verdict class (UT/UB/UC/...) that proved them.  The tally sweeps run
   outside the span, as one ["tally"] engine record; their seconds come
   back separately so the flow can account them as prep. *)
let stepped trace fl name body =
  let before, bt = timed (fun () -> undet_tally fl) in
  let n, secs = timed (fun () -> Trace.span trace ~cat:"step" name body) in
  let v, at = timed (fun () -> diff_tally before (undet_tally fl)) in
  Trace.record trace ~cat:"engine" ~dur:(bt +. at) "tally";
  (n, v, secs, bt +. at)

let classify (cfg : Run_config.t) t fl =
  Untestable.classify ~jobs:cfg.Run_config.jobs ~trace:cfg.Run_config.trace
    t fl

let step (cfg : Run_config.t) name c fl =
  let n, v, _, _ =
    stepped cfg.Run_config.trace fl name (fun () ->
        classify cfg (analyze cfg c) fl)
  in
  (n, v)

let run (cfg : Run_config.t) nl mission =
  let trace = cfg.Run_config.trace in
  let t0 = Unix.gettimeofday () in
  let fl, flist_t =
    timed (fun () ->
        Trace.span trace ~cat:"engine" "flist" (fun () -> Flist.full nl))
  in
  (* structural collapsing on the untouched universe: the prime count
     is what an ATPG tool would target, the dominance prune what a
     target list additionally sheds; the prune runs on a copy (every
     status still [Not_analyzed]) so the flow's own classification never
     sees the implicit verdicts *)
  let (collapsed, dominance_pruned), collapse_t =
    timed (fun () ->
        Trace.span trace ~cat:"engine" "collapse" (fun () ->
            let prime = Collapse.num_classes (Collapse.compute fl) in
            (prime, Collapse.dominance_prune (Flist.copy fl))))
  in
  let tally_s = ref 0. in
  let report source body =
    let classified, by_verdict, seconds, tally =
      stepped trace fl (source_name source) body
    in
    tally_s := !tally_s +. tally;
    { source; classified; by_verdict; seconds }
  in
  let scan =
    report Scan (fun () ->
        Trace.span trace ~cat:"engine" "scan_trace" (fun () ->
            Scan_trace.prune nl fl))
  in
  let circuits, stage_prep = stages cfg nl mission in
  let steps =
    scan
    :: List.map
         (fun (source, analysis) ->
           report source (fun () -> classify cfg (analysis ()) fl))
         (analyses cfg circuits)
  in
  let total = List.fold_left (fun acc s -> acc + s.classified) 0 steps in
  {
    universe = Flist.size fl;
    collapsed;
    dominance_pruned;
    steps;
    prep =
      (("fault universe", flist_t) :: ("fault collapsing", collapse_t)
       :: stage_prep)
      @ [ ("verdict accounting", !tally_s) ];
    total_olfu = total;
    fraction = float_of_int total /. float_of_int (max 1 (Flist.size fl));
    flist = fl;
    mission_netlist = (List.assoc Memory circuits).netlist;
    seconds = Unix.gettimeofday () -. t0;
  }

let manifest_steps r =
  List.map
    (fun s ->
      {
        Olfu_obs.Manifest.name = source_name s.source;
        seconds = s.seconds;
        classified = s.classified;
        verdicts =
          List.map
            (fun (u, n) -> (Status.code (Status.Undetectable u), n))
            s.by_verdict;
      })
    r.steps

let step_count r src =
  List.fold_left
    (fun acc s -> if s.source = src then acc + s.classified else acc)
    0 r.steps

let paper_total r =
  List.fold_left
    (fun acc s ->
      match s.source with
      | Baseline -> acc
      | Scan | Debug_control | Debug_observe | Memory -> acc + s.classified)
    0 r.steps

(* Reference numbers of Table I in the paper. *)
let paper_table1 =
  [ ("Scan", 19_142, 8.9); ("Debug", 6_905, 3.2); ("Memory", 3_610, 1.7) ]

let pp_table1 ?(paper = false) ppf r =
  let pct n = 100. *. float_of_int n /. float_of_int (max 1 r.universe) in
  let scan = step_count r Scan in
  let dbg = step_count r Debug_control + step_count r Debug_observe in
  let mem = step_count r Memory in
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf
    "Table I: on-line functionally untestable faults (universe %d)@,"
    r.universe;
  Format.fprintf ppf
    "  (collapsed: %d prime faults, %d more dominance-prunable)@,"
    r.collapsed r.dominance_pruned;
  let row name n =
    Format.fprintf ppf "  %-8s %8d  %5.1f%%" name n (pct n);
    if paper then begin
      match List.assoc_opt name (List.map (fun (a, b, c) -> (a, (b, c))) paper_table1) with
      | Some (pn, ppct) ->
        Format.fprintf ppf "   (paper: %6d  %4.1f%%)" pn ppct
      | None -> ()
    end;
    Format.pp_print_cut ppf ()
  in
  row "Scan" scan;
  Format.fprintf ppf "  %-8s %8d  %5.1f%%  (%d control + %d observation)"
    "Debug" dbg (pct dbg)
    (step_count r Debug_control)
    (step_count r Debug_observe);
  if paper then Format.fprintf ppf "   (paper: 4,548+2,357 = 6,905  3.2%%)";
  Format.pp_print_cut ppf ();
  row "Memory" mem;
  let ptot = paper_total r in
  Format.fprintf ppf "  %-8s %8d  %5.1f%%" "TOTAL" ptot (pct ptot);
  if paper then Format.fprintf ppf "   (paper: 29,657  13.8%%)";
  Format.pp_print_cut ppf ();
  Format.fprintf ppf
    "  (+ %d reset/steady-state faults outside the paper's accounting;      grand total %d = %.1f%%)"
    (step_count r Baseline) r.total_olfu (100. *. r.fraction);
  Format.pp_print_cut ppf ();
  let tally = undet_tally r.flist in
  Format.fprintf ppf "  by verdict:";
  Array.iteri
    (fun k n ->
      if n > 0 then
        Format.fprintf ppf " %s=%d"
          (Status.code (Status.Undetectable undet_classes.(k)))
          n)
    tally;
  Format.fprintf ppf "@,analysis time: %.3f s@]" r.seconds

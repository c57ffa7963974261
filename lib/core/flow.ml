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

let class_index = function
  | Status.Unused -> 0
  | Status.Tied -> 1
  | Status.Blocked -> 2
  | Status.Conflict -> 3
  | Status.Redundant -> 4
  | Status.Software -> 5
  | Status.Invariant -> 6

(* The classes of a per-class tally with a non-zero count, in
   [undet_classes] order. *)
let nonzero tally =
  List.filter_map
    (fun u -> match tally.(class_index u) with 0 -> None | n -> Some (u, n))
    (Array.to_list undet_classes)

type report = {
  universe : int;
  collapsed : int;
  dominance_pruned : int;
  steps : step_report list;
  prep : (string * float) list;
  total_olfu : int;
  fraction : float;
  flist : Flist.t;
  closed_by : Bytes.t;
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

(* [closed_by]'s mark of a fault no step has classified. *)
let still_open = 255

(* One sweep after step [k]: each fault [closed_by] marks open that is now
   undetectable gets [k] as its closing step and is counted under its
   verdict class.  A step only classifies open faults, so the counts are
   the step's own split. *)
let close_step closed_by k fl =
  let tally = Array.make (Array.length undet_classes) 0 in
  for i = 0 to Flist.size fl - 1 do
    if Bytes.get_uint8 closed_by i = still_open then
      match Flist.status fl i with
      | Status.Undetectable u ->
        Bytes.set_uint8 closed_by i k;
        let c = class_index u in
        tally.(c) <- tally.(c) + 1
      | _ -> ()
  done;
  nonzero tally

(* The step runner: [body] classifies still-open faults of [fl] inside a
   ["step"] span, and {!close_step} attributes them.  The sweep runs
   outside the span, as one ["tally"] engine record; its seconds come
   back separately so the flow can account them as prep. *)
let stepped trace closed_by k fl name body =
  let n, secs = timed (fun () -> Trace.span trace ~cat:"step" name body) in
  let v, tally = timed (fun () -> close_step closed_by k fl) in
  Trace.record trace ~cat:"engine" ~dur:tally "tally";
  (n, v, secs, tally)

let classify (cfg : Run_config.t) t fl =
  Untestable.classify ~jobs:cfg.Run_config.jobs ~trace:cfg.Run_config.trace
    t fl

let step (cfg : Run_config.t) name c fl =
  let trace = cfg.Run_config.trace in
  let open_marks, marks_s =
    timed (fun () ->
        Bytes.init (Flist.size fl) (fun i ->
            if Status.is_undetectable (Flist.status fl i) then '\000'
            else Char.chr still_open))
  in
  Trace.record trace ~cat:"engine" ~dur:marks_s "tally";
  let n, v, _, _ =
    stepped trace open_marks 0 fl name (fun () ->
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
  let closed_by = Bytes.make (Flist.size fl) (Char.chr still_open) in
  let tally_s = ref 0. in
  let report k source body =
    let classified, by_verdict, seconds, tally =
      stepped trace closed_by k fl (source_name source) body
    in
    tally_s := !tally_s +. tally;
    { source; classified; by_verdict; seconds }
  in
  let scan =
    report 0 Scan (fun () ->
        Trace.span trace ~cat:"engine" "scan_trace" (fun () ->
            Scan_trace.prune nl fl))
  in
  let circuits, stage_prep = stages cfg nl mission in
  let steps =
    scan
    :: List.mapi
         (fun k (source, analysis) ->
           report (k + 1) source (fun () -> classify cfg (analysis ()) fl))
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
    closed_by;
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
  let tally = Array.make (Array.length undet_classes) 0 in
  List.iter
    (fun s ->
      List.iter
        (fun (u, n) -> tally.(class_index u) <- tally.(class_index u) + n)
        s.by_verdict)
    r.steps;
  Format.fprintf ppf "  by verdict:";
  List.iter
    (fun (u, n) ->
      Format.fprintf ppf " %s=%d" (Status.code (Status.Undetectable u)) n)
    (nonzero tally);
  Format.fprintf ppf "@,analysis time: %.3f s@]" r.seconds

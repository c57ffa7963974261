open Olfu_netlist
open Olfu_fault
module Ternary = Olfu_atpg.Ternary
module Trace = Olfu_obs.Trace
module Absint = Olfu_absint.Absint
module Script = Olfu_manip.Script
module Invar = Olfu_invar.Invar

type config = {
  rc : Olfu.Run_config.t;
  window : int;
  seu_limit : int;
  invariants : bool;
}

let default =
  {
    rc = Olfu.Run_config.default;
    window = 4;
    seu_limit = 64;
    invariants = true;
  }

type report = {
  universe : int;
  flow : Olfu.Flow.report;
  classes : Taxonomy.safe_class array;
  counts : (Taxonomy.safe_class * int) list;
  software_safe : int;
  software_by : (Status.undetectable * int) list;
  assume_nodes : int;
  facts : Absint.activation_facts;
  invariant_safe : int;
  invariant_by : (Status.undetectable * int) list;
  invariants : Invar.report option;
  seu : Seu.report;
  bmc_netlist : Netlist.t;
  observable : int -> bool;
  consistency : string list;
  seconds : float;
}

(* The verdict classes the flow can assign, for the invariance check. *)
let base_classes =
  [|
    Status.Unused; Status.Tied; Status.Blocked; Status.Conflict;
    Status.Redundant;
  |]

let base_tally statuses =
  Array.map
    (fun c ->
      Array.fold_left
        (fun acc st ->
          if Status.equal st (Status.Undetectable c) then acc + 1 else acc)
        0 statuses)
    base_classes

(* The BMC machine: the mission netlist with the scan interface held
   functional, as in the implication-oracle spot checks. *)
let bmc_machine mnl =
  let script =
    List.filter_map
      (fun n ->
        if Netlist.find mnl n <> None then
          Some (Script.Tie_input (n, Olfu_logic.Logic4.L0))
        else None)
      [ "scan_en"; "scan_in0" ]
  in
  if script = [] then mnl else Script.apply mnl script

let run ?(config = default) ~facts nl mission =
  let rc = config.rc in
  let trace = rc.Olfu.Run_config.trace in
  let t0 = Unix.gettimeofday () in
  (* 1. the existing identification flow: structural + conflict verdicts *)
  let flow = Olfu.Flow.run rc nl mission in
  let fl = flow.Olfu.Flow.flist in
  let mnl = flow.Olfu.Flow.mission_netlist in
  let size = Flist.size fl in
  let before = Array.init size (Flist.status fl) in
  let observable = Olfu.Mission.observed_in_field mission mnl in
  (* one safe-fault pass: strengthen the ternary fixpoint of [machine]
     with [assume], run one flow step on the still-open faults,
     then relabel every newly proved fault [label] — the by-verdict split
     keeps the underlying UT/UB/UC proofs as evidence *)
  let reclassify name label ~assume ?(edges = []) machine =
    let consts =
      Trace.span trace ~cat:"engine" "ternary" (fun () ->
          Ternary.run ~ff_mode:rc.Olfu.Run_config.ff_mode ~assume machine)
    in
    let circuit =
      {
        Olfu.Flow.netlist = machine;
        consts = Some consts;
        observable = Some observable;
        edges;
      }
    in
    let prior = Array.init size (Flist.status fl) in
    let n, by = Olfu.Flow.step rc name circuit fl in
    Array.iteri
      (fun i st ->
        if not (Status.equal st (Flist.status fl i)) then
          Flist.set_status fl i (Status.Undetectable label))
      prior;
    (n, by)
  in
  (* 2. software-safe: the mission machine under the software-proven
     constants *)
  let assume = Absint.facts_assume facts mnl in
  let software_safe, software_by =
    if assume = [] then (0, [])
    else reclassify "Software safe" Status.Software ~assume mnl
  in
  (* 2b. invariant-safe: the on-line machine (scan interface held
     functional) under induction-proved state invariants — assumed
     constants strengthen the ternary fixpoint, pairwise facts the
     implication database *)
  let machine = bmc_machine mnl in
  let invariants =
    if config.invariants then
      Some (Invar.run ~jobs:rc.Olfu.Run_config.jobs ~trace machine)
    else None
  in
  let invariant_safe, invariant_by =
    match invariants with
    | None -> (0, [])
    | Some ir ->
      reclassify "Invariant safe" Status.Invariant
        ~assume:(Invar.assume_facts ir) ~edges:(Invar.edges ir) machine
  in
  (* 3. the partition *)
  let classes =
    Array.init size (fun i -> Taxonomy.of_status (Flist.status fl i))
  in
  let count c =
    Array.fold_left
      (fun acc x -> if x = c then acc + 1 else acc)
      0 classes
  in
  let counts =
    Array.to_list (Array.map (fun c -> (c, count c)) Taxonomy.safe_classes)
  in
  (* 4. transient axis on the BMC machine, with the proved invariants
     restricting the pre-upset state to the reachable
     over-approximation *)
  let bmc_nl = machine in
  let seu =
    Seu.run ~window:config.window ~limit:config.seu_limit
      ~jobs:rc.Olfu.Run_config.jobs ~trace ~observable_output:observable
      ~invariants:
        (match invariants with Some ir -> ir.Invar.proved | None -> [])
      bmc_nl
  in
  (* 5. consistency against the pre-software verdicts *)
  let violations = ref [] in
  let note fmt = Format.kasprintf (fun s -> violations := s :: !violations) fmt in
  let after = Array.init size (Flist.status fl) in
  let tb = base_tally before and ta = base_tally after in
  Array.iteri
    (fun k c ->
      if tb.(k) <> ta.(k) then
        note "%s count changed: %d -> %d"
          (Status.code (Status.Undetectable c))
          tb.(k) ta.(k))
    base_classes;
  Array.iteri
    (fun i st ->
      match (st, classes.(i)) with
      | Status.Detected, Taxonomy.Software_safe ->
        note "fault %d both detected and software-safe" i
      | Status.Detected, Taxonomy.Invariant_safe ->
        note "fault %d both detected and invariant-safe" i
      | (Status.Detected | Status.Possibly_detected | Status.Undetectable _),
        _
        when not (Status.equal st after.(i)) ->
        note "fault %d verdict rewritten: %s -> %s" i (Status.code st)
          (Status.code after.(i))
      | _ -> ())
    before;
  if List.fold_left (fun acc (_, n) -> acc + n) 0 counts <> size then
    note "class counts do not partition the universe";
  if Trace.enabled trace then begin
    Trace.add trace "safety.software_safe" software_safe;
    Trace.add trace "safety.invariant_safe" invariant_safe;
    Trace.add trace "safety.unclassified"
      (count Taxonomy.Unclassified)
  end;
  {
    universe = size;
    flow;
    classes;
    counts;
    software_safe;
    software_by;
    assume_nodes = List.length assume;
    facts;
    invariant_safe;
    invariant_by;
    invariants;
    seu;
    bmc_netlist = bmc_nl;
    observable;
    consistency = List.rev !violations;
    seconds = Unix.gettimeofday () -. t0;
  }

let consistent r = r.consistency = []

let pp ppf r =
  let pct n = 100. *. float_of_int n /. float_of_int (max 1 r.universe) in
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "safe-fault taxonomy (universe %d)@," r.universe;
  List.iter
    (fun (c, n) ->
      Format.fprintf ppf "  %-14s %8d  %5.1f%%@," (Taxonomy.safe_name c) n
        (pct n))
    r.counts;
  if r.software_by <> [] then begin
    Format.fprintf ppf "  software-safe evidence:";
    List.iter
      (fun (c, n) ->
        Format.fprintf ppf " %s=%d" (Status.code (Status.Undetectable c)) n)
      r.software_by;
    Format.fprintf ppf "  (%d software-assumed nodes, facts: %s)@,"
      r.assume_nodes r.facts.Absint.af_label
  end;
  (match r.invariants with
  | None -> ()
  | Some ir ->
    Format.fprintf ppf
      "  invariants: %d proved (k=%d) of %d mined; invariant-safe \
       evidence:"
      (List.length ir.Invar.proved)
      ir.Invar.k
      (List.length ir.Invar.mined);
    if r.invariant_by = [] then Format.fprintf ppf " none"
    else
      List.iter
        (fun (c, n) ->
          Format.fprintf ppf " %s=%d" (Status.code (Status.Undetectable c)) n)
        r.invariant_by;
    Format.fprintf ppf "@,");
  Format.fprintf ppf
    "SEU axis (window %d): %d/%d flops checked — masked %d, protected %d, \
     vulnerable %d, unknown %d@,"
    r.seu.Seu.window
    (Array.length r.seu.Seu.results)
    r.seu.Seu.total_ffs r.seu.Seu.masked r.seu.Seu.protected_
    r.seu.Seu.vulnerable r.seu.Seu.unknown;
  (match r.consistency with
  | [] -> Format.fprintf ppf "consistency: OK@,"
  | vs ->
    List.iter (fun v -> Format.fprintf ppf "consistency VIOLATION: %s@," v) vs);
  Format.fprintf ppf "analysis time: %.3f s@]" r.seconds

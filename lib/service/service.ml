module J = Olfu_obs.Json
module Trace = Olfu_obs.Trace
module Manifest = Olfu_obs.Manifest
module Netlist = Olfu_netlist.Netlist
module Cell = Olfu_netlist.Cell
module Req = Request
module Resp = Response

type meta = {
  steps : Manifest.step list;
  prep : (string * float) list;
  extras : (string * J.t) list;
  aux : (string * string) list;
}

let empty_meta = { steps = []; prep = []; extras = []; aux = [] }

(* A request whose inputs are unusable.  Raised inside builders, turned
   into a [Bad_input] response at the dispatch boundary — the daemon
   must never die on a client's request. *)
exception Bad_request of string

let badf fmt = Printf.ksprintf (fun s -> raise (Bad_request s)) fmt

let soc_of_name = function
  | "tcore32" -> Some Olfu_soc.Soc.tcore32
  | "tcore32_dft" -> Some Olfu_soc.Soc.tcore32_dft
  | "tcore16" -> Some Olfu_soc.Soc.tcore16
  | _ -> None

let rc_of sink (r : Req.run) =
  {
    Olfu.Run_config.ff_mode = r.ff_mode;
    jobs = r.jobs;
    implic = r.implic;
    trace = sink;
  }

let config_fields (r : Req.run) =
  let base =
    match Olfu.Run_config.to_json (rc_of Trace.null r) with
    | J.Obj l -> l
    | _ -> []
  in
  let target =
    match r.target with
    | Req.Config n -> ("soc", J.Str n)
    | Req.File p -> ("file", J.Str p)
  in
  target :: ("op", J.Str (Req.op_name r.op))
  :: ("params", Req.params_json r.op)
  :: base

(* -- target resolution -------------------------------------------- *)

(* File targets key on path + stat so an edited netlist re-elaborates;
   config targets are immutable by name. *)
let target_key = function
  | Req.Config name -> "netlist/config/" ^ name
  | Req.File path -> (
    match Unix.stat path with
    | st ->
      Printf.sprintf "netlist/file/%s@%.6f+%d" path st.Unix.st_mtime
        st.Unix.st_size
    | exception Unix.Unix_error (e, _, _) ->
      badf "%s: %s" path (Unix.error_message e))

(* How a target becomes a netlist and a mission: a generated
   configuration, or an elaborated Verilog file whose roles give the
   mission under the paper's memory map and 32-bit addresses. *)
let resolve_exn = function
  | Req.Config name -> (
    match soc_of_name name with
    | None -> badf "unknown config %S (tcore32|tcore32_dft|tcore16)" name
    | Some cfg ->
      let nl = Olfu_soc.Soc.generate cfg in
      (nl, Olfu.Mission.of_soc cfg nl, Some cfg))
  | Req.File path ->
    let nl =
      try Olfu_verilog.Elaborate.netlist_of_file path with
      | Olfu_verilog.Parser.Error { line; message } ->
        badf "%s:%d: %s" path line message
      | Olfu_verilog.Elaborate.Error m -> badf "%s: %s" path m
      | e -> badf "%s: %s" path (Printexc.to_string e)
    in
    ( nl,
      Olfu.Mission.of_roles
        ~memmap:(Olfu_manip.Memmap.paper_case_study ())
        ~address_width:32 nl,
      None )

let resolve target =
  match resolve_exn target with
  | r -> Ok r
  | exception Bad_request m -> Error m

let load session (r : Req.run) : Session.loaded =
  let build () =
    let nl, mission, cfg = resolve_exn r.target in
    Session.Loaded
      { Session.nl; mission; digest = Olfu_netlist.Analysis.digest_of nl; cfg }
  in
  match Session.memo session (target_key r.target) build with
  | Session.Loaded l, _ -> l
  | _ -> assert false

(* The generated-SoC ops (absint, safety, coverage: they need the ROM,
   RAM and SBST suite of a configuration, not just a netlist). *)
let require_cfg (l : Session.loaded) op =
  match l.cfg with
  | Some cfg -> cfg
  | None ->
    badf "%s requires a generated configuration (tcore32|tcore32_dft|tcore16)"
      op

let flow_key (r : Req.run) (l : Session.loaded) =
  Printf.sprintf "%s/flow/%s/%s" l.Session.digest
    (Olfu.Run_config.ff_mode_name r.ff_mode)
    (if r.implic then "implic" else "noimplic")

(* The shared flow artifact: analyze and coverage read its verdicts, so
   a warm session runs it once for both. *)
let flow_of session sink (r : Req.run) (l : Session.loaded) =
  match
    Session.memo session (flow_key r l) (fun () ->
        Session.Flow (Olfu.Flow.run (rc_of sink r) l.Session.nl l.Session.mission))
  with
  | Session.Flow f, hit -> (f, hit)
  | _ -> assert false

(* The fully manipulated circuit, all that invar and slice read: this
   request's flow report's copy when the session holds one (a warm
   daemon that has answered analyze or coverage pays nothing), else
   built alone, without the flow's classification. *)
let mission_of session (r : Req.run) (l : Session.loaded) =
  match Session.find session (flow_key r l) with
  | Some (Session.Flow f) -> f.Olfu.Flow.mission_netlist
  | _ -> Olfu.Flow.mission_netlist l.Session.nl l.Session.mission

(* -- shared renderings -------------------------------------------- *)

(* Aligned key/value table: the --format summary rendering. *)
let table rows =
  let w =
    List.fold_left (fun acc (k, _) -> max acc (String.length k)) 0 rows
  in
  let b = Buffer.create 256 in
  List.iter (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%-*s  %s\n" w k v)) rows;
  Buffer.contents b

(* the indented form ends in its one newline *)
let json_line j = J.to_string ~indent:true j

let verdict_fields l =
  List.map
    (fun (u, n) ->
      (Olfu_fault.Status.code (Olfu_fault.Status.Undetectable u), J.Int n))
    l

(* Table I as structured JSON.  Deliberately excludes every wall-clock
   field of the report (per-step seconds, prep, total) — the payload
   must be deterministic so cached and fresh answers are
   byte-identical; timing travels in the response envelope and the
   manifest instead. *)
let flow_payload (r : Olfu.Flow.report) =
  let open Olfu.Flow in
  let pct n = 100. *. float_of_int n /. float_of_int (max 1 r.universe) in
  let row n = J.Obj [ ("count", J.Int n); ("percent", J.Float (pct n)) ] in
  let scan = step_count r Scan in
  let ctl = step_count r Debug_control in
  let obs = step_count r Debug_observe in
  let mem = step_count r Memory in
  J.Obj
    [
      ("universe", J.Int r.universe);
      ("collapsed", J.Int r.collapsed);
      ("dominance_pruned", J.Int r.dominance_pruned);
      ( "steps",
        J.List
          (List.map
             (fun s ->
               J.Obj
                 [
                   ("source", J.Str (source_name s.source));
                   ("classified", J.Int s.classified);
                   ("by_verdict", J.Obj (verdict_fields s.by_verdict));
                 ])
             r.steps) );
      ( "table1",
        J.Obj
          [
            ("scan", row scan);
            ("debug", row (ctl + obs));
            ("debug_control", J.Int ctl);
            ("debug_observe", J.Int obs);
            ("memory", row mem);
            ("total", row (paper_total r));
            ("baseline", J.Int (step_count r Baseline));
            ("grand_total", row r.total_olfu);
          ] );
    ]

let coverage_payload (s : Olfu_sbst.Coverage.summary) =
  let open Olfu_sbst.Coverage in
  J.Obj
    [
      ( "programs",
        J.List
          (List.map
             (fun p ->
               J.Obj
                 [
                   ("name", J.Str p.pname);
                   ("cycles", J.Int p.cycles);
                   ("newly_detected", J.Int p.newly_detected);
                 ])
             s.programs) );
      ("total_faults", J.Int s.total_faults);
      ("detected", J.Int s.detected);
      ("undetectable", J.Int s.undetectable);
      ("raw_coverage", J.Float s.raw_coverage);
      ("pruned_coverage", J.Float s.pruned_coverage);
    ]

let flow_meta (flow : Olfu.Flow.report) extras =
  {
    steps = Olfu.Flow.manifest_steps flow;
    prep = flow.Olfu.Flow.prep;
    extras;
    aux = [];
  }

(* -- per-op builders: (outcome, meta) ------------------------------ *)

let exec_analyze session sink (r : Req.run) l ~paper =
  let flow, _ = flow_of session sink r l in
  let open Olfu.Flow in
  let text =
    Format.asprintf "%a@.@.%a@.@.%a@." Netlist.pp_summary l.Session.nl
      (pp_table1 ~paper) flow Olfu_fault.Flist.pp_summary flow.flist
  in
  let summary =
    table
      [
        ("universe", string_of_int flow.universe);
        ("collapsed", string_of_int flow.collapsed);
        ("dominance pruned", string_of_int flow.dominance_pruned);
        ("scan", string_of_int (step_count flow Scan));
        ( "debug",
          string_of_int
            (step_count flow Debug_control + step_count flow Debug_observe)
        );
        ("memory", string_of_int (step_count flow Memory));
        ("paper total", string_of_int (paper_total flow));
        ("baseline", string_of_int (step_count flow Baseline));
        ("grand total", string_of_int flow.total_olfu);
      ]
  in
  ( {
      Session.json = json_line (flow_payload flow);
      text;
      summary;
      status = Resp.Success;
      aux = [];
    },
    flow_meta flow
      [
        ("universe", J.Int flow.universe);
        ("collapsed", J.Int flow.collapsed);
        ("dominance_pruned", J.Int flow.dominance_pruned);
      ] )

let exec_lint _session _sink (_r : Req.run) (l : Session.loaded) ~waivers
    ~baseline ~disabled ~software ~invariants ~fail_on =
  let module L = Olfu_lint in
  let nl = l.Session.nl in
  let waivers =
    match waivers with
    | None -> []
    | Some p -> (
      match L.Config.load_waivers p with
      | Ok w -> w
      | Error m -> badf "%s" m)
  in
  let baseline =
    match baseline with
    | Some p when Sys.file_exists p -> (
      match L.Config.load_baseline p with
      | Ok b -> b
      | Error m -> badf "%s" m)
    | Some _ | None -> []
  in
  let config =
    { L.Config.default with L.Config.waivers; baseline; disabled }
  in
  let sw =
    if not software then None
    else
      match l.Session.cfg with
      | None -> badf "--software requires a generated configuration"
      | Some cfg ->
        let named =
          List.map
            (fun p ->
              (p.Olfu_sbst.Programs.pname, Olfu_absint.Absint.of_program cfg p))
            (Olfu_sbst.Programs.suite cfg)
        in
        Some
          (Olfu_absint.Absint.software_facts
             ~label:(cfg.Olfu_soc.Soc.name ^ "-suite")
             cfg nl named)
  in
  let inv =
    if not invariants then None
    else
      (* the on-line machine: debug controls and the scan interface tied
         to 0, as [Classify.bmc_machine] ties them; ties keep node ids,
         so the facts apply to [nl] *)
      let held =
        Olfu_manip.Tie.edit nl (fun b ->
            List.concat_map
              (fun role -> Array.to_list (Netlist.nodes_with_role nl role))
              [ Netlist.Debug_control; Netlist.Scan_enable; Netlist.Scan_in ]
            |> List.filter (fun i ->
                   Cell.equal_kind (Netlist.kind nl i) Cell.Input)
            |> List.sort_uniq Int.compare
            |> List.iter (fun i ->
                   Olfu_manip.Tie.Batch.input b i Olfu_logic.Logic4.L0))
      in
      let module Inv = Olfu_invar.Invar in
      Some (Inv.lint_facts (Inv.run held))
  in
  let o = L.Lint.run ~config ?software:sw ?invariants:inv nl in
  let fail =
    match fail_on with
    | Req.Never -> false
    | Req.Fail_on s -> L.Lint.fails ~fail_on:s o
  in
  let baseline_lines = L.Config.baseline_of_findings nl o.L.Lint.findings in
  ( {
      Session.json = json_line (L.Render.json o);
      text = Format.asprintf "%a@." L.Render.text o;
      summary = Format.asprintf "%a@." L.Render.summary o;
      status = (if fail then Resp.Findings else Resp.Success);
      aux =
        [
          ("baseline", String.concat "\n" baseline_lines);
          ("findings", string_of_int (List.length o.L.Lint.findings));
        ];
    },
    { empty_meta with
      extras =
        [ ("findings", J.Int (List.length o.L.Lint.findings)) ]
    } )

let exec_implic _session sink (r : Req.run) (l : Session.loaded) ~learn_depth
    ~learn_budget ~invariants =
  let module U = Olfu_atpg.Untestable in
  let module I = Olfu_atpg.Implic in
  let nl = l.Session.nl in
  let jobs = r.jobs in
  let t =
    U.analyze ~ff_mode:r.ff_mode ~learn_depth ~learn_budget ~trace:sink nl
  in
  let db =
    match U.implication_db t with
    | Some db -> db
    | None -> assert false (* analyze builds one unless [~implic:false] *)
  in
  let s = I.stats db in
  let scr = I.Scratch.create db in
  let conflicts = I.conflict_nets ~limit:10 db scr in
  let fl = Olfu_fault.Flist.full nl in
  let classified = U.classify ~jobs ~trace:sink t fl in
  let count c =
    Olfu_fault.Flist.count_status fl (Olfu_fault.Status.Undetectable c)
  in
  let ut = count Olfu_fault.Status.Tied
  and ub = count Olfu_fault.Status.Blocked
  and uc = count Olfu_fault.Status.Conflict
  and us = count Olfu_fault.Status.Software in
  (* read off the base classification, before the invariant pass adds
     to it *)
  let tdf_un = Olfu_fault.Tdf.untestable fl in
  let tdf_univ = Olfu_fault.Flist.size fl in
  let ui =
    if not invariants then 0
    else
      let module Inv = Olfu_invar.Invar in
      let ir = Inv.run ~jobs ~trace:sink nl in
      let strengthened =
        U.analyze ~learn_depth ~learn_budget
          ~consts:
            (Olfu_atpg.Ternary.run ~ff_mode:r.ff_mode
               ~assume:(Inv.assume_facts ir) nl)
          ~extra_edges:(Inv.edges ir) ~trace:sink nl
      in
      (* the faults the base analysis left open that only the
         invariant-assumed one proves *)
      U.classify ~jobs ~trace:sink strengthened fl
  in
  let net_name n =
    match Netlist.name nl n with
    | Some x -> x
    | None -> Printf.sprintf "n%d" n
  in
  let text =
    let b = Buffer.create 512 in
    let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
    pf "implication database (%d nodes)\n" (Netlist.length nl);
    pf "  literals      %8d\n" s.I.literals;
    pf "  direct edges  %8d\n" s.I.direct_edges;
    pf "  learned edges %8d  (depth %d, budget %d, spent %d)\n"
      s.I.learned_edges s.I.learn_depth s.I.learn_budget s.I.learn_spent;
    pf "  impossible    %8d  (build-time sweep)\n" s.I.impossible_learned;
    pf "  build time    %8.3f s\n" s.I.build_seconds;
    pf "stuck-at universe %d: untestable %d (UT %d, UB %d, UC %d)\n"
      (Olfu_fault.Flist.size fl) classified ut ub uc;
    if invariants then
      pf "invariant-strengthened: %d more conflict-untestable (UI)\n" ui;
    pf "transition universe %d: untestable %d\n" tdf_univ tdf_un;
    if conflicts <> [] then begin
      pf "conflict nets (sample):\n";
      List.iter
        (fun (n, v) ->
          pf "  %-24s can never be %d\n" (net_name n) (if v then 1 else 0))
        conflicts
    end;
    Buffer.contents b
  in
  (* build_seconds stays out of the payload: it is wall clock, and the
     JSON rendering must be identical between a fresh and a cached
     answer *)
  let payload =
    J.Obj
      [
        ("nodes", J.Int (Netlist.length nl));
        ("literals", J.Int s.I.literals);
        ("direct_edges", J.Int s.I.direct_edges);
        ("learned_edges", J.Int s.I.learned_edges);
        ("impossible_learned", J.Int s.I.impossible_learned);
        ("learn_depth", J.Int s.I.learn_depth);
        ("learn_budget", J.Int s.I.learn_budget);
        ("learn_spent", J.Int s.I.learn_spent);
        ("universe", J.Int (Olfu_fault.Flist.size fl));
        ("untestable", J.Int classified);
        ( "by_verdict",
          J.Obj
            [
              ("UT", J.Int ut); ("UB", J.Int ub); ("UC", J.Int uc);
              ("US", J.Int us); ("UI", J.Int ui);
            ] );
        ("tdf_universe", J.Int tdf_univ);
        ("tdf_untestable", J.Int tdf_un);
        ( "conflict_nets",
          J.List
            (List.map
               (fun (n, v) ->
                 J.Obj
                   [
                     ("net", J.Str (net_name n));
                     ("impossible_value", J.Int (if v then 1 else 0));
                   ])
               conflicts) );
      ]
  in
  let summary =
    table
      [
        ("nodes", string_of_int (Netlist.length nl));
        ("literals", string_of_int s.I.literals);
        ("direct edges", string_of_int s.I.direct_edges);
        ("learned edges", string_of_int s.I.learned_edges);
        ("impossible", string_of_int s.I.impossible_learned);
        ("build seconds", Printf.sprintf "%.3f" s.I.build_seconds);
        ("universe", string_of_int (Olfu_fault.Flist.size fl));
        ("untestable", string_of_int classified);
        ("UT", string_of_int ut);
        ("UB", string_of_int ub);
        ("UC", string_of_int uc);
        ("US", string_of_int us);
        ("UI", string_of_int ui);
        ("TDF universe", string_of_int tdf_univ);
        ("TDF untestable", string_of_int tdf_un);
      ]
  in
  ( {
      Session.json = json_line payload;
      text;
      summary;
      status = Resp.Success;
      aux = [];
    },
    { empty_meta with
      extras =
        [ ("untestable", J.Int classified); ("tdf_untestable", J.Int tdf_un) ]
    } )

let exec_absint _session _sink (_r : Req.run) (l : Session.loaded) ~programs
    ~asm =
  let module A = Olfu_absint.Absint in
  let module P = Olfu_sbst.Programs in
  let cfg = require_cfg l "absint" in
  let suite = P.suite cfg in
  let named =
    match asm with
    | Some path -> (
      try
        [
          ( Filename.basename path,
            A.of_items cfg (Olfu_sbst.Asm.parse_file path) );
        ]
      with
      | Olfu_sbst.Asm.Parse_error { line; message } ->
        badf "%s:%d: %s" path line message
      | Invalid_argument m | Sys_error m -> badf "%s" m)
    | None ->
      let chosen =
        if programs = [] then suite
        else
          List.map
            (fun name ->
              match List.find_opt (fun p -> p.P.pname = name) suite with
              | Some p -> p
              | None ->
                badf "unknown program %S (one of: %s)" name
                  (String.concat ", " (List.map (fun p -> p.P.pname) suite)))
            programs
      in
      List.map (fun p -> (p.P.pname, A.of_program cfg p)) chosen
  in
  let ts = List.map snd named in
  let width = cfg.Olfu_soc.Soc.xlen in
  let regions = [ cfg.Olfu_soc.Soc.rom; cfg.Olfu_soc.Soc.ram ] in
  let consts = A.constant_addr_bits ~width ts in
  let rdata = A.rdata_constant_bits ~width ts in
  let check = A.cross_check ~width ts regions in
  let never = A.never_written ts cfg.Olfu_soc.Soc.ram in
  let assume = A.netlist_assume ~width ts l.Session.nl in
  let degraded = List.exists (fun t -> A.degraded t <> None) ts in
  let bits bs =
    if bs = [] then "none"
    else
      String.concat " "
        (List.map
           (fun (bit, v) -> Printf.sprintf "%d=%d" bit (Bool.to_int v))
           bs)
  in
  let text =
    let b = Buffer.create 512 in
    let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
    List.iter
      (fun (name, t) ->
        match A.degraded t with
        | Some msg ->
          pf "%-18s %4d words  DEGRADED: %s\n" name (A.image_length t) msg
        | None ->
          pf "%-18s %4d words  %3d dead  %d store sites  %d passes\n" name
            (A.image_length t)
            (List.length (A.dead_pcs t))
            (A.store_sites t) (A.passes t))
      named;
    pf "constant address bits: %s\n" (bits consts);
    pf "constant rdata bits:   %s\n" (bits rdata);
    pf "netlist assumptions:   %d nodes\n" (List.length assume);
    List.iter
      (fun (lo, hi) -> pf "never-written RAM:     [0x%X, 0x%X]\n" lo hi)
      never;
    if check.A.ok then pf "cross-check vs memory map: OK\n"
    else
      List.iter (fun v -> pf "cross-check VIOLATION: %s\n" v) check.A.violations;
    Buffer.contents b
  in
  let bits_json bits =
    J.List
      (List.map
         (fun (bit, v) ->
           J.Obj [ ("bit", J.Int bit); ("value", J.Int (Bool.to_int v)) ])
         bits)
  in
  let payload =
    J.Obj
      [
        ("config", J.Str cfg.Olfu_soc.Soc.name);
        ( "programs",
          J.List
            (List.map
               (fun (name, t) ->
                 J.Obj
                   [
                     ("name", J.Str name);
                     ("words", J.Int (A.image_length t));
                     ("dead", J.Int (List.length (A.dead_pcs t)));
                     ("stores", J.Int (A.store_sites t));
                     ("passes", J.Int (A.passes t));
                     ( "degraded",
                       match A.degraded t with
                       | None -> J.Null
                       | Some m -> J.Str m );
                   ])
               named) );
        ("constant_addr_bits", bits_json consts);
        ("constant_rdata_bits", bits_json rdata);
        ("assume_nodes", J.Int (List.length assume));
        ( "never_written_ram",
          J.List
            (List.map (fun (lo, hi) -> J.List [ J.Int lo; J.Int hi ]) never)
        );
        ("cross_check_ok", J.Bool check.A.ok);
        ("violations", J.List (List.map (fun v -> J.Str v) check.A.violations));
      ]
  in
  let summary =
    table
      [
        ("config", cfg.Olfu_soc.Soc.name);
        ("programs", string_of_int (List.length named));
        ( "degraded",
          string_of_int
            (List.length (List.filter (fun t -> A.degraded t <> None) ts)) );
        ("constant addr bits", bits consts);
        ("constant rdata bits", bits rdata);
        ("assume nodes", string_of_int (List.length assume));
        ( "never-written RAM",
          if never = [] then "none"
          else
            String.concat " "
              (List.map
                 (fun (lo, hi) -> Printf.sprintf "[0x%X,0x%X]" lo hi)
                 never) );
        ("cross-check", if check.A.ok then "OK" else "VIOLATED");
      ]
  in
  ( {
      Session.json = json_line payload;
      text;
      summary;
      status =
        (if (not check.A.ok) || degraded then Resp.Findings
         else Resp.Success);
      aux = [];
    },
    { empty_meta with
      extras =
        [
          ("cross_check_ok", J.Bool check.A.ok);
          ("assume_nodes", J.Int (List.length assume));
        ]
    } )

let exec_invar session sink (r : Req.run) (l : Session.loaded) ~k ~no_prove =
  let module Inv = Olfu_invar.Invar in
  let module Sc = Olfu_safety.Classify in
  let machine = Sc.bmc_machine (mission_of session r l) in
  let res = Inv.run ~k ~jobs:r.jobs ~trace:sink ~no_prove machine in
  let cand_str c = Format.asprintf "%a" (Inv.pp_candidate machine) c in
  let payload =
    J.Obj
      [
        ("flops", J.Int res.Inv.total_ffs);
        ("mined", J.Int (List.length res.Inv.mined));
        ("killed", J.Int (List.length res.Inv.killed));
        ("unproved", J.Int (List.length res.Inv.unproved));
        ("proved", J.Int (List.length res.Inv.proved));
        ("k", J.Int res.Inv.k);
        ( "by_class",
          J.Obj
            (List.map
               (fun (cls, p, rest) ->
                 (cls, J.Obj [ ("proved", J.Int p); ("open", J.Int rest) ]))
               (Inv.count_by_class res)) );
        ( "invariants",
          J.List
            (List.map
               (fun (inv : Inv.invariant) ->
                 J.Obj
                   [
                     ("class", J.Str (Inv.class_name inv.Inv.form));
                     ("form", J.Str (cand_str inv.Inv.form));
                     ("k", J.Int inv.Inv.cert.Inv.cert_k);
                     ("rounds", J.Int inv.Inv.cert.Inv.cert_rounds);
                   ])
               res.Inv.proved) );
      ]
  in
  let summary =
    table
      ([
         ("flops", string_of_int res.Inv.total_ffs);
         ("mined", string_of_int (List.length res.Inv.mined));
         ("sim-killed", string_of_int (List.length res.Inv.killed));
         ("unproved", string_of_int (List.length res.Inv.unproved));
         ("proved", string_of_int (List.length res.Inv.proved));
         ("k", string_of_int res.Inv.k);
       ]
      @ List.map
          (fun (cls, p, rest) ->
            ("class " ^ cls, Printf.sprintf "%d proved / %d open" p rest))
          (Inv.count_by_class res))
  in
  ( {
      Session.json = json_line payload;
      text = Format.asprintf "%a@." (Inv.pp machine) res;
      summary;
      status = Resp.Success;
      aux = [];
    },
    { empty_meta with
      extras = [ ("invariants_proved", J.Int (List.length res.Inv.proved)) ]
    } )

let exec_safety _session sink (r : Req.run) (l : Session.loaded) ~window
    ~seu_limit =
  let module A = Olfu_absint.Absint in
  let module P = Olfu_sbst.Programs in
  let module Sc = Olfu_safety.Classify in
  let module T = Olfu_safety.Taxonomy in
  let module Seu = Olfu_safety.Seu in
  let cfg = require_cfg l "safety" in
  let nl = l.Session.nl in
  let named =
    List.map (fun p -> (p.P.pname, A.of_program cfg p)) (P.suite cfg)
  in
  let facts =
    A.activation_facts ~label:(cfg.Olfu_soc.Soc.name ^ "-suite") cfg named
  in
  let config =
    { Sc.default with Sc.rc = rc_of sink r; window; seu_limit }
  in
  let res = Sc.run ~config ~facts nl l.Session.mission in
  let seu_counts =
    [
      ("seu_masked", res.Sc.seu.Seu.masked);
      ("seu_protected", res.Sc.seu.Seu.protected_);
      ("seu_vulnerable", res.Sc.seu.Seu.vulnerable);
      ("seu_unknown", res.Sc.seu.Seu.unknown);
    ]
  in
  let payload =
    J.Obj
      [
        ("config", J.Str cfg.Olfu_soc.Soc.name);
        ("universe", J.Int res.Sc.universe);
        ( "classes",
          J.Obj
            (List.map (fun (c, n) -> (T.safe_code c, J.Int n)) res.Sc.counts)
        );
        ("software_safe_by", J.Obj (verdict_fields res.Sc.software_by));
        ("invariant_safe_by", J.Obj (verdict_fields res.Sc.invariant_by));
        ( "invariants",
          match res.Sc.invariants with
          | None -> J.Null
          | Some ir ->
            let module Inv = Olfu_invar.Invar in
            J.Obj
              [
                ("mined", J.Int (List.length ir.Inv.mined));
                ("proved", J.Int (List.length ir.Inv.proved));
                ("k", J.Int ir.Inv.k);
              ] );
        ("assume_nodes", J.Int res.Sc.assume_nodes);
        ( "seu",
          J.Obj
            (("window", J.Int res.Sc.seu.Seu.window)
            :: ("total_ffs", J.Int res.Sc.seu.Seu.total_ffs)
            :: ("checked", J.Int (Array.length res.Sc.seu.Seu.results))
            :: List.map (fun (k, n) -> (k, J.Int n)) seu_counts) );
        ("consistency", J.List (List.map (fun v -> J.Str v) res.Sc.consistency));
        ("flow", flow_payload res.Sc.flow);
      ]
  in
  let summary =
    table
      (("universe", string_of_int res.Sc.universe)
       :: List.map
            (fun (c, n) -> (T.safe_code c, string_of_int n))
            res.Sc.counts
      @ [ ("seu_checked", string_of_int (Array.length res.Sc.seu.Seu.results)) ]
      @ List.map (fun (k, n) -> (k, string_of_int n)) seu_counts
      @ [ ("consistent", if Sc.consistent res then "yes" else "NO") ])
  in
  let consistent = Sc.consistent res in
  ( {
      Session.json = json_line payload;
      text = Format.asprintf "%a@." Sc.pp res;
      summary;
      status = (if consistent then Resp.Success else Resp.Findings);
      aux = [];
    },
    flow_meta res.Sc.flow
      (List.map (fun (c, n) -> (T.safe_code c, J.Int n)) res.Sc.counts
      @ List.map (fun (k, n) -> (k, J.Int n)) seu_counts) )

let exec_slice session _sink (r : Req.run) (l : Session.loaded) =
  let module Sl = Olfu_slice.Slice in
  let module Sc = Olfu_safety.Classify in
  let machine = Sc.bmc_machine (mission_of session r l) in
  let g = Sl.get machine in
  let edge_count (e : Sl.edges) =
    let ff = Array.fold_left (fun a s -> a + Array.length s) 0 e.Sl.supports in
    let inf = Array.fold_left (fun a s -> a + Array.length s) 0 e.Sl.in_deps in
    let fo =
      Array.fold_left (fun a (_, s) -> a + Array.length s) 0 e.Sl.out_deps
    in
    (ff, inf, fo)
  in
  let regimes = Sl.regimes g in
  let mscc = g.Sl.mission_edges.Sl.cond in
  let largest =
    Array.fold_left (fun a c -> max a (Array.length c)) 0 mscc.Sl.comps
  in
  let dist_json (d : Sl.dist) =
    J.Obj
      [
        ("count", J.Int d.Sl.count);
        ("min", J.Int d.Sl.min_);
        ("max", J.Int d.Sl.max_);
        ("mean", J.Float d.Sl.mean);
        ("median", J.Int d.Sl.median);
        ("p90", J.Int d.Sl.p90);
      ]
  in
  let payload =
    J.Obj
      [
        ("flops", J.Int (Array.length g.Sl.flops));
        ( "edges",
          J.Obj
            (List.map
               (fun (r : Sl.regime) ->
                 let ff, inf, fo = edge_count r.Sl.edges in
                 ( r.Sl.label,
                   J.Obj
                     [
                       ("flop_flop", J.Int ff);
                       ("input_flop", J.Int inf);
                       ("flop_output", J.Int fo);
                     ] ))
               regimes) );
        ( "backward_slice_sizes",
          J.Obj
            (List.map
               (fun (r : Sl.regime) -> (r.Sl.label, dist_json r.Sl.sizes))
               regimes) );
        ( "mission_scc",
          J.Obj
            [
              ("components", J.Int (Array.length mscc.Sl.comps));
              ("largest", J.Int largest);
            ] );
      ]
  in
  let summary =
    table
      ([ ("flops", string_of_int (Array.length g.Sl.flops)) ]
      @ List.map
          (fun (r : Sl.regime) ->
            let ff, inf, fo = edge_count r.Sl.edges in
            ( r.Sl.label ^ " edges",
              Printf.sprintf "%d ff / %d in / %d out" ff inf fo ))
          regimes
      @ List.map
          (fun (r : Sl.regime) ->
            let d = r.Sl.sizes in
            ( r.Sl.label ^ " slice size",
              Printf.sprintf "med %d / p90 %d / max %d" d.Sl.median d.Sl.p90
                d.Sl.max_ ))
          regimes
      @ [
          ("mission sccs", string_of_int (Array.length mscc.Sl.comps));
          ("largest scc", string_of_int largest);
        ])
  in
  ( {
      Session.json = json_line payload;
      text = Format.asprintf "%t@." (Sl.pp_stats g regimes);
      summary;
      status = Resp.Success;
      (* the DOT condensation is always cached with the outcome; the
         [--dot] flag only decides whether the adapter writes it out *)
      aux = [ ("dot", Sl.condensation_dot g g.Sl.mission_edges) ];
    },
    { empty_meta with
      extras =
        [
          ("mission_sccs", J.Int (Array.length mscc.Sl.comps));
          ("largest_scc", J.Int largest);
        ]
    } )

let exec_coverage session sink (r : Req.run) (l : Session.loaded) ~sample =
  let cfg = require_cfg l "coverage" in
  let nl = l.Session.nl in
  let flow, _ = flow_of session sink r l in
  let fl = flow.Olfu.Flow.flist in
  let rng = Random.State.make [| 42 |] in
  let n = Olfu_fault.Flist.size fl in
  let chosen = Hashtbl.create sample in
  while Hashtbl.length chosen < min sample n do
    Hashtbl.replace chosen (Random.State.int rng n) ()
  done;
  let idx =
    List.sort compare (Hashtbl.fold (fun i () a -> i :: a) chosen [])
  in
  let faults = Array.of_list (List.map (Olfu_fault.Flist.fault fl) idx) in
  let sub = Olfu_fault.Flist.create nl faults in
  List.iteri
    (fun k i -> Olfu_fault.Flist.set_status sub k (Olfu_fault.Flist.status fl i))
    idx;
  let summary_r =
    Olfu_sbst.Coverage.grade ~jobs:r.jobs ~trace:sink cfg nl sub
      (Olfu_sbst.Programs.suite cfg)
  in
  let open Olfu_sbst.Coverage in
  let text =
    Format.asprintf "%a@.@.%a@."
      (Olfu.Flow.pp_table1 ~paper:false)
      flow pp_summary summary_r
  in
  let summary =
    table
      ([
         ("sample", string_of_int (Olfu_fault.Flist.size sub));
         ("total faults", string_of_int summary_r.total_faults);
         ("detected", string_of_int summary_r.detected);
         ("undetectable", string_of_int summary_r.undetectable);
         ("raw coverage", Printf.sprintf "%.2f%%" summary_r.raw_coverage);
         ("pruned coverage", Printf.sprintf "%.2f%%" summary_r.pruned_coverage);
       ]
      @ List.map
          (fun p ->
            ( "program " ^ p.pname,
              Printf.sprintf "%d cycles / %d new" p.cycles p.newly_detected ))
          summary_r.programs)
  in
  ( {
      Session.json =
        json_line
          (J.Obj
             [
               ("flow", flow_payload flow);
               ("coverage", coverage_payload summary_r);
             ]);
      text;
      summary;
      status = Resp.Success;
      aux = [];
    },
    flow_meta flow [ ("sample", J.Int (Olfu_fault.Flist.size sub)) ] )

(* -- dispatch ------------------------------------------------------ *)

(* Parts of a run's inputs that live outside the request: the contents
   of server-side files the op reads.  Folding their stat into the
   outcome key keeps a cached answer from surviving an edit to a waiver,
   baseline or assembly file. *)
let file_stamp = function
  | None -> "-"
  | Some p -> (
    match Unix.stat p with
    | st -> Printf.sprintf "%s@%.6f+%d" p st.Unix.st_mtime st.Unix.st_size
    | exception Unix.Unix_error _ -> p ^ "@missing")

let outcome_salt (r : Req.run) =
  match r.op with
  | Req.Lint { waivers; baseline; _ } ->
    "/" ^ file_stamp waivers ^ "/" ^ file_stamp baseline
  | Req.Absint { asm; _ } -> "/" ^ file_stamp asm
  | _ -> ""

let build_outcome session sink (r : Req.run) l =
  match r.op with
  | Req.Analyze { paper } -> exec_analyze session sink r l ~paper
  | Req.Lint { waivers; baseline; disabled; software; invariants; fail_on } ->
    exec_lint session sink r l ~waivers ~baseline ~disabled ~software
      ~invariants ~fail_on
  | Req.Implic { learn_depth; learn_budget; invariants } ->
    exec_implic session sink r l ~learn_depth ~learn_budget ~invariants
  | Req.Absint { programs; asm } ->
    exec_absint session sink r l ~programs ~asm
  | Req.Invar { k; no_prove } -> exec_invar session sink r l ~k ~no_prove
  | Req.Safety { window; seu_limit } ->
    exec_safety session sink r l ~window ~seu_limit
  | Req.Slice _ -> exec_slice session sink r l
  | Req.Coverage { sample } -> exec_coverage session sink r l ~sample

let render (fmt : Req.fmt) (o : Session.outcome) =
  match fmt with
  | Req.Text -> o.Session.text
  | Req.Json -> o.Session.json
  | Req.Summary -> o.Session.summary

let run_op session sink id (r : Req.run) =
  (match Req.check r.op with Ok _ -> () | Error m -> badf "%s" m);
  let l = load session r in
  let key = l.Session.digest ^ "/" ^ Req.fingerprint r ^ outcome_salt r in
  let meta_ref = ref empty_meta in
  let seconds_ref = ref 0. in
  let t0 = Unix.gettimeofday () in
  let v, hit =
    Session.memo session key (fun () ->
        let b0 = Unix.gettimeofday () in
        let o, m = build_outcome session sink r l in
        let spent = Unix.gettimeofday () -. b0 in
        (* the "service" prep entry accounts for render/dispatch time not
           attributed to any flow step, so manifest step coverage still
           matches wall *)
        let attributed =
          List.fold_left (fun a (s : Manifest.step) -> a +. s.Manifest.seconds)
            0. m.steps
          +. List.fold_left (fun a (_, s) -> a +. s) 0. m.prep
        in
        seconds_ref := spent;
        meta_ref :=
          { m with prep = m.prep @ [ ("service", max 0. (spent -. attributed)) ] };
        Session.Outcome o)
  in
  let seconds = if hit then Unix.gettimeofday () -. t0 else !seconds_ref in
  let o = match v with Session.Outcome o -> o | _ -> assert false in
  ( {
      Resp.id;
      status = o.Session.status;
      cache_hit = hit;
      seconds;
      output = render r.fmt o;
      error = None;
    },
    { !meta_ref with aux = o.Session.aux } )

let execute session ?(sink = Trace.null) (req : Req.t) =
  match req.Req.body with
  | Req.Ping ->
    (Resp.make ~id:req.Req.id ~status:Resp.Success "pong\n", empty_meta)
  | Req.Stats ->
    ( Resp.make ~id:req.Req.id ~status:Resp.Success
        (json_line (Session.stats_json (Session.stats session))),
      empty_meta )
  | Req.Shutdown ->
    (Resp.make ~id:req.Req.id ~status:Resp.Success "bye\n", empty_meta)
  | Req.Run r -> (
    try run_op session sink req.Req.id r with
    | Bad_request msg -> (Resp.fail ~id:req.Req.id msg, empty_meta)
    | Stack_overflow | Out_of_memory ->
      (Resp.fail ~id:req.Req.id "resource exhaustion", empty_meta)
    | e ->
      (* an engine's exception must reach neither an in-process caller
         nor the daemon's connection handler *)
      ( Resp.fail ~id:req.Req.id ("internal error: " ^ Printexc.to_string e),
        empty_meta ))

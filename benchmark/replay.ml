(* The traced run: per-layer attribution measured from outside.

   A workload's requests are replayed in this process with a recording
   sink.  The replay calls each layer's public function itself, under a
   bench span, and seeds the results into the session under the keys
   [Service.execute] looks them up by; [execute] then finds them and
   its own span covers what is left (dispatch and rendering, or the
   whole op for the ops that do not start from a flow), with the
   engines' step and engine spans nested where they run.  Daemon
   requests also pass through the wire codec, both directions.

   Self time of a span is its duration minus the time its child spans
   cover.  The root span's self time is the part of the traced wall that
   no layer accounts for. *)

module S = Olfu_service
module Req = S.Request
module Resp = S.Response
module Session = S.Session
module Trace = Olfu_obs.Trace
module J = Olfu_obs.Json
module W = Workloads

let now = Unix.gettimeofday

type bench = {
  sink : Trace.sink;
  alloc : (string, float) Hashtbl.t;  (** self bytes allocated, per span name *)
  mutable kids : float list;  (** bytes of closed children, per open span *)
  steps : (string, float) Hashtbl.t;  (** [Flow.report.steps] seconds *)
  prep : (string, float) Hashtbl.t;  (** [Flow.report.prep] seconds *)
  mutable drift : int;  (** requests where [execute] missed a seeded entry *)
}

let add tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))

(* A ["bench"] span, plus the calling domain's allocation inside it
   minus that of nested bench spans. *)
let span b name f =
  if not (Trace.enabled b.sink) then f ()
  else begin
    let a0 = Gc.allocated_bytes () in
    b.kids <- 0. :: b.kids;
    Fun.protect
      ~finally:(fun () ->
        let incl = Gc.allocated_bytes () -. a0 in
        match b.kids with
        | k :: rest ->
          b.kids <- (match rest with p :: r -> (p +. incl) :: r | [] -> []);
          add b.alloc name (incl -. k)
        | [] -> ())
      (fun () -> Trace.span b.sink ~cat:"bench" name f)
  end

let slug s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match Char.lowercase_ascii c with
      | ('a' .. 'z' | '0' .. '9') as c -> Buffer.add_char b c
      | _ ->
        let n = Buffer.length b in
        if n > 0 && Buffer.nth b (n - 1) <> '_' then Buffer.add_char b '_')
    s;
  let s = Buffer.contents b in
  if String.ends_with ~suffix:"_" s then String.sub s 0 (String.length s - 1) else s

let step_name = function
  | Olfu.Flow.Scan -> "scan"
  | Olfu.Flow.Baseline -> "baseline"
  | Olfu.Flow.Debug_control -> "debug_control"
  | Olfu.Flow.Debug_observe -> "debug_observe"
  | Olfu.Flow.Memory -> "memory"

(* -- the session keys of lib/service/service.ml ------------------------ *)

(* If these drift from the service's own, [execute] stops finding the
   seeded entries: each such request counts in [drift], and fails. *)
let load_key = function
  | Req.Config n -> "netlist/config/" ^ n
  | Req.File p ->
    let st = Unix.stat p in
    Printf.sprintf "netlist/file/%s@%.6f+%d" p st.Unix.st_mtime st.Unix.st_size

let flow_key digest (r : Req.run) =
  Printf.sprintf "%s/flow/%s/%s" digest
    (Olfu.Run_config.ff_mode_name r.Req.ff_mode)
    (if r.Req.implic then "implic" else "noimplic")

(* no request of the workloads names a waiver, baseline or asm file *)
let outcome_key digest (r : Req.run) =
  digest ^ "/" ^ Req.fingerprint r
  ^ match r.Req.op with Req.Lint _ -> "/-/-" | Req.Absint _ -> "/-" | _ -> ""

let uses_flow = function
  | Req.Analyze _ | Req.Invar _ | Req.Slice _ | Req.Coverage _ -> true
  | Req.Lint _ | Req.Implic _ | Req.Absint _ | Req.Safety _ -> false

(* -- one request, layer by layer ----------------------------------------- *)

let load b target =
  let finish nl cfg mission =
    let mission = span b "core.mission" mission in
    let digest =
      span b "netlist.digest" (fun () -> Olfu_netlist.Analysis.digest_of nl)
    in
    { Session.nl; mission; digest; cfg }
  in
  match target with
  | Req.Config n ->
    let cfg = Option.get (S.Service.soc_of_name n) in
    let nl = span b "soc.generate" (fun () -> Olfu_soc.Soc.generate cfg) in
    finish nl (Some cfg) (fun () -> Olfu.Mission.of_soc cfg nl)
  | Req.File p ->
    let nl =
      span b "verilog.elaborate" (fun () -> Olfu_verilog.Elaborate.netlist_of_file p)
    in
    finish nl None (fun () ->
        Olfu.Mission.of_roles
          ~memmap:(Olfu_manip.Memmap.paper_case_study ())
          ~address_width:32 nl)

let seed_flow b session (r : Req.run) (l : Session.loaded) =
  let key = flow_key l.Session.digest r in
  match span b "bench.probe" (fun () -> Session.find session key) with
  | Some (Session.Flow _) -> ()
  | _ ->
    let rc =
      {
        Olfu.Run_config.ff_mode = r.Req.ff_mode;
        jobs = r.Req.jobs;
        implic = r.Req.implic;
        trace = b.sink;
      }
    in
    let f =
      span b "core.flow" (fun () -> Olfu.Flow.run rc l.Session.nl l.Session.mission)
    in
    List.iter
      (fun (s : Olfu.Flow.step_report) ->
        add b.steps (step_name s.Olfu.Flow.source) s.Olfu.Flow.seconds)
      f.Olfu.Flow.steps;
    List.iter (fun (k, v) -> add b.prep (slug k) v) f.Olfu.Flow.prep;
    span b "session.add" (fun () -> Session.add session key (Session.Flow f))

let execute b session (req : Req.t) =
  let r = match req.Req.body with Req.Run r -> r | _ -> invalid_arg "execute" in
  let lkey = load_key r.Req.target in
  let l =
    match span b "bench.probe" (fun () -> Session.find session lkey) with
    | Some (Session.Loaded l) -> l
    | _ ->
      let l = load b r.Req.target in
      span b "session.add" (fun () -> Session.add session lkey (Session.Loaded l));
      l
  in
  let hit =
    match
      span b "bench.probe" (fun () ->
          Session.find session (outcome_key l.Session.digest r))
    with
    | Some _ -> true
    | None -> false
  in
  let flow = (not hit) && uses_flow r.Req.op in
  if flow then seed_flow b session r l;
  let before = (Session.stats session).Session.hits in
  (* what [execute] still does: on a hit, find and render; after a
     seeded flow, dispatch and render (the residue); for the ops without
     a flow, the op itself, whose engines record no spans of their own
     except safety's flow and SEU *)
  let layer =
    if hit then "service.hit"
    else if flow then "service.residue"
    else "service." ^ Req.op_name r.Req.op
  in
  let resp, _ = span b layer (fun () -> S.Service.execute session ~sink:b.sink req) in
  (* a hit finds load and outcome; a miss finds load (and flow) *)
  let want = if hit then 2 else 1 + Bool.to_int flow in
  if (Session.stats session).Session.hits - before <> want then b.drift <- b.drift + 1;
  resp

let through_wire b session req =
  let line = span b "wire.request_encode" (fun () -> Req.to_line req) in
  match span b "wire.request_decode" (fun () -> Req.of_string line) with
  | Error e -> failwith ("request decode: " ^ e)
  | Ok req -> (
    let resp = execute b session req in
    let rline = span b "wire.response_encode" (fun () -> Resp.to_line resp) in
    match span b "wire.response_decode" (fun () -> Resp.of_string rline) with
    | Ok r -> r
    | Error e -> failwith ("response decode: " ^ e))

(* -- a replay pass ------------------------------------------------------- *)

type pass = {
  wall : float;
  durs : float list;  (** per request, seconds, the check excluded *)
  by_label : (string, float) Hashtbl.t;
  bytes : float list;  (** response output bytes *)
  tally : W.tally;
  bench : bench;
}

(* [executed] holds one request list per daemon; each list is replayed
   on a session of its own. *)
let replay ~sink (spec : W.spec) ~check executed =
  let b =
    {
      sink;
      alloc = Hashtbl.create 16;
      kids = [];
      steps = Hashtbl.create 8;
      prep = Hashtbl.create 8;
      drift = 0;
    }
  in
  let t = W.tally () in
  let durs = ref [] and bytes = ref [] and by_label = Hashtbl.create 16 in
  let one session (it : W.item) =
    let drift = b.drift in
    let s0 = now () in
    let res =
      match
        if spec.W.wire then through_wire b session it.W.req else execute b session it.W.req
      with
      | r -> Ok r
      | exception e -> Error (it.W.label ^ ": " ^ Printexc.to_string e)
    in
    let d = now () -. s0 in
    durs := d :: !durs;
    add by_label it.W.label d;
    W.record t
      (match res with
      | Error e -> Error e
      | Ok _ when b.drift > drift ->
        Error (it.W.label ^ ": seeded session keys not found by execute")
      | Ok r ->
        bytes := float_of_int (String.length r.Resp.output) :: !bytes;
        span b "bench.check" (fun () -> check it r))
  in
  let t0 = now () in
  span b "bench.replay" (fun () ->
      List.iter
        (fun items ->
          if spec.W.fresh then List.iter (fun it -> one (Session.create ()) it) items
          else List.iter (one (Session.create ?byte_budget:spec.W.budget ())) items)
        executed);
  { wall = now () -. t0; durs = !durs; by_label; bytes = !bytes; tally = t; bench = b }

(* -- self times ------------------------------------------------------------ *)

let label (s : Trace.span) =
  if s.Trace.cat = "bench" then s.Trace.name else s.Trace.cat ^ "." ^ slug s.Trace.name

type row = { layer : string; self : float; calls : int }

(* Self time per layer, on the caller's lane.  Pool and worker spans are
   the scheduler's view of time already inside an engine span and stay
   out.  Recorded spans ([Trace.record]: no parent, e.g. the flow's
   verdict tally) are charged to the deepest span open when they were
   recorded. *)
let self_times spans =
  let lane =
    List.filter
      (fun (s : Trace.span) -> s.Trace.tid = 0 && s.Trace.cat <> "pool" && s.Trace.cat <> "worker")
      spans
  in
  let root =
    List.find (fun (s : Trace.span) -> s.Trace.name = "bench.replay" && s.Trace.parent < 0) lane
  in
  let kids = Hashtbl.create 1024 in
  List.iter (fun (s : Trace.span) -> if s.Trace.parent >= 0 then Hashtbl.add kids s.Trace.parent s) lane;
  let ends (s : Trace.span) = s.Trace.t0 +. s.Trace.dur in
  let rec deepest (s : Trace.span) t =
    match
      List.find_opt
        (fun (c : Trace.span) -> c.Trace.t0 <= t && t <= ends c)
        (Hashtbl.find_all kids s.Trace.id)
    with
    | Some c -> deepest c t
    | None -> s
  in
  let recorded = Hashtbl.create 16 in
  List.iter
    (fun (s : Trace.span) ->
      if s.Trace.parent < 0 && s.Trace.id <> root.Trace.id then
        add recorded (deepest root (ends s)).Trace.id s.Trace.dur)
    lane;
  let self (s : Trace.span) =
    if s.Trace.parent < 0 && s.Trace.id <> root.Trace.id then s.Trace.dur
    else
      let ivs =
        List.sort compare
          (List.map
             (fun (c : Trace.span) -> (Float.max c.Trace.t0 s.Trace.t0, Float.min (ends c) (ends s)))
             (Hashtbl.find_all kids s.Trace.id))
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, z) ->
            let a = Float.max a reach in
            if z > a then (acc +. (z -. a), z) else (acc, reach))
          (0., neg_infinity) ivs
      in
      Float.max 0.
        (s.Trace.dur -. covered -. Option.value ~default:0. (Hashtbl.find_opt recorded s.Trace.id))
  in
  let rows = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let k = if s == root then "unattributed" else label s in
      let self0, n = Option.value ~default:(0., 0) (Hashtbl.find_opt rows k) in
      Hashtbl.replace rows k (self0 +. self s, n + 1))
    lane;
  ( root.Trace.dur,
    List.sort
      (fun a b -> Float.compare b.self a.self)
      (Hashtbl.fold (fun layer (self, calls) acc -> { layer; self; calls } :: acc) rows []) )

(* -- the per-layer metrics ---------------------------------------------------- *)

let share_layers =
  [
    "soc.generate"; "verilog.elaborate"; "core.mission"; "netlist.digest";
    "session.add"; "core.flow"; "service.residue"; "service.hit";
    "service.lint"; "service.implic"; "service.absint"; "service.safety";
    "wire.request_encode"; "wire.request_decode"; "wire.response_encode";
    "wire.response_decode"; "bench.probe"; "bench.check"; "engine.flist";
    "engine.collapse"; "engine.manip"; "engine.ternary"; "engine.mission";
    "engine.graph"; "engine.observe"; "engine.implic"; "engine.classify";
    "engine.scan_trace"; "engine.tally"; "engine.invar"; "engine.seu";
    "engine.fsim"; "engine.testbench";
  ]

let steps = [ "scan"; "baseline"; "debug_control"; "debug_observe"; "memory" ]

let preps =
  [
    "fault_universe"; "fault_collapsing"; "tied_netlist"; "shared_ternary_fixpoint";
    "mission_observability"; "mission_netlist"; "verdict_accounting";
  ]

let ops =
  [
    ("invar/tcore16", "op.invar_t16"); ("invar/tcore32", "op.invar_t32");
    ("safety/tcore16", "op.safety_t16"); ("safety/tcore32", "op.safety_t32");
    ("slice/tcore16", "op.slice_t16"); ("slice/tcore32", "op.slice_t32");
    ("coverage/tcore16", "op.coverage_t16");
  ]

let alloc_layers =
  [
    "soc.generate"; "verilog.elaborate"; "core.mission"; "netlist.digest";
    "session.add"; "core.flow"; "service.residue"; "service.hit";
    "wire.response_encode"; "wire.response_decode";
  ]

let counters =
  [ "classify.examined"; "classify.faults"; "pool.items"; "invar.proved"; "seu.checked"; "fsim.fault_evals" ]

let write_table path ~workload ~wall ~rows ~(b : bench) =
  let buf = Buffer.create 2048 in
  let pf fmt = Printf.bprintf buf fmt in
  pf "%s: per-layer self time over %.3f s of traced wall\n" workload wall;
  pf "  %-28s %10s %7s %8s %10s\n" "layer" "self s" "share" "calls" "alloc MB";
  List.iter
    (fun r ->
      pf "  %-28s %10.4f %6.2f%% %8d %10s\n" r.layer r.self (100. *. r.self /. wall) r.calls
        (match Hashtbl.find_opt b.alloc r.layer with
        | Some a -> Printf.sprintf "%.1f" (a /. 1048576.)
        | None -> "-"))
    rows;
  Out_channel.with_open_bin path (fun oc -> Buffer.output_buffer oc buf);
  print_string (Buffer.contents buf)

(* Trace one workload: an untraced pass [a] as the workload measures
   itself, for daemon workloads an untraced in-process replay [b] of
   what [a] executed, and the traced replay [c] of the same requests.
   Tracing overhead is [c] against the untraced pass with the same
   work; transport is the daemon's round trip less the in-process
   replay of the same requests. *)
let trace (spec : W.spec) (ctx : W.ctx) ~out_dir =
  let passes = if spec.W.wire then 3. else 2. in
  let a = spec.W.measure { ctx with W.seconds = ctx.W.seconds /. passes; setup_reps = 1 } in
  let untraced =
    if spec.W.wire then Some (replay ~sink:Trace.null spec ~check:a.W.check a.W.executed)
    else None
  in
  let sink = Trace.create () in
  let c = replay ~sink spec ~check:a.W.check a.W.executed in
  Olfu_obs.Export.to_file sink (Filename.concat out_dir (spec.W.name ^ ".trace.json"));
  let wall, rows = self_times (Trace.spans sink) in
  write_table
    (Filename.concat out_dir (spec.W.name ^ ".layers.txt"))
    ~workload:spec.W.name ~wall ~rows ~b:c.bench;
  let self k = List.fold_left (fun acc r -> if r.layer = k then acc +. r.self else acc) 0. rows in
  let pct x = 100. *. x /. wall in
  let find tbl k = Option.value ~default:0. (Hashtbl.find_opt tbl k) in
  let detail k = Option.value ~default:0 (Option.bind (List.assoc_opt k a.W.detail) J.to_int_opt) in
  let hits = detail "session_hits" and misses = detail "session_misses" in
  let overhead =
    100. *. ((c.wall /. match untraced with Some u -> u.wall | None -> a.W.wall) -. 1.)
  in
  let transport =
    match untraced with
    | Some u ->
      let rpc = Stats.median a.W.lat in
      100. *. (rpc -. Stats.median u.durs) /. rpc
    | None -> 0.
  in
  let metrics =
    List.map (fun l -> (l ^ "_pct", "%", pct (self l))) share_layers
    @ [ ("bench.unattributed_pct", "%", pct (self "unattributed")) ]
    @ List.map (fun s -> ("core.step." ^ s ^ "_pct", "%", pct (find c.bench.steps s))) steps
    @ List.map (fun p -> ("core.prep." ^ p ^ "_pct", "%", pct (find c.bench.prep p))) preps
    @ List.map (fun (l, m) -> (m ^ "_pct", "%", pct (find c.by_label l))) ops
    @ [
        ("bench.traced_wall_s", "s", wall);
        ("obs.trace_overhead_pct", "%", overhead);
        ("wire.transport_pct", "%", transport);
        ("wire.response_bytes", "B", Stats.median c.bytes);
        ("session.hit_ratio", "fraction", float_of_int hits /. float_of_int (max 1 (hits + misses)));
        ("session.evictions", "count", float_of_int (detail "session_evictions"));
        ("session.bytes", "MB", float_of_int (detail "session_bytes") /. 1048576.);
        ( "pool.utilization",
          "fraction",
          Option.value ~default:0. (List.assoc_opt "pool.last_utilization" (Trace.gauges sink)) );
      ]
    @ List.map
        (fun k ->
          (k, "count", float_of_int (Option.value ~default:0 (List.assoc_opt k (Trace.counters sink)))))
        counters
    @ List.map (fun l -> ("gc." ^ l ^ "_mb", "MB", find c.bench.alloc l /. 1048576.)) alloc_layers
  in
  let tally =
    List.fold_left W.merge a.W.tally
      (c.tally :: (match untraced with Some u -> [ u.tally ] | None -> []))
  in
  Printf.printf "%s: layers cover %.1f%% of traced wall; tracing overhead %.1f%%\n"
    spec.W.name
    (100. -. pct (self "unattributed"))
    overhead;
  (metrics, tally, a.W.detail)

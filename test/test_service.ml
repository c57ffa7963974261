(* Service layer: request/response wire round-trips, malformed-input
   robustness, session cache identity and LRU eviction, jobs-invariance
   of concurrent sessions, and the daemon protocol over a real Unix
   socket. *)

module S = Olfu_service
module Req = S.Request
module Resp = S.Response
module J = Olfu_obs.Json

(* --- generators --- *)

let gen_target =
  QCheck.Gen.oneof
    [
      QCheck.Gen.oneofl
        [ Req.Config "tcore32"; Req.Config "tcore16"; Req.Config "x" ];
      QCheck.Gen.map (fun s -> Req.File s) (QCheck.Gen.oneofl
        [ "nl.v"; "/tmp/some netlist.v"; "a\"b\\c.v" ]);
    ]

let gen_fmt = QCheck.Gen.oneofl [ Req.Text; Req.Json; Req.Summary ]

let gen_ff_mode =
  QCheck.Gen.oneofl
    Olfu_atpg.Ternary.[ Cut; Reset_join; Steady_state ]

let gen_fail_on =
  QCheck.Gen.oneofl
    [
      Req.Never;
      Req.Fail_on Olfu_lint.Rule.Error;
      Req.Fail_on Olfu_lint.Rule.Warning;
      Req.Fail_on Olfu_lint.Rule.Info;
    ]

let gen_op =
  let open QCheck.Gen in
  let small = int_bound 64 in
  oneof
    [
      map (fun paper -> Req.Analyze { paper }) bool;
      (let* waivers = opt (oneofl [ "w.json"; "dir/w.json" ]) in
       let* baseline = opt (oneofl [ "b.txt"; "base line.txt" ]) in
       let* disabled = list_size (int_bound 3) (oneofl [ "STR001"; "CONF2" ]) in
       let* software = bool in
       let* invariants = bool in
       let* fail_on = gen_fail_on in
       return
         (Req.Lint { waivers; baseline; disabled; software; invariants; fail_on }));
      (let* learn_depth = small in
       let* learn_budget = int_bound 1_000_000 in
       let* invariants = bool in
       return (Req.Implic { learn_depth; learn_budget; invariants }));
      (let* programs = list_size (int_bound 3) (oneofl [ "memcpy"; "crc" ]) in
       let* asm = opt (oneofl [ "p.asm" ]) in
       return (Req.Absint { programs; asm }));
      (let* k = int_range 1 64 in
       let* no_prove = bool in
       return (Req.Invar { k; no_prove }));
      (let* window = int_range 1 64 in
       let* seu_limit = small in
       return (Req.Safety { window; seu_limit }));
      map (fun dot -> Req.Slice { dot }) bool;
      map (fun sample -> Req.Coverage { sample }) small;
    ]

let gen_request =
  let open QCheck.Gen in
  let* id = int_bound 10_000 in
  let* body =
    oneof
      [
        return Req.Ping;
        return Req.Stats;
        return Req.Shutdown;
        (let* target = gen_target in
         let* ff_mode = gen_ff_mode in
         let* jobs = int_range 1 8 in
         let* implic = bool in
         let* fmt = gen_fmt in
         let* op = gen_op in
         return (Req.Run { target; ff_mode; jobs; implic; fmt; op }));
      ]
  in
  return { Req.id; body }

let arb_request = QCheck.make ~print:Req.to_line gen_request

(* Response seconds use exact binary fractions so the float survives the
   decimal wire format bit-for-bit. *)
let gen_response =
  let open QCheck.Gen in
  let* id = int_bound 10_000 in
  let* status = oneofl [ Resp.Success; Resp.Findings; Resp.Bad_input ] in
  let* cache_hit = bool in
  let* sixteenths = int_bound 64 in
  let* output = oneofl [ ""; "pong\n"; "{\n  \"a\": 1\n}\n"; "x \"y\"\n\tz" ] in
  let* error = opt (oneofl [ "unknown config"; "bad \"quoted\" name" ]) in
  return
    (Resp.make ~cache_hit
       ~seconds:(float_of_int sixteenths /. 16.)
       ?error ~id ~status output)

let arb_response = QCheck.make ~print:Resp.to_line gen_response

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~count:500 ~name:"request wire round-trip" arb_request
        (fun req ->
          match Req.of_string (Req.to_line req) with
          | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e
          | Ok req' -> Req.to_line req' = Req.to_line req);
      QCheck.Test.make ~count:500 ~name:"response wire round-trip"
        arb_response (fun resp ->
          match Resp.of_string (Resp.to_line resp) with
          | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e
          | Ok resp' -> resp' = resp);
      QCheck.Test.make ~count:200 ~name:"streamed response line = to_line"
        arb_response (fun resp ->
          let path = Filename.temp_file "olfu_resp" ".line" in
          Fun.protect
            ~finally:(fun () -> Sys.remove path)
            (fun () ->
              Out_channel.with_open_bin path (fun oc -> Resp.output_line oc resp);
              In_channel.with_open_bin path In_channel.input_all
              = Resp.to_line resp ^ "\n"));
      QCheck.Test.make ~count:500 ~name:"fingerprint ignores jobs and fmt"
        arb_request (fun req ->
          match req.Req.body with
          | Req.Run r ->
            Req.fingerprint { r with jobs = r.jobs + 3; fmt = Req.Text }
            = Req.fingerprint r
          | _ -> QCheck.assume_fail ());
    ]

(* --- malformed input: always Error, never an exception --- *)

let malformed_lines =
  [
    "";
    "not json";
    "[1,2,3]";
    "{}";
    "{\"op\": \"frobnicate\"}";
    "{\"op\": 7}";
    "{\"op\": \"analyze\", \"target\": {\"planet\": \"mars\"}}";
    "{\"op\": \"analyze\", \"ff_mode\": \"sideways\"}";
    "{\"op\": \"analyze\", \"format\": \"xml\"}";
    "{\"op\": \"analyze\", \"id\": \"twelve\"}";
    "{\"op\": \"analyze\"";
    "{\"op\": \"lint\", \"params\": {\"fail_on\": \"fatal\"}}";
    "{\"op\": \"invar\", \"params\": {\"k\": 0}}";
    "{\"op\": \"safety\", \"params\": {\"window\": -1}}";
  ]

let test_malformed_decode () =
  List.iter
    (fun line ->
      match Req.of_string line with
      | Error _ -> ()
      | Ok req ->
        Alcotest.failf "accepted malformed %S as %s" line (Req.to_line req))
    malformed_lines

let test_tolerant_decode () =
  (* only "op" is required; everything else defaults like the CLI *)
  match Req.of_string "{\"op\": \"analyze\", \"wholly_unknown\": true}" with
  | Error e -> Alcotest.failf "minimal request rejected: %s" e
  | Ok { Req.body = Req.Run r; _ } ->
    let d = Req.default_run in
    Alcotest.(check string)
      "defaults" (Req.fingerprint d) (Req.fingerprint r);
    Alcotest.(check int) "jobs" d.Req.jobs r.Req.jobs
  | Ok _ -> Alcotest.fail "decoded to a non-run body"

(* --- execute: structured failures, cache identity --- *)

let run_req ?(id = 1) ?(fmt = Req.Json) ?(target = Req.Config "tcore16") op =
  Req.run ~id ~fmt target op

let exec session req = fst (S.Service.execute session req)

(* A netlist whose [scan_en] is a wire, not an input: tying it for the
   on-line machine raises inside the engine. *)
let scan_en_wire_v =
  {|module scanwire (a, b, o);
  input a; input b; output o; wire scan_en;
  AND2 u1 (.Y(scan_en), .A(a), .B(b));
  BUF u2 (.Y(o), .A(scan_en));
endmodule
|}

let with_verilog text f =
  let path = Filename.temp_file "olfu_svc" ".v" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      f path)

let error_of (resp : Resp.t) = Option.value ~default:"" resp.Resp.error

let contains s sub =
  let ls = String.length s and lb = String.length sub in
  let rec go i = i + lb <= ls && (String.sub s i lb = sub || go (i + 1)) in
  go 0

let test_bad_requests_are_responses () =
  with_verilog scan_en_wire_v @@ fun scan_en_wire ->
  let session = S.Session.create () in
  let cases =
    [
      ("unknown config", run_req ~target:(Req.Config "nope") (Req.Analyze { paper = false }));
      ("missing file", run_req ~target:(Req.File "/nonexistent/x.v") (Req.Analyze { paper = false }));
      ("absint on file", run_req ~target:(Req.File "/nonexistent/x.v") (Req.Absint { programs = []; asm = None }));
      ("unknown program", run_req (Req.Absint { programs = [ "no_such_prog" ]; asm = None }));
      ("missing waivers", run_req (Req.Lint { waivers = Some "/nonexistent/w.json"; baseline = None; disabled = []; software = false; invariants = false; fail_on = Req.Never }));
      (* the engine raises Invalid_argument: answered, not raised *)
      ( "invar on a wire scan_en",
        run_req ~target:(Req.File scan_en_wire)
          (Req.Invar { k = 1; no_prove = false }) );
      (* vacuous depths: rejected before any engine runs *)
      ("invar k = 0", run_req (Req.Invar { k = 0; no_prove = false }));
      ("invar k = -1", run_req (Req.Invar { k = -1; no_prove = true }));
      ("safety window = 0", run_req (Req.Safety { window = 0; seu_limit = 8 }));
    ]
  in
  let resps = List.map (fun (what, req) -> (what, exec session req)) cases in
  List.iter
    (fun (what, resp) ->
      Alcotest.(check bool)
        (what ^ ": bad input") true
        (resp.Resp.status = Resp.Bad_input);
      Alcotest.(check bool)
        (what ^ ": has diagnostic") true
        (resp.Resp.error <> None))
    resps;
  let err what = error_of (List.assoc what resps) in
  Alcotest.(check bool) "engine exception is an internal error" true
    (String.starts_with ~prefix:"internal error: "
       (err "invar on a wire scan_en"));
  List.iter
    (fun (what, field) ->
      Alcotest.(check bool) (what ^ ": names the field") true
        (contains (err what) (Printf.sprintf "field %S" field));
      Alcotest.(check bool) (what ^ ": not an internal error") false
        (String.starts_with ~prefix:"internal error" (err what)))
    [ ("invar k = 0", "k"); ("invar k = -1", "k"); ("safety window = 0", "window") ]

(* Two flops that load the same input from the same reset are always
   equal, so [y = q1 & ~q2] is always 0: no structural or conflict
   verdict sees it, the invariant-assumed database does. *)
let equal_flops_v =
  {|module ui (x, rstn, z, o);
  input x; input rstn; input z; output o;
  wire q1; wire q2; wire nq2; wire y; wire w;
  DFFR f1 (.Q(q1), .D(x), .RN(rstn));
  DFFR f2 (.Q(q2), .D(x), .RN(rstn));
  NOT u1 (.Y(nq2), .A(q2));
  AND2 u2 (.Y(y), .A(q1), .B(nq2));
  OR2 u3 (.Y(w), .A(y), .B(z));
  BUF u4 (.Y(o), .A(w));
endmodule
|}

(* The UI row is a second pass over the faults the base classification
   left open, and the stuck-at rows and the transition count are read
   before it. *)
let test_implic_invariant_row () =
  with_verilog equal_flops_v @@ fun path ->
  let resp =
    exec (S.Session.create ())
      (run_req ~target:(Req.File path)
         (Req.Implic { learn_depth = 2; learn_budget = 200_000; invariants = true }))
  in
  List.iter
    (fun field ->
      Alcotest.(check bool) field true (contains resp.Resp.output field))
    [
      {|"untestable": 0,|}; {|"UT": 0,|}; {|"UB": 0,|}; {|"UC": 0,|};
      {|"UI": 7|}; {|"tdf_universe": 44,|}; {|"tdf_untestable": 0,|};
    ]

(* implic hands its sink to every engine it runs, and recording leaves
   the answer unchanged *)
let test_implic_engines () =
  with_verilog equal_flops_v @@ fun path ->
  let req =
    run_req ~target:(Req.File path)
      (Req.Implic { learn_depth = 2; learn_budget = 200_000; invariants = true })
  in
  let sink = Olfu_obs.Trace.create () in
  let recorded, _ = S.Service.execute (S.Session.create ()) ~sink req in
  Alcotest.(check (list string))
    "engines"
    [ "classify"; "graph"; "implic"; "invar"; "observe"; "ternary" ]
    (List.map fst (Olfu_obs.Trace.engine_seconds sink));
  let counters = Olfu_obs.Trace.counters sink in
  List.iter
    (fun c -> Alcotest.(check bool) c true (List.mem_assoc c counters))
    [ "classify.faults"; "classify.classified"; "invar.proved" ];
  Alcotest.(check string)
    "same answer as unrecorded"
    (exec (S.Session.create ()) req).Resp.output recorded.Resp.output

(* The one resolution of a target the CLI's own subcommands share *)
let test_resolve () =
  let err target =
    match S.Service.resolve target with Error m -> m | Ok _ -> ""
  in
  let names_file name path m =
    Alcotest.(check bool) (name ^ " names the file") true (contains m path);
    Alcotest.(check bool) (name ^ " hides the exception") false
      (contains m "Olfu_verilog.")
  in
  with_verilog "module bad (a, o);\n  input a; output o;\n  FOO u1 (.Y(o), .A(a));\nendmodule\n"
  @@ fun bad ->
  let m = err (Req.File bad) in
  Alcotest.(check bool) "unknown cell" true (contains m "FOO");
  names_file "unknown cell" bad m;
  with_verilog "module bad (a, o)\n  input a; output o;\nendmodule\n"
  @@ fun unparsable ->
  let m = err (Req.File unparsable) in
  Alcotest.(check bool) "parse error line" true
    (contains m (unparsable ^ ":2: "));
  names_file "parse error" unparsable m;
  Alcotest.(check bool) "unknown config" true
    (contains (err (Req.Config "nope")) "unknown config");
  with_verilog equal_flops_v @@ fun good ->
  match S.Service.resolve (Req.File good) with
  | Ok (nl, _, cfg) ->
    Alcotest.(check int) "netlist" 10 (Olfu_netlist.Netlist.length nl);
    Alcotest.(check bool) "no configuration" true (cfg = None)
  | Error m -> Alcotest.fail m

(* The INV-* lint path: invariants proved on the machine with the debug
   controls and the scan interface tied to 0. *)
let test_lint_invariants () =
  let session = S.Session.create () in
  let resp =
    exec session
      (run_req ~fmt:Req.Text
         (Req.Lint
            {
              waivers = None;
              baseline = None;
              disabled = [];
              software = false;
              invariants = true;
              fail_on = Req.Fail_on Olfu_lint.Rule.Error;
            }))
  in
  Alcotest.(check bool) "no error finding" true
    (resp.Resp.status = Resp.Success);
  let lines = String.split_on_char '\n' resp.Resp.output in
  Alcotest.(check bool) "9 findings" true
    (List.mem "9 findings (0 errors, 0 warnings, 9 info)" lines);
  let inv = List.filter (fun l -> contains l "INV-001") lines in
  Alcotest.(check int) "three INV-001 findings" 3 (List.length inv);
  List.iter
    (fun frag ->
      Alcotest.(check bool) frag true (List.exists (fun l -> contains l frag) inv))
    [
      "2-bit register at dbg/tap[0] reaches 1 of 4 codes";
      "16-bit register at dbg/dr[0] reaches 1 of 65536 codes";
      "2-bit register at st[0] reaches 3 of 4 codes";
    ]

(* invar's text reports its own wall time, the one line two runs of the
   same request may differ in *)
let mask_clock s =
  String.split_on_char '\n' s
  |> List.map (fun l ->
         if String.starts_with ~prefix:"mine+filter+prove time: " l then
           "mine+filter+prove time: *"
         else l)
  |> String.concat "\n"

let test_cache_hit_identity () =
  let session = S.Session.create () in
  let invar = Req.Invar { k = 1; no_prove = false } in
  let slice = Req.Slice { dot = false } in
  let ops =
    [
      ("analyze", Req.Analyze { paper = false });
      ("invar", invar);
      ("slice", slice);
      ("coverage", Req.Coverage { sample = 50 });
    ]
  in
  let hits () = (S.Session.stats session).S.Session.hits in
  List.iter
    (fun (what, op) ->
      let before = hits () in
      let cold = exec session (run_req op) in
      (* after analyze, invar and slice find the netlist and read the
         mission netlist of analyze's cached flow *)
      if op = invar || op = slice then
        Alcotest.(check int) (what ^ ": reads the cached flow") 2
          (hits () - before);
      let warm = exec session (run_req ~id:2 op) in
      Alcotest.(check bool) (what ^ ": cold is a miss") false
        cold.Resp.cache_hit;
      Alcotest.(check bool) (what ^ ": warm is a hit") true
        warm.Resp.cache_hit;
      Alcotest.(check string) (what ^ ": byte-identical json")
        cold.Resp.output warm.Resp.output;
      Alcotest.(check bool) (what ^ ": json ends in one newline") true
        (String.ends_with ~suffix:"}\n" cold.Resp.output
        && not (String.ends_with ~suffix:"\n\n" cold.Resp.output));
      (* a different rendering of the same outcome is also a hit *)
      let text = exec session (run_req ~id:3 ~fmt:Req.Text op) in
      Alcotest.(check bool) (what ^ ": other format hits") true
        text.Resp.cache_hit)
    ops;
  let st = S.Session.stats session in
  Alcotest.(check bool) "no eviction under default budget" true
    (st.S.Session.evictions = 0);
  (* a fresh session has no flow, so invar and slice build the mission
     netlist alone: the same bytes in every format *)
  List.iter
    (fun (what, op) ->
      List.iter
        (fun (name, fmt) ->
          let fresh = S.Session.create () in
          let direct = exec fresh (run_req ~fmt op) in
          let cached = exec session (run_req ~fmt op) in
          Alcotest.(check string)
            (what ^ " " ^ name ^ ": built alone = read from the flow")
            (mask_clock cached.Resp.output)
            (mask_clock direct.Resp.output);
          (* the netlist and the outcome, and no flow *)
          Alcotest.(check int) (what ^ " " ^ name ^ ": fresh session entries")
            2 (S.Session.stats fresh).S.Session.entries)
        [ ("json", Req.Json); ("text", Req.Text); ("summary", Req.Summary) ])
    [ ("invar", invar); ("slice", slice) ]

let test_stats_and_ping () =
  let session = S.Session.create () in
  let ping = exec session { Req.id = 9; body = Req.Ping } in
  Alcotest.(check string) "pong" "pong\n" ping.Resp.output;
  Alcotest.(check int) "id echoed" 9 ping.Resp.id;
  ignore (exec session (run_req (Req.Analyze { paper = false })));
  let stats = exec session { Req.id = 10; body = Req.Stats } in
  match J.parse stats.Resp.output with
  | Error e -> Alcotest.failf "stats not json: %s" e
  | Ok j ->
    Alcotest.(check bool) "entries > 0" true
      (match Option.bind (J.member "entries" j) J.to_int_opt with
      | Some n -> n > 0
      | None -> false)

(* --- LRU eviction --- *)

let test_lru_eviction () =
  (* Budget far below one loaded netlist: every insert evicts the
     previous entries, the just-added survivor stays usable. *)
  let session = S.Session.create ~byte_budget:(64 * 1024) () in
  let r1 = exec session (run_req (Req.Slice { dot = false })) in
  let r2 = exec session (run_req ~id:2 (Req.Analyze { paper = false })) in
  Alcotest.(check bool) "both succeed" true
    (r1.Resp.status = Resp.Success && r2.Resp.status = Resp.Success);
  let st = S.Session.stats session in
  Alcotest.(check bool) "evictions happened" true (st.S.Session.evictions > 0);
  Alcotest.(check bool) "at most one entry survives" true
    (st.S.Session.entries <= 1);
  (* correctness is unaffected: re-running evicted work matches *)
  let r1' = exec session (run_req ~id:3 (Req.Slice { dot = false })) in
  Alcotest.(check string) "evicted rerun identical" r1.Resp.output
    r1'.Resp.output

let test_direct_lru_order () =
  let session = S.Session.create ~byte_budget:1 () in
  let v s = S.Session.Outcome
      { json = s; text = s; summary = s; status = Resp.Success; aux = [] }
  in
  S.Session.add session "a" (v "a");
  S.Session.add session "b" (v "b");
  (* budget 1 byte: adding b evicts a (never the entry just added) *)
  Alcotest.(check bool) "a evicted" true (S.Session.find session "a" = None);
  Alcotest.(check bool) "b resident" true (S.Session.find session "b" <> None)

(* --- concurrent sessions: jobs-invariance across domain pools --- *)

let test_concurrent_jobs_invariant () =
  (* Two daemon-style requests overlapping in time with different --jobs
     must produce identical bytes: the pool registry hands each its own
     domain pool and no flow result depends on worker count. *)
  let run jobs =
    Domain.spawn (fun () ->
        let session = S.Session.create () in
        let resp =
          exec session
            (Req.run ~fmt:Req.Json ~jobs (Req.Config "tcore16")
               (Req.Analyze { paper = false }))
        in
        (resp.Resp.status, resp.Resp.output))
  in
  let d1 = run 1 and d4 = run 4 in
  let s1, o1 = Domain.join d1 and s4, o4 = Domain.join d4 in
  Alcotest.(check bool) "both succeed" true
    (s1 = Resp.Success && s4 = Resp.Success);
  Alcotest.(check string) "jobs=1 and jobs=4 byte-identical" o1 o4

(* --- the daemon over a real socket --- *)

let short_tmp_socket () =
  (* Unix socket paths are capped (~108 bytes); keep it short. *)
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "olfu-t%d.sock" (Unix.getpid ()))

let test_daemon_protocol () =
  let socket = short_tmp_socket () in
  let server =
    Domain.spawn (fun () ->
        S.Server.serve
          { (S.Server.default ~socket) with workers = 2 })
  in
  let conn =
    match S.Client.connect ~wait_seconds:10. socket with
    | Ok c -> c
    | Error e -> Alcotest.failf "connect: %s" e
  in
  Fun.protect
    ~finally:(fun () -> S.Client.close conn)
    (fun () ->
      (match S.Client.rpc conn { Req.id = 1; body = Req.Ping } with
      | Ok r -> Alcotest.(check string) "ping" "pong\n" r.Resp.output
      | Error e -> Alcotest.failf "ping: %s" e);
      (* malformed line: structured error, connection survives *)
      (match S.Client.rpc_line conn "}{ not json" with
      | Ok line -> (
        match Resp.of_string line with
        | Ok r ->
          Alcotest.(check bool) "malformed -> bad input" true
            (r.Resp.status = Resp.Bad_input)
        | Error e -> Alcotest.failf "unparseable error reply: %s" e)
      | Error e -> Alcotest.failf "malformed rpc: %s" e);
      (* an engine exception: an internal-error answer, then the same
         connection still answers *)
      (match
         with_verilog scan_en_wire_v (fun path ->
             S.Client.rpc_line conn
               (Req.to_line
                  (run_req ~target:(Req.File path)
                     (Req.Invar { k = 1; no_prove = false }))))
       with
      | Ok line -> (
        match Resp.of_string line with
        | Ok r ->
          Alcotest.(check bool) "engine exception -> bad input" true
            (r.Resp.status = Resp.Bad_input);
          Alcotest.(check bool) "internal error diagnostic" true
            (match r.Resp.error with
            | Some m -> String.starts_with ~prefix:"internal error: " m
            | None -> false)
        | Error e -> Alcotest.failf "unparseable error reply: %s" e)
      | Error e -> Alcotest.failf "engine exception rpc: %s" e);
      (match S.Client.rpc conn { Req.id = 3; body = Req.Ping } with
      | Ok r -> Alcotest.(check string) "ping after it" "pong\n" r.Resp.output
      | Error e -> Alcotest.failf "ping after engine exception: %s" e);
      let req = run_req (Req.Analyze { paper = false }) in
      let cold =
        match S.Client.rpc conn req with
        | Ok r -> r
        | Error e -> Alcotest.failf "cold analyze: %s" e
      in
      let warm =
        match S.Client.rpc conn { req with Req.id = 2 } with
        | Ok r -> r
        | Error e -> Alcotest.failf "warm analyze: %s" e
      in
      Alcotest.(check bool) "warm is a cache hit" true warm.Resp.cache_hit;
      Alcotest.(check string) "cold/warm identical" cold.Resp.output
        warm.Resp.output;
      (* daemon bytes = local bytes for the same request *)
      let local = exec (S.Session.create ()) req in
      Alcotest.(check string) "daemon = one-shot" local.Resp.output
        cold.Resp.output);
  (match
     S.Client.request ~wait_seconds:1. ~socket
       { Req.id = 99; body = Req.Shutdown }
   with
  | Ok r -> Alcotest.(check string) "bye" "bye\n" r.Resp.output
  | Error e -> Alcotest.failf "shutdown: %s" e);
  Domain.join server;
  Alcotest.(check bool) "socket removed" false (Sys.file_exists socket)

let () =
  Alcotest.run "service"
    [
      ("wire", qcheck_tests);
      ( "decode",
        [
          Alcotest.test_case "malformed lines rejected" `Quick
            test_malformed_decode;
          Alcotest.test_case "tolerant defaults" `Quick test_tolerant_decode;
        ] );
      ( "execute",
        [
          Alcotest.test_case "bad requests are responses" `Quick
            test_bad_requests_are_responses;
          Alcotest.test_case "lint with invariants" `Quick
            test_lint_invariants;
          Alcotest.test_case "implic invariant row" `Quick
            test_implic_invariant_row;
          Alcotest.test_case "implic engines recorded" `Quick
            test_implic_engines;
          Alcotest.test_case "resolve" `Quick test_resolve;
          Alcotest.test_case "cache hit identity" `Quick
            test_cache_hit_identity;
          Alcotest.test_case "stats and ping" `Quick test_stats_and_ping;
        ] );
      ( "cache",
        [
          Alcotest.test_case "lru eviction under budget" `Quick
            test_lru_eviction;
          Alcotest.test_case "lru order" `Quick test_direct_lru_order;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "jobs-invariant overlapping sessions" `Quick
            test_concurrent_jobs_invariant;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "socket protocol" `Quick test_daemon_protocol;
        ] );
    ]

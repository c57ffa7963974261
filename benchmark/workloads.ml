(* The four workloads and their untraced measurement.

   Every workload is a closed loop: each caller sends its next request
   only after the previous reply.  Requests come in rounds, each round a
   fixed multiset in an order drawn from the seed; a run executes whole
   rounds for as long as the next one is predicted to fit in the run
   time (at least one; two passes for daemon_churn).  The seed therefore
   changes the order of the work, never its amount. *)

module S = Olfu_service
module Req = S.Request
module Resp = S.Response
module J = Olfu_obs.Json
module Ternary = Olfu_atpg.Ternary

let jobs = 2
let now = Unix.gettimeofday

type item = { label : string; op : string; req : Req.t }

let item ?(fmt = Req.Json) ?(ff_mode = Ternary.Steady_state) ?(implic = true)
    label target op =
  { label; op = Req.op_name op; req = Req.run ~fmt ~jobs ~ff_mode ~implic target op }

let analyze = Req.Analyze { paper = false }

let lint =
  Req.Lint
    {
      waivers = None;
      baseline = None;
      disabled = [];
      software = false;
      invariants = false;
      fail_on = Req.Fail_on Olfu_lint.Rule.Error;
    }

let implic = Req.Implic { learn_depth = 2; learn_budget = 200_000; invariants = false }
let absint = Req.Absint { programs = []; asm = None }

type ctx = {
  seed : int;
  seconds : float;
  dir : string;  (** scratch directory of this run: sockets, Verilog *)
  cache : string;  (** directory of the cached references *)
  pins : Expect.t;
  setup_reps : int;
}

(* -- failure accounting ------------------------------------------------ *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (** the first few, for the log *)
}

let tally () = { attempted = 0; failed = 0; errors = [] }

let record t r =
  t.attempted <- t.attempted + 1;
  match r with
  | Ok () -> ()
  | Error e ->
    t.failed <- t.failed + 1;
    if List.length t.errors < 5 then t.errors <- e :: t.errors

let merge a b =
  {
    attempted = a.attempted + b.attempted;
    failed = a.failed + b.failed;
    errors = a.errors @ b.errors;
  }

let status_ok it (r : Resp.t) =
  match r.Resp.status with
  | Resp.Success -> Ok ()
  | s ->
    Error
      (Printf.sprintf "%s: status %d %s" it.label (Resp.exit_code s)
         (Option.value ~default:"" r.Resp.error))

(* In-process workloads: success, and every pinned fact. *)
let check_pins pins it r =
  Result.bind (status_ok it r) (fun () ->
      Expect.check pins ~label:it.label ~op:it.op r.Resp.output)

(* The text rendering of analyze reports its own wall time ("analysis
   time: 0.398 s"), the one rendering field that differs between two
   computations of the same outcome; that line is masked before
   comparing. *)
let mask_clock s =
  String.split_on_char '\n' s
  |> List.map (fun l ->
         if String.starts_with ~prefix:"analysis time: " l then "analysis time: *" else l)
  |> String.concat "\n"

(* Daemon workloads: the bytes and status of the in-process reference. *)
let check_ref refs it (r : Resp.t) =
  match List.assoc_opt it.label refs with
  | Some (ref_ : Resp.t)
    when ref_.Resp.status = r.Resp.status
         && (ref_.Resp.output = r.Resp.output
            || mask_clock ref_.Resp.output = mask_clock r.Resp.output) ->
    Ok ()
  | Some _ -> Error (it.label ^ ": response differs from the in-process reference")
  | None -> Error (it.label ^ ": no reference")

(* -- rounds ------------------------------------------------------------ *)

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Run [f 0], [f 1], ... while [f] returns [true] and either fewer than
   [min] rounds ran or one more round of the mean length so far fits in
   [seconds]; returns the wall time. *)
let rounds ?(min = 1) ~seconds f =
  let t0 = now () in
  let rec go i =
    let continue = f i in
    let el = now () -. t0 in
    if continue && (i + 1 < min || el +. (el /. float_of_int (i + 1)) <= seconds) then go (i + 1)
  in
  go 0;
  now () -. t0

(* -- outcome of one measured run ---------------------------------------- *)

type outcome = {
  lat : float list;  (** seconds per timed request *)
  wall : float;  (** the timed phase *)
  cpu : float;  (** CPU seconds of the process doing the work, timed phase *)
  rss_mb : float;  (** its VmHWM at workload end *)
  setup : float list;  (** seconds, one per set-up repetition *)
  tally : tally;
  detail : (string * J.t) list;
  executed : item list list;
      (** everything the system executed, in order: one list per daemon,
          a single list in-process *)
  check : item -> Resp.t -> (unit, string) result;
}

let session_detail ~hits ~misses ~evictions ~bytes =
  [
    ("session_hits", J.Int hits);
    ("session_misses", J.Int misses);
    ("session_evictions", J.Int evictions);
    ("session_bytes", J.Int bytes);
  ]

(* -- in-process workloads ----------------------------------------------- *)

(* An in-process workload has no set-up of its own: what a one-shot user
   pays before [Service.execute] runs is the start of the olfu binary,
   so that is its set-up time (exec to exit on a trivial command).  One
   start takes milliseconds, so it is repeated 21 times for a steady
   median. *)
let cli_startup () =
  let exe = Daemon.cli () in
  List.init 21 (fun _ ->
      let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
      let t0 = now () in
      let pid = Unix.create_process exe [| exe; "lint"; "--rules" |] null null null in
      let _, st = Unix.waitpid [] pid in
      let dt = now () -. t0 in
      Unix.close null;
      if st <> Unix.WEXITED 0 then failwith "olfu lint --rules failed";
      dt)

(* Median seconds per request label, for the results' detail. *)
let per_label lat executed =
  let tbl = Hashtbl.create 8 in
  List.iter2
    (fun it l ->
      Hashtbl.replace tbl it.label (l :: Option.value ~default:[] (Hashtbl.find_opt tbl it.label)))
    executed lat;
  List.sort compare (Hashtbl.fold (fun k ls acc -> (k, J.Float (Stats.median ls)) :: acc) tbl [])

let analyze_on c = item ("analyze/" ^ c) (Req.Config c) analyze

let in_process ctx ~round =
  let setup = cli_startup () in
  let t = tally () in
  let lat = ref [] and executed = ref [] in
  let hits = ref 0 and misses = ref 0 and bytes = ref 0 in
  let check = check_pins ctx.pins in
  (* one checked request before timing: the first request of a process
     starts the pool's domains and grows the heap; over twenty runs of
     analyze_cold it ran on average a tenth and at most a third longer
     than the run's median, one of the few samples beyond its p75 *)
  let warmup = analyze_on "tcore32" in
  record t (check warmup (fst (S.Service.execute (S.Session.create ()) warmup.req)));
  (* every request starts on a collected heap, as a one-shot process
     does, so its time does not depend on the garbage of the request
     before it (the seed's order); the collection is bench housekeeping
     and is left out of wall and CPU *)
  let paused = ref 0. and paused_cpu = ref 0. in
  let c0 = Host.self_cpu_seconds () in
  let wall =
    rounds ~seconds:ctx.seconds (fun i ->
        List.iter
          (fun it ->
            let g0 = now () and gc0 = Host.self_cpu_seconds () in
            Gc.full_major ();
            paused := !paused +. (now () -. g0);
            paused_cpu := !paused_cpu +. (Host.self_cpu_seconds () -. gc0);
            (* a fresh session per request: the one-shot CLI path *)
            let session = S.Session.create () in
            let t0 = now () in
            let resp, _ = S.Service.execute session it.req in
            lat := (now () -. t0) :: !lat;
            executed := it :: !executed;
            let st = S.Session.stats session in
            hits := !hits + st.S.Session.hits;
            misses := !misses + st.S.Session.misses;
            bytes := max !bytes st.S.Session.bytes;
            record t (check it resp))
          (round i);
        true)
  in
  let cpu = Host.self_cpu_seconds () -. c0 -. !paused_cpu in
  let lat = List.rev !lat and executed = List.rev !executed in
  {
    lat;
    wall = wall -. !paused;
    cpu;
    rss_mb = Host.peak_rss_mb "self";
    setup;
    tally = t;
    detail =
      ("median_s", J.Obj (per_label lat executed))
      :: session_detail ~hits:!hits ~misses:!misses ~evictions:0 ~bytes:!bytes;
    executed = [ executed ];
    check;
  }

let analyze_items = [ analyze_on "tcore32"; analyze_on "tcore32_dft" ]

let proof_items =
  List.concat_map
    (fun c ->
      let on = Req.Config c in
      [
        item ("invar/" ^ c) on (Req.Invar { k = 1; no_prove = false });
        item ("safety/" ^ c) on (Req.Safety { window = 3; seu_limit = 16 });
        item ("slice/" ^ c) on (Req.Slice { dot = false });
      ])
    [ "tcore16"; "tcore32" ]
  @ [
      item "coverage/tcore16" (Req.Config "tcore16") (Req.Coverage { sample = 100 });
      (* an eighth request, dearer than safety/tcore32, makes the median
         of a round the mean of invar/tcore32 and safety/tcore32: with
         seven, the median was invar/tcore32 alone, whose time moves
         more than its neighbours', and spread by 16-30 % over ten seeds
         against 4-21 % for throughput *)
      item "slice/tcore32_dft" (Req.Config "tcore32_dft") (Req.Slice { dot = false });
    ]

let seeded ctx items i = shuffle (Random.State.make [| ctx.seed; i |]) items
let analyze_cold ctx = in_process ctx ~round:(seeded ctx analyze_items)
let proof_sweep ctx = in_process ctx ~round:(seeded ctx proof_items)

(* -- daemon workloads ---------------------------------------------------- *)

(* Run the labelled requests of [input] ("label\trequest" lines) on one
   in-process session and write the answers to [output]: the
   [references] subcommand. *)
let compute_references ~input ~output =
  let session = S.Session.create () in
  let answer line =
    match String.index_opt line '\t' with
    | None -> failwith ("malformed request line: " ^ line)
    | Some i -> (
      match Req.of_string (String.sub line (i + 1) (String.length line - i - 1)) with
      | Ok req -> (String.sub line 0 i, Resp.to_json (fst (S.Service.execute session req)))
      | Error e -> failwith e)
  in
  let lines = In_channel.with_open_bin input In_channel.input_lines in
  J.to_file output (J.Obj (List.map answer lines))

let read_references path =
  match J.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Ok (J.Obj l) ->
    List.fold_right
      (fun (k, v) acc ->
        match (Resp.of_json v, acc) with Ok r, Some l -> Some ((k, r) :: l) | _ -> None)
      l (Some [])
  | _ | (exception Sys_error _) -> None

(* In-process answers to every distinct request, on one session as in
   the daemon: the bytes every daemon response must match.  Pinned facts
   are checked on them.  They depend only on the code, so they are kept
   under [ctx.cache], keyed by the digest of this executable (which links
   the library code the daemon serves), and computed once per build, in
   a child process: computing them here left this process's heap large
   enough to cut the decoding client's throughput by a fifth. *)
let reference ctx t ~name items =
  let path =
    Filename.concat ctx.cache
      (Printf.sprintf "%s-%s.json" name (Digest.to_hex (Digest.file Sys.executable_name)))
  in
  let complete = function
    | Some refs when List.for_all (fun it -> List.mem_assoc it.label refs) items -> Some refs
    | _ -> None
  in
  let refs =
    match complete (read_references path) with
    | Some refs -> refs
    | None -> (
      let input = Filename.concat ctx.dir (name ^ ".requests") in
      Out_channel.with_open_bin input (fun oc ->
          List.iter (fun it -> Printf.fprintf oc "%s\t%s\n" it.label (Req.to_line it.req)) items);
      let exe = Sys.executable_name in
      let pid =
        Unix.create_process exe [| exe; "references"; input; path |] Unix.stdin Unix.stderr
          Unix.stderr
      in
      match (Unix.waitpid [] pid, complete (read_references path)) with
      | (_, Unix.WEXITED 0), Some refs -> refs
      | _ -> failwith ("computing the references of " ^ name ^ " failed"))
  in
  List.iter (fun it -> record t (check_pins ctx.pins it (List.assoc it.label refs))) items;
  refs

(* Set up [ctx.setup_reps] daemons, timing each; all but the last are
   stopped again. *)
let set_up ctx start =
  let rec go k acc =
    let t0 = now () in
    let d = start () in
    let dt = now () -. t0 in
    if k >= ctx.setup_reps then (d, List.rev (dt :: acc))
    else begin
      Daemon.shutdown d;
      go (k + 1) (dt :: acc)
    end
  in
  go 1 []

type conn = { t : tally; lat : float list; exec : item list; hits : int }

(* One client connection in a closed loop, until the time is up or
   [round] has no more requests.  If the daemon dies, the failed request
   and the rest of its round count as failed and the connection stops. *)
let connection ctx d ~check ~round =
  let t = tally () in
  let lat = ref [] and exec = ref [] and hits = ref 0 in
  (match Daemon.connect d with
  | Error e -> List.iter (fun it -> record t (Error (it.label ^ ": " ^ e))) (round 0)
  | Ok c ->
    ignore
      (rounds ~seconds:ctx.seconds (fun i ->
           let alive = ref true in
           List.iter
             (fun it ->
               if not !alive then record t (Error (it.label ^ ": daemon died"))
               else
                 let t0 = now () in
                 match S.Client.rpc c it.req with
                 | Error e ->
                   alive := false;
                   record t (Error (it.label ^ ": " ^ e))
                 | Ok r ->
                   lat := (now () -. t0) :: !lat;
                   exec := it :: !exec;
                   if r.Resp.cache_hit then incr hits;
                   record t (check it r))
             (round i);
           !alive && round (i + 1) <> []));
    S.Client.close c);
  { t; lat = List.rev !lat; exec = List.rev !exec; hits = !hits }

(* Send [items] on one connection, checking every answer. *)
let send_all d ~check items =
  let t = tally () in
  (match Daemon.connect d with
  | Error e -> List.iter (fun it -> record t (Error (it.label ^ ": " ^ e))) items
  | Ok c ->
    List.iter
      (fun it ->
        record t
          (match S.Client.rpc c it.req with
          | Ok r -> check it r
          | Error e -> Error (it.label ^ ": " ^ e)))
      items;
    S.Client.close c);
  t

(* Run each function on a domain of its own, the first on this one. *)
let concurrently = function
  | [] -> []
  | f :: rest ->
    let ds = List.map Domain.spawn rest in
    let r = f () in
    r :: List.map Domain.join ds

(* The timed part on one daemon, which is stopped after it. *)
type phase = {
  cs : conn list;
  p_wall : float;
  p_cpu : float;
  p_rss_mb : float;
  stat : string -> int;  (** a field of the daemon's [Stats] answer *)
}

let phase ctx d ~check ~conns ~round =
  Fun.protect
    ~finally:(fun () -> Daemon.shutdown d)
    (fun () ->
      let pid = Daemon.pid d in
      let c0 = Host.cpu_seconds pid in
      let t0 = now () in
      let cs =
        concurrently (List.init conns (fun k () -> connection ctx d ~check ~round:(round k)))
      in
      let p_wall = now () -. t0 in
      let p_cpu = Host.cpu_seconds pid -. c0 in
      let p_rss_mb = Host.peak_rss_mb pid in
      let stats = Daemon.stats d in
      let stat k =
        match stats with
        | Ok j -> Option.value ~default:0 (Option.bind (J.member k j) J.to_int_opt)
        | Error _ -> 0
      in
      { cs; p_wall; p_cpu; p_rss_mb; stat })

(* [prewarm] holds one request list per connection, sent concurrently.
   The timed phase runs on the set-up daemon; with [passes], it is
   repeated, each time on a daemon of its own set up like the first, at
   least [passes] times and then while one more fits in the run time.
   Wall and CPU are the phases' sums, peak memory their maximum. *)
let daemon_run ?(passes = 1) ctx ~name ~items ~args ~before_spawn ~prewarm ~conns ~round =
  let t = tally () in
  before_spawn ();
  let refs = reference ctx t ~name items in
  let check = check_ref refs in
  let setup_tallies = ref [] in
  let start () =
    before_spawn ();
    let d = Daemon.spawn ~dir:ctx.dir args in
    Daemon.await d;
    setup_tallies :=
      concurrently (List.map (fun l () -> send_all d ~check l) prewarm) @ !setup_tallies;
    d
  in
  let d, setup = set_up ctx start in
  let phases = ref [] in
  ignore
    (rounds ~min:passes ~seconds:ctx.seconds (fun i ->
         let d = if i = 0 then d else start () in
         phases := phase ctx d ~check ~conns ~round :: !phases;
         true));
  let phases = List.rev !phases in
  let sum f = List.fold_left (fun a p -> a + f p) 0 phases in
  let cs = List.concat_map (fun p -> p.cs) phases in
  let lat = List.concat_map (fun c -> c.lat) cs in
  let timed = List.concat_map (fun c -> c.exec) cs in
  let hits = List.fold_left (fun a c -> a + c.hits) 0 cs in
  {
    lat;
    wall = List.fold_left (fun a p -> a +. p.p_wall) 0. phases;
    cpu = List.fold_left (fun a p -> a +. p.p_cpu) 0. phases;
    rss_mb = List.fold_left (fun a p -> Float.max a p.p_rss_mb) 0. phases;
    setup;
    tally = List.fold_left (fun a c -> merge a c.t) (List.fold_left merge t !setup_tallies) cs;
    detail =
      ("request_hit_ratio", J.Float (float_of_int hits /. float_of_int (max 1 (List.length lat))))
      :: ("passes", J.Int (List.length phases))
      :: ("median_s", J.Obj (per_label lat timed))
      :: session_detail ~hits:(sum (fun p -> p.stat "hits")) ~misses:(sum (fun p -> p.stat "misses"))
           ~evictions:(sum (fun p -> p.stat "evictions"))
           ~bytes:(List.fold_left (fun a p -> max a (p.stat "bytes")) 0 phases);
    executed =
      List.map (fun p -> List.concat prewarm @ List.concat_map (fun c -> c.exec) p.cs) phases;
    check;
  }

let daemon_warm ctx =
  let on c =
    let t = Req.Config c in
    [
      analyze_on c;
      item ~fmt:Req.Text ("analyze.text/" ^ c) t analyze;
      item ("lint/" ^ c) t lint;
      item ~fmt:Req.Summary ("lint.summary/" ^ c) t lint;
      item ("implic/" ^ c) t implic;
      item ("absint/" ^ c) t absint;
    ]
  in
  let items = on "tcore16" @ on "tcore32" in
  (* two prewarm connections with about equal work: the lint answers on
     one, the rest on the other (each JSON answer before the renderings
     that share its outcome) *)
  let lints, others = List.partition (fun it -> it.op = "lint") items in
  daemon_run ctx ~name:"daemon_warm" ~items ~args:[ "--workers"; "2" ]
    ~before_spawn:ignore ~prewarm:[ lints; others ] ~conns:2
    ~round:(fun conn i -> shuffle (Random.State.make [| ctx.seed; conn; i |]) items)

(* The churn key space, by popularity rank k: op k mod 3 on target
   (k / 3) mod 3, under ff_mode (k / 9) mod 3, implications on for
   k < 27.  The most popular ranks are thus every op on every target at
   the default knobs.  Miss costs differ by a factor of ten between ops
   and knobs (70 ms to 0.8 s), so a seed that reassigned ranks swung the
   tail by half; it only decides which of the two identical Verilog
   files holds the more popular ranks. *)
let churn_exponent = 1.6
let churn_length = 120
let churn_budget_mb = 24

let churn_items ~seed dir =
  let file sub = Filename.concat (Filename.concat dir sub) "tcore16.v" in
  let a, b = if Churn.swap_files ~seed then ("b", "a") else ("a", "b") in
  let targets =
    [ ("config", Req.Config "tcore16"); ("file_a", Req.File (file a)); ("file_b", Req.File (file b)) ]
  in
  let ops =
    [ ("analyze", Req.Json, analyze); ("implic", Req.Json, implic); ("lint.summary", Req.Summary, lint) ]
  in
  let modes = [ Ternary.Steady_state; Ternary.Cut; Ternary.Reset_join ] in
  List.init 54 (fun k ->
      let oname, fmt, op = List.nth ops (k mod 3) in
      let tname, target = List.nth targets (k / 3 mod 3) in
      let ff_mode = List.nth modes (k / 9 mod 3) and implic = k < 27 in
      item ~fmt ~ff_mode ~implic
        (Printf.sprintf "%s/%s/%s/%s" oname tname
           (Olfu.Run_config.ff_mode_name ff_mode)
           (if implic then "implic" else "noimplic"))
        target op)

(* Emit tcore16 as Verilog, and a byte-identical copy at a second path:
   the two files miss separately on load but share every outcome. *)
let emit_verilog dir =
  let path sub =
    let d = Filename.concat dir sub in
    if not (Sys.file_exists d) then Sys.mkdir d 0o755;
    Filename.concat d "tcore16.v"
  in
  let nl = Olfu_soc.Soc.generate Olfu_soc.Soc.tcore16 in
  Olfu_verilog.Emit.to_file ~module_name:"tcore16" nl (path "a");
  let src = In_channel.with_open_bin (path "a") In_channel.input_all in
  Out_channel.with_open_bin (path "b") (fun oc -> output_string oc src)

(* A pass is the whole stream on a fresh daemon: on the same daemon a
   second pass would find the cache warm and only hit.  One pass has 20
   misses, too few for a steady tail, so there are at least two; from
   two to four passes the tail percentile is p95, the six slowest
   requests of each pass beyond it. *)
let daemon_churn ctx =
  let items = Array.of_list (churn_items ~seed:ctx.seed ctx.dir) in
  daemon_run ~passes:2 ctx ~name:"daemon_churn" ~items:(Array.to_list items)
    ~args:[ "--workers"; "2"; "--byte-budget"; string_of_int churn_budget_mb ]
    ~before_spawn:(fun () -> emit_verilog ctx.dir)
    ~prewarm:[] ~conns:1 ~round:(fun _ i ->
      if i > 0 then []
      else
        Array.to_list
          (Array.map
             (fun k -> items.(k))
             (Churn.stream ~exponent:churn_exponent ~keys:54 ~length:churn_length)))

(* -- the catalogue ------------------------------------------------------- *)

type spec = {
  name : string;
  measure : ctx -> outcome;
  fresh : bool;  (** a fresh session per request *)
  budget : int option;  (** the daemon's session budget, in bytes *)
  wire : bool;  (** requests cross the daemon's wire *)
}

let all =
  [
    { name = "analyze_cold"; measure = analyze_cold; fresh = true; budget = None; wire = false };
    { name = "proof_sweep"; measure = proof_sweep; fresh = true; budget = None; wire = false };
    { name = "daemon_warm"; measure = daemon_warm; fresh = false; budget = None; wire = true };
    {
      name = "daemon_churn";
      measure = daemon_churn;
      fresh = false;
      budget = Some (churn_budget_mb * 1024 * 1024);
      wire = true;
    };
  ]

let find name = List.find_opt (fun s -> s.name = name) all

(* The end-to-end metrics of an untraced run. *)
let end_to_end (o : outcome) =
  let n = float_of_int (max 1 (List.length o.lat)) in
  [
    ("setup_s", "s", Stats.median o.setup);
    ("latency_p50_ms", "ms", 1000. *. Stats.median o.lat);
    ("latency_tail_ms", "ms", 1000. *. Stats.tail o.lat);
    ("throughput_rps", "req/s", n /. o.wall);
    ("cpu_per_req_ms", "ms", 1000. *. o.cpu /. n);
    ("peak_rss_mb", "MB", o.rss_mb);
  ]

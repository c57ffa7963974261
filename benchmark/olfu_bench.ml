(* The OLFU benchmark.  Run from the repository root:

     olfu_bench.exe --workload W --seed N --seconds S --trace 0|1
         one workload; the last line of stdout is its result object
     olfu_bench.exe run --seed N [--seconds S] [--repeat K] [--out FILE]
         every workload, each in its own child process; writes a
         results file
     olfu_bench.exe trace --seed N [--seconds S]
         the traced run of every workload: per-layer tables and Chrome
         traces under .olfu_bench/trace/
     olfu_bench.exe compare A.json ... -- B.json ...
         applies the BENCHMARK.json bounds to two sets of results files
     olfu_bench.exe pins
         prints the facts benchmark/expect.json pins, as computed now
     olfu_bench.exe references IN OUT
         internal: the daemon workloads' in-process reference answers

   Metric names, units and bounds come from BENCHMARK.json. *)

module J = Olfu_obs.Json
module W = Workloads
module R = Results

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("olfu_bench: " ^ s); exit 2) fmt

(* -- BENCHMARK.json -------------------------------------------------------- *)

type declared = { name : string; unit_ : string; better : Stats.better option; bound : float }

let benchmark_json () =
  match J.parse (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) with
  | Ok j -> j
  | Error e -> die "BENCHMARK.json: %s" e
  | exception Sys_error e -> die "%s (run from the repository root)" e

let declared key =
  let str k m = Option.bind (J.member k m) J.to_string_opt in
  match Option.bind (J.member key (benchmark_json ())) J.to_list_opt with
  | None -> die "BENCHMARK.json: no %s list" key
  | Some l ->
    List.map
      (fun m ->
        match (str "name" m, str "unit" m) with
        | Some name, Some unit_ ->
          {
            name;
            unit_;
            better = Option.bind (str "better" m) Stats.better_of_string;
            bound = Option.value ~default:0. (Option.bind (J.member "bound" m) J.to_float_opt);
          }
        | _ -> die "BENCHMARK.json: malformed %s entry" key)
      l

let run_seconds () =
  match Option.bind (J.member "run_seconds" (benchmark_json ())) J.to_int_opt with
  | Some s -> s
  | None -> die "BENCHMARK.json: no run_seconds"

(* The measured metrics, in the order and with the units BENCHMARK.json
   declares; a declared metric the code does not produce is an error. *)
let select decl measured =
  List.map
    (fun d ->
      match List.find_opt (fun (n, _, _) -> n = d.name) measured with
      | Some (_, u, v) when u = d.unit_ -> { R.name = d.name; unit_ = u; value = v }
      | Some (_, u, _) -> die "metric %s measured in %s, declared in %s" d.name u d.unit_
      | None -> die "metric %s is declared but not measured" d.name)
    decl

(* -- one workload ------------------------------------------------------------ *)

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let out_root = ".olfu_bench"

let workload_main ~workload ~seed ~seconds ~trace =
  let spec = match W.find workload with Some s -> s | None -> die "unknown workload %s" workload in
  let decl = declared (if trace then "per_layer" else "end_to_end") in
  let dir = Filename.concat out_root (Printf.sprintf "tmp-%d" (Unix.getpid ())) in
  mkdir_p dir;
  (* on every exit path, exceptions and signals included: stop the
     daemons, then remove their sockets' directory *)
  at_exit (fun () -> List.iter Daemon.shutdown !Daemon.live; rm_rf dir);
  let cache = Filename.concat out_root "cache" in
  mkdir_p cache;
  let ctx =
    { W.seed; seconds = float_of_int seconds; dir; cache; pins = Expect.load (); setup_reps = 3 }
  in
  let metrics, tally, detail =
    if trace then begin
      let out_dir = Filename.concat out_root "trace" in
      mkdir_p out_dir;
      Replay.trace spec ctx ~out_dir
    end
    else
      let o = spec.W.measure ctx in
      ( W.end_to_end o,
        o.W.tally,
        ("n", J.Int (List.length o.W.lat))
        :: ("tail", J.Str (Stats.tail_label (List.length o.W.lat)))
        :: ("setup_reps", J.Int (List.length o.W.setup))
        :: o.W.detail )
  in
  List.iter (fun e -> prerr_endline ("olfu_bench: " ^ workload ^ ": " ^ e)) tally.W.errors;
  print_endline
    (J.to_string
       (J.Obj [ ("detail", J.Obj (("errors", J.List (List.map (fun e -> J.Str e) tally.W.errors)) :: detail)) ]));
  print_endline
    (J.to_string
       (R.result_to_json
          {
            R.correct = tally.W.failed = 0;
            attempted = max 1 tally.W.attempted;
            failed = tally.W.failed;
            metrics = select decl metrics;
          }))

(* -- run / trace: every workload in a child process ---------------------------- *)

(* One workload in a child process of this executable; its stdout lines. *)
let child (spec : W.spec) ~seed ~seconds ~trace =
  let args =
    [ "--workload"; spec.W.name; "--seed"; string_of_int seed; "--seconds"; string_of_int seconds;
      "--trace"; (if trace then "1" else "0") ]
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list (Sys.executable_name :: args)) in
  let lines = In_channel.input_lines ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> lines
  | _ -> die "child %s failed" (String.concat " " args)

let parse_line what s =
  match J.parse s with Ok j -> j | Error e -> die "unparsable %s line: %s" what e

let run_set ~seed ~seconds =
  List.map
    (fun (spec : W.spec) ->
      let lines = child spec ~seed ~seconds ~trace:false in
      let detail, result =
        match List.rev lines with
        | r :: d :: _ -> (parse_line "detail" d, parse_line "result" r)
        | _ -> die "%s printed no result" spec.W.name
      in
      let result =
        match R.result_of_json result with Ok r -> r | Error e -> die "%s: %s" spec.W.name e
      in
      let fail_ratio = float_of_int result.R.failed /. float_of_int result.R.attempted in
      let result =
        { result with R.metrics = result.R.metrics @ [ { R.name = "fail_ratio"; unit_ = "fraction"; value = fail_ratio } ] }
      in
      List.iter
        (fun (m : R.metric) -> Printf.printf "%-14s %-18s %14.4f %s\n%!" spec.W.name m.R.name m.R.value m.R.unit_)
        result.R.metrics;
      let detail = match J.member "detail" detail with Some (J.Obj l) -> l | _ -> [] in
      { R.workload = spec.W.name; result; detail })
    W.all

let provenance ~seed ~seconds =
  [
    ("git_describe", J.Str (Host.git_describe ()));
    ("host", J.Str (Host.host ()));
    ("nproc", J.Int (Host.nproc ()));
    ("recommended_domain_count", J.Int (Domain.recommended_domain_count ()));
    ("ocaml", J.Str Sys.ocaml_version);
    ("seed", J.Int seed);
    ("run_seconds", J.Int seconds);
    ("jobs", J.Int W.jobs);
    ("argv", J.List (List.map (fun a -> J.Str a) (Array.to_list Sys.argv)));
  ]

(* -- compare ------------------------------------------------------------------ *)

(* The keys two results files must share to be comparable.  Sample
   counts follow from the run time, so the run time stands for them. *)
let comparable_keys = [ "host"; "seed"; "run_seconds"; "jobs" ]

let compare_main base cand =
  let load paths = List.map (fun p -> match R.read_file p with Ok f -> f | Error e -> die "%s" e) paths in
  let base = load base and cand = load cand in
  let first = List.hd base in
  List.iter
    (fun (f : R.file) ->
      List.iter
        (fun k ->
          if List.assoc_opt k f.R.provenance <> List.assoc_opt k first.R.provenance then
            die "refusing to compare: results differ in %s" k)
        comparable_keys)
    (base @ cand);
  let values files workload metric =
    List.concat_map
      (fun (f : R.file) ->
        List.filter_map
          (fun run ->
            Option.bind
              (List.find_opt (fun (w : R.workload) -> w.R.workload = workload) run)
              (fun (w : R.workload) ->
                Option.map (fun (m : R.metric) -> m.R.value)
                  (List.find_opt (fun (m : R.metric) -> m.R.name = metric) w.R.result.R.metrics)))
          f.R.runs)
      files
  in
  let bad = ref false in
  Printf.printf "%-14s %-16s %30s %30s  %s\n" "workload" "metric" "base median [q1, q3]" "cand median [q1, q3]" "verdict";
  let side xs =
    let q1, q2, q3 = Stats.quartiles xs in
    Printf.sprintf "%.4g [%.4g, %.4g]" q2 q1 q3
  in
  List.iter
    (fun (spec : W.spec) ->
      List.iter
        (fun d ->
          let b = values base spec.W.name d.name and c = values cand spec.W.name d.name in
          if b <> [] && c <> [] then begin
            let v =
              Stats.compare_sides ~better:(Option.value ~default:Stats.Lower d.better) ~bound:d.bound
                ~base:b ~cand:c
            in
            if v = Stats.Worse then bad := true;
            Printf.printf "%-14s %-16s %30s %30s  %s\n" spec.W.name d.name (side b) (side c)
              (Stats.verdict_name v)
          end)
        (declared "end_to_end");
      (* failures are held to zero, not to a share *)
      let f = values base spec.W.name "fail_ratio" @ values cand spec.W.name "fail_ratio" in
      if List.exists (fun x -> x > 0.) f then begin
        bad := true;
        Printf.printf "%-14s fail_ratio above 0\n" spec.W.name
      end)
    W.all;
  exit (if !bad then 1 else 0)

(* -- pins ------------------------------------------------------------------ *)

let pins_main () =
  let items = W.analyze_on "tcore16" :: W.analyze_items @ W.proof_items in
  let pins =
    List.map
      (fun (it : W.item) ->
        let r, _ = Olfu_service.Service.execute (Olfu_service.Session.create ()) it.W.req in
        match Expect.facts it.W.op r.Olfu_service.Response.output with
        | Ok fs -> (it.W.label, J.Obj (List.map (fun (k, v) -> (k, J.Int v)) fs))
        | Error e -> die "%s: %s" it.W.label e)
      items
  in
  print_string (J.to_string ~indent:true (J.Obj pins));
  print_newline ()

(* -- arguments ----------------------------------------------------------------- *)

let pairs l =
  let rec go acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> go ((k, v) :: acc) rest
    | [] -> List.rev acc
    | a :: _ -> die "unexpected argument %s" a
  in
  go [] l

let int_opt args k ~default =
  match List.assoc_opt k args with
  | None -> default ()
  | Some v -> ( match int_of_string_opt v with Some n -> n | None -> die "%s wants an integer" k)

let () =
  (* exit through at_exit, so daemons are stopped and scratch removed;
     a closed pipe or socket is an error to handle, not a kill *)
  let quit _ = exit 3 in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle quit);
  Sys.set_signal Sys.sigint (Sys.Signal_handle quit);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: rest ->
    let a = pairs rest in
    let seed = int_opt a "--seed" ~default:(fun () -> 1) in
    let seconds = int_opt a "--seconds" ~default:run_seconds in
    let repeat = int_opt a "--repeat" ~default:(fun () -> 1) in
    let runs = List.init repeat (fun _ -> run_set ~seed ~seconds) in
    let out =
      match List.assoc_opt "--out" a with
      | Some p -> p
      | None ->
        mkdir_p out_root;
        Filename.concat out_root (Printf.sprintf "results-seed%d.json" seed)
    in
    J.to_file ~indent:true out (R.file_to_json { R.provenance = provenance ~seed ~seconds; runs });
    Printf.printf "wrote %s\n" out;
    if List.exists (List.exists (fun (w : R.workload) -> w.R.result.R.failed > 0)) runs then exit 1
  | "trace" :: rest ->
    let a = pairs rest in
    let seed = int_opt a "--seed" ~default:(fun () -> 1) in
    let seconds = int_opt a "--seconds" ~default:run_seconds in
    List.iter
      (fun spec -> List.iter print_endline (child spec ~seed ~seconds ~trace:true))
      W.all
  | "compare" :: rest -> (
    let rec split acc = function
      | "--" :: b -> (List.rev acc, b)
      | x :: r -> split (x :: acc) r
      | [] -> (List.rev acc, [])
    in
    match split [] rest with
    | (_ :: _ as base), (_ :: _ as cand) -> compare_main base cand
    | _ -> die "compare A.json ... -- B.json ...")
  | [ "pins" ] -> pins_main ()
  | [ "references"; input; output ] -> W.compute_references ~input ~output
  | rest ->
    let a = pairs rest in
    let workload =
      match List.assoc_opt "--workload" a with Some w -> w | None -> die "--workload is required"
    in
    let seed = int_opt a "--seed" ~default:(fun () -> die "--seed is required") in
    let seconds = int_opt a "--seconds" ~default:run_seconds in
    let trace = int_opt a "--trace" ~default:(fun () -> 0) in
    workload_main ~workload ~seed ~seconds ~trace:(trace = 1)

module J = Olfu_obs.Json
module Trace = Olfu_obs.Trace
module Export = Olfu_obs.Export
module Manifest = Olfu_obs.Manifest
module Pool = Olfu_pool.Pool

(* --- JSON: strict parser round-trips everything the emitters write --- *)

let sample_json =
  J.Obj
    [
      ("null", J.Null);
      ("bool", J.Bool true);
      ("int", J.Int (-42));
      ("float", J.Float 1.5);
      ("exp", J.Float 1e-9);
      ("str", J.Str "with \"quotes\", a \\ and \ncontrol\tbytes \x01");
      ("empty_list", J.List []);
      ("empty_obj", J.Obj []);
      ("nested", J.List [ J.Obj [ ("k", J.List [ J.Int 0; J.Null ]) ] ]);
    ]

let test_json_roundtrip () =
  List.iter
    (fun indent ->
      match J.parse (J.to_string ~indent sample_json) with
      | Ok j -> Alcotest.(check bool) "round-trip equal" true (j = sample_json)
      | Error e -> Alcotest.failf "round-trip parse failed: %s" e)
    [ false; true ]

let test_json_strict () =
  List.iter
    (fun s ->
      match J.parse s with
      | Ok _ -> Alcotest.failf "accepted malformed input %S" s
      | Error _ -> ())
    [
      ""; "{"; "[1 2]"; "{\"a\":1,}"; "[1,]"; "\"a\" x"; "{'a':1}";
      "nulll"; "01"; "\"\\q\""; "\"unterminated";
    ]

(* The per-character escaper the printer had before it copied runs: the
   reference for the bytes of a string literal. *)
let reference_escape s =
  let buf = Buffer.create 16 in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let prop_json_escape =
  QCheck2.Test.make ~count:500 ~name:"string literal bytes = per-char escape"
    QCheck2.Gen.(string_size ~gen:char (int_range 0 200))
    (fun s -> J.to_string (J.Str s) = reference_escape s)

(* Any byte string survives print-then-parse, as a value, a key, and
   nested in objects and lists, compact and indented. *)
let prop_json_roundtrip_bytes =
  QCheck2.Test.make ~count:300 ~name:"byte strings round-trip, bare and nested"
    QCheck2.Gen.(string_size ~gen:char (int_range 0 4096))
    (fun s ->
      List.for_all
        (fun v ->
          List.for_all (fun indent -> J.parse (J.to_string ~indent v) = Ok v) [ false; true ])
        [
          J.Str s;
          J.Obj [ (s, J.List [ J.Str s; J.Int 1 ]); ("k", J.Obj [ (s, J.Str s) ]) ];
          J.List [ J.Str s; J.List [ J.Str s ]; J.Null ];
        ])

exception Bad_literal of string * int

(* The per-character decoder the parser had before it copied runs, for
   a document that is one string literal: the reference for every
   result and every error, message and offset included. *)
let reference_literal s =
  let n = String.length s in
  let pos = ref 0 in
  let fail m = raise (Bad_literal (m, !pos)) in
  let next () =
    if !pos >= n then fail "unexpected end of input"
    else begin
      let c = s.[!pos] in
      incr pos;
      c
    end
  in
  let expect c =
    let g = next () in
    if g <> c then fail (Printf.sprintf "expected %C, got %C" c g)
  in
  let hex4 () =
    let d = ref 0 in
    for _ = 1 to 4 do
      let c = next () in
      let v =
        match c with
        | '0' .. '9' -> Char.code c - Char.code '0'
        | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad \\u escape"
      in
      d := (!d * 16) + v
    done;
    !d
  in
  let buf = Buffer.create 16 in
  let add_code k = Buffer.add_char buf (Char.chr k) in
  let rec loop () =
    match next () with
    | '"' -> Buffer.contents buf
    | '\\' ->
      (match next () with
      | '"' -> Buffer.add_char buf '"'
      | '\\' -> Buffer.add_char buf '\\'
      | '/' -> Buffer.add_char buf '/'
      | 'b' -> Buffer.add_char buf '\b'
      | 'f' -> Buffer.add_char buf '\012'
      | 'n' -> Buffer.add_char buf '\n'
      | 'r' -> Buffer.add_char buf '\r'
      | 't' -> Buffer.add_char buf '\t'
      | 'u' ->
        let cp = hex4 () in
        let cp =
          if cp >= 0xD800 && cp <= 0xDBFF then begin
            expect '\\';
            expect 'u';
            let lo = hex4 () in
            if lo < 0xDC00 || lo > 0xDFFF then fail "unpaired surrogate";
            0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
          end
          else if cp >= 0xDC00 && cp <= 0xDFFF then fail "unpaired surrogate"
          else cp
        in
        if cp < 0x80 then add_code cp
        else if cp < 0x800 then begin
          add_code (0xC0 lor (cp lsr 6));
          add_code (0x80 lor (cp land 0x3F))
        end
        else if cp < 0x10000 then begin
          add_code (0xE0 lor (cp lsr 12));
          add_code (0x80 lor ((cp lsr 6) land 0x3F));
          add_code (0x80 lor (cp land 0x3F))
        end
        else begin
          add_code (0xF0 lor (cp lsr 18));
          add_code (0x80 lor ((cp lsr 12) land 0x3F));
          add_code (0x80 lor ((cp lsr 6) land 0x3F));
          add_code (0x80 lor (cp land 0x3F))
        end
      | c -> fail (Printf.sprintf "bad escape \\%C" c));
      loop ()
    | c when Char.code c < 0x20 -> fail "raw control character in string"
    | c ->
      Buffer.add_char buf c;
      loop ()
  in
  match
    expect '"';
    let v = loop () in
    while
      !pos < n && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done;
    if !pos <> n then fail "trailing garbage";
    J.Str v
  with
  | v -> Ok v
  | exception Bad_literal (m, p) -> Error (Printf.sprintf "%s at offset %d" m p)

(* Literals that mix plain runs with every escape form, then end well or
   in a malformed tail: an unknown escape, a lone surrogate, bad hex, a
   raw control byte, a missing closing quote or trailing garbage. *)
let gen_literal =
  let open QCheck2.Gen in
  let u k upper = Printf.sprintf (if upper then "\\u%04X" else "\\u%04x") k in
  let plain_char =
    map Char.chr
      (oneof [ int_range 0x20 0x21; int_range 0x23 0x5B; int_range 0x5D 0xFF ])
  in
  let segment =
    oneof
      [
        string_size ~gen:plain_char (int_range 1 40);
        oneofl [ {|\"|}; {|\\|}; {|\/|}; {|\b|}; {|\f|}; {|\n|}; {|\r|}; {|\t|} ];
        map2 u (oneof [ int_range 0 0xD7FF; int_range 0xE000 0xFFFF ]) bool;
        map3
          (fun hi lo upper -> u hi upper ^ u lo upper)
          (int_range 0xD800 0xDBFF) (int_range 0xDC00 0xDFFF) bool;
      ]
  in
  let tail =
    oneof
      [
        return {|"|};
        return {|"|};
        map
          (fun c -> Printf.sprintf "\\%c\"" c)
          (oneofl [ 'q'; 'x'; 'U'; '\''; 'a'; '0'; ' '; '\n'; '\000'; '\255' ]);
        map2 (fun hi rest -> u hi false ^ rest) (int_range 0xD800 0xDBFF)
          (oneofl [ {|"|}; {|x"|}; {|\n"|}; {|\u0041"|}; {|\uD800"|}; {|\uE000"|} ]);
        map (fun lo -> u lo true ^ {|"|}) (int_range 0xDC00 0xDFFF);
        map2
          (fun k bad -> "\\u" ^ String.sub (Printf.sprintf "%04x" k) 0 (k mod 4) ^ bad)
          (int_range 0 0xFFFF)
          (oneofl [ {|g"|}; {|G"|}; {| "|}; {|"|}; {|\"|}; {|-1"|} ]);
        map (fun k -> String.make 1 (Char.chr k) ^ {|"|}) (int_range 0 0x1F);
        oneofl [ ""; {|\|}; {|\u|}; {|\u12|}; {|\uD800|}; {|\uD800\|}; {|\uD800\u|} ];
        oneofl [ {|" x|}; "\"  \n"; {|""|}; {|",|} ];
      ]
  in
  map2
    (fun segs tail -> {|"|} ^ String.concat "" segs ^ tail)
    (list_size (int_range 0 12) segment)
    tail

let prop_json_literal_reference =
  QCheck2.Test.make ~count:2000 ~name:"string literal decode = per-char decoder"
    ~print:(Printf.sprintf "%S") gen_literal
    (fun lit -> J.parse lit = reference_literal lit)

(* [to_channel] spills in chunks: a document several chunks long, with
   escapes on both sides of every chunk boundary, must come out as the
   bytes of [to_string]. *)
let test_json_channel () =
  let line k = Printf.sprintf "line %d: \"q\"\t\\ \x02\n" k in
  let big =
    J.Obj
      [
        ("text", J.Str (String.concat "" (List.init 20_000 line)));
        ( "rows",
          J.List
            (List.init 3_000 (fun k ->
                 J.Obj [ ("k", J.Int k); ("s", J.Str (line k)) ])) );
        ("sample", sample_json);
      ]
  in
  List.iter
    (fun (doc, indent) ->
      let path = Filename.temp_file "olfu_json" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Out_channel.with_open_bin path (fun oc -> J.to_channel ~indent oc doc);
          Alcotest.(check string)
            "channel bytes = to_string"
            (J.to_string ~indent doc)
            (In_channel.with_open_bin path In_channel.input_all)))
    [ (sample_json, false); (sample_json, true); (big, false); (big, true) ]

(* --- spans: nesting is well-formed, recorded even on exceptions --- *)

exception Probe

let check_wellformed sink =
  let spans = Trace.spans sink in
  let by_id = Hashtbl.create 16 in
  List.iter (fun (s : Trace.span) -> Hashtbl.replace by_id s.Trace.id s) spans;
  List.iter
    (fun (s : Trace.span) ->
      Alcotest.(check bool) "non-negative duration" true (s.Trace.dur >= 0.);
      if s.Trace.parent >= 0 then begin
        match Hashtbl.find_opt by_id s.Trace.parent with
        | None -> Alcotest.failf "span %s: dangling parent" s.Trace.name
        | Some p ->
          let eps = 1e-6 in
          Alcotest.(check bool)
            (s.Trace.name ^ " starts within parent")
            true
            (s.Trace.t0 +. eps >= p.Trace.t0);
          Alcotest.(check bool)
            (s.Trace.name ^ " ends within parent")
            true
            (s.Trace.t0 +. s.Trace.dur
            <= p.Trace.t0 +. p.Trace.dur +. eps)
      end)
    spans;
  spans

let test_span_nesting () =
  let sink = Trace.create () in
  Trace.span sink ~cat:"step" "outer" (fun () ->
      Trace.span sink ~cat:"engine" "inner_a" (fun () -> ());
      Trace.span sink ~cat:"engine" "inner_b" (fun () ->
          Trace.span sink "leaf" (fun () -> ())));
  (try
     Trace.span sink "raising" (fun () -> raise Probe)
   with Probe -> ());
  let spans = check_wellformed sink in
  Alcotest.(check int) "all five spans recorded" 5 (List.length spans);
  let find n =
    List.find (fun (s : Trace.span) -> s.Trace.name = n) spans
  in
  Alcotest.(check int) "outer is a root" (-1) (find "outer").Trace.parent;
  Alcotest.(check int) "raising is a root" (-1) (find "raising").Trace.parent;
  Alcotest.(check int)
    "inner_a under outer"
    (find "outer").Trace.id
    (find "inner_a").Trace.parent;
  Alcotest.(check int)
    "leaf under inner_b"
    (find "inner_b").Trace.id
    (find "leaf").Trace.parent

(* --- counters: shards merge, and totals are jobs-invariant --- *)

let test_counter_shards () =
  let sink = Trace.create () in
  for w = 0 to 7 do
    Trace.add sink ~worker:w "c" (w + 1)
  done;
  Trace.add sink "c" 100;
  Alcotest.(check (list (pair string int)))
    "merged total"
    [ ("c", 136) ]
    (Trace.counters sink)

let pool_counters ~jobs ~n ~chunk =
  let sink = Trace.create () in
  Pool.with_pool ~jobs (fun p ->
      Pool.parallel_chunks p ~n ~chunk ~trace:sink ~label:"t"
        (fun ~worker ~lo ~hi -> Trace.add sink ~worker "work.items" (hi - lo)));
  Trace.counters sink

let prop_pool_counters_invariant =
  QCheck2.Test.make ~count:40 ~name:"pool counters invariant under jobs"
    QCheck2.Gen.(pair (int_range 0 2_000) (int_range 1 97))
    (fun (n, chunk) ->
      let c1 = pool_counters ~jobs:1 ~n ~chunk in
      let c2 = pool_counters ~jobs:2 ~n ~chunk in
      let c4 = pool_counters ~jobs:4 ~n ~chunk in
      c1 = c2 && c1 = c4)

let fsim_counters jobs =
  let rng = Random.State.make [| 11 |] in
  let nl = Test_support.random_comb_netlist rng ~inputs:5 ~gates:40 in
  let fl = Olfu_fault.Flist.full nl in
  let patterns = Olfu_fsim.Comb_fsim.random_patterns ~seed:3 nl 70 in
  let sink = Trace.create () in
  ignore
    (Olfu_fsim.Comb_fsim.run ~jobs ~trace:sink nl fl patterns
      : Olfu_fsim.Comb_fsim.report);
  (Trace.counters sink, check_wellformed sink)

let test_fsim_counters_invariant () =
  let c1, _ = fsim_counters 1 in
  let c2, _ = fsim_counters 2 in
  let c4, spans4 = fsim_counters 4 in
  Alcotest.(check bool) "counters non-empty" true (c1 <> []);
  Alcotest.(check (list (pair string int))) "jobs 1 = jobs 2" c1 c2;
  Alcotest.(check (list (pair string int))) "jobs 1 = jobs 4" c1 c4;
  Alcotest.(check bool)
    "fault_evals counted" true
    (List.mem_assoc "fsim.fault_evals" c1);
  (* exactly one engine span, and it is the fsim root *)
  let engines =
    List.filter (fun (s : Trace.span) -> s.Trace.cat = "engine") spans4
  in
  Alcotest.(check int) "one engine span" 1 (List.length engines)

(* --- manifest and Chrome trace survive a strict re-parse --- *)

let recorded_sink () =
  let sink = Trace.create () in
  Trace.span sink ~cat:"step" "Step A" (fun () ->
      Trace.span sink ~cat:"engine" "alpha" (fun () -> Unix.sleepf 0.002);
      Trace.span sink ~cat:"engine" "beta" (fun () -> Unix.sleepf 0.001));
  Trace.add sink "k.count" 7;
  Trace.gauge sink "g.last" 1.25;
  sink

let test_manifest_valid () =
  let sink = recorded_sink () in
  let steps =
    [
      {
        Manifest.name = "Step A";
        seconds = 0.004;
        classified = 3;
        verdicts = [ ("UT", 2); ("UB", 1) ];
      };
    ]
  in
  let m =
    Manifest.make
      ~config:[ ("soc", J.Str "unit") ]
      ~steps
      ~prep:[ ("warmup", 0.001) ]
      ~wall_seconds:0.005 sink
  in
  match J.parse (J.to_string ~indent:true m) with
  | Error e -> Alcotest.failf "manifest does not re-parse: %s" e
  | Ok j ->
    let get k = J.member k j in
    Alcotest.(check (option int))
      "schema" (Some 1)
      (Option.bind (get "schema") J.to_int_opt);
    Alcotest.(check bool) "git present" true (get "git" <> None);
    let engine_total =
      Option.bind (get "engine_seconds_total") J.to_float_opt |> Option.get
    in
    let engines =
      match get "engines" with Some (J.Obj l) -> l | _ -> []
    in
    let sum =
      List.fold_left
        (fun a (_, v) -> a +. Option.get (J.to_float_opt v))
        0. engines
    in
    Alcotest.(check bool) "two engines" true (List.length engines = 2);
    Alcotest.(check bool)
      "engine total is the sum" true
      (abs_float (engine_total -. sum) < 1e-9);
    Alcotest.(check bool)
      "engine total positive" true (engine_total > 0.);
    (match get "counters" with
    | Some (J.Obj [ ("k.count", J.Int 7) ]) -> ()
    | _ -> Alcotest.fail "counters object wrong");
    (match get "steps" with
    | Some (J.List [ step ]) ->
      Alcotest.(check (option string))
        "step name" (Some "Step A")
        (Option.bind (J.member "name" step) J.to_string_opt)
    | _ -> Alcotest.fail "steps list wrong")

let test_chrome_trace_valid () =
  let sink = recorded_sink () in
  match J.parse (J.to_string (Export.chrome_json sink)) with
  | Error e -> Alcotest.failf "trace does not re-parse: %s" e
  | Ok j when J.member "traceEvents" j <> None ->
    let evs =
      match J.member "traceEvents" j with
      | Some (J.List evs) -> evs
      | _ -> Alcotest.fail "traceEvents is not a list"
    in
    let ph e = Option.bind (J.member "ph" e) J.to_string_opt in
    let xs = List.filter (fun e -> ph e = Some "X") evs in
    let ms = List.filter (fun e -> ph e = Some "M") evs in
    Alcotest.(check int)
      "one X event per span"
      (List.length (Trace.spans sink))
      (List.length xs);
    Alcotest.(check bool) "has metadata events" true (ms <> []);
    List.iter
      (fun e ->
        Alcotest.(check bool)
          "X event has ts and dur" true
          (Option.bind (J.member "ts" e) J.to_float_opt <> None
          && Option.bind (J.member "dur" e) J.to_float_opt <> None))
      xs
  | Ok _ -> Alcotest.fail "trace is not an event array"

(* --- Run_config --- *)

let test_ff_mode_names () =
  let module R = Olfu.Run_config in
  List.iter
    (fun m ->
      Alcotest.(check (option string))
        "ff_mode name round-trips"
        (Some (R.ff_mode_name m))
        (Option.map R.ff_mode_name (R.ff_mode_of_string (R.ff_mode_name m))))
    [
      Olfu_atpg.Ternary.Cut; Olfu_atpg.Ternary.Reset_join;
      Olfu_atpg.Ternary.Steady_state;
    ]

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "strictness" `Quick test_json_strict;
          QCheck_alcotest.to_alcotest prop_json_escape;
          QCheck_alcotest.to_alcotest prop_json_roundtrip_bytes;
          QCheck_alcotest.to_alcotest prop_json_literal_reference;
          Alcotest.test_case "channel = string" `Quick test_json_channel;
        ] );
      ( "trace",
        [
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "counter shards" `Quick test_counter_shards;
          QCheck_alcotest.to_alcotest prop_pool_counters_invariant;
          Alcotest.test_case "fsim counters jobs-invariant" `Quick
            test_fsim_counters_invariant;
        ] );
      ( "export",
        [
          Alcotest.test_case "manifest" `Quick test_manifest_valid;
          Alcotest.test_case "chrome trace" `Quick test_chrome_trace_valid;
        ] );
      ( "run_config",
        [ Alcotest.test_case "ff_mode names" `Quick test_ff_mode_names ] );
    ]

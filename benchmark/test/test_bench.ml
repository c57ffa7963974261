module J = Olfu_obs.Json
module R = Results

let close = Alcotest.float 1e-9

(* --- the tail-percentile rule --- *)

let test_tail_rule () =
  List.iter
    (fun (n, p) -> Alcotest.(check close) (Printf.sprintf "n = %d" n) p (Stats.tail_percentile n))
    [ (8000, 99.); (1000, 99.); (999, 98.); (500, 98.); (499, 95.); (120, 90.); (40, 75.) ];
  (* below 40 samples nothing has ten beyond it: p75, and the label says so *)
  Alcotest.(check close) "n = 39" 75. (Stats.tail_percentile 39);
  Alcotest.(check string) "label" "p75, 1 beyond" (Stats.tail_label 7);
  Alcotest.(check string) "label" "p99, 80 beyond" (Stats.tail_label 8000);
  (* two to four churn passes of 120: p95, six requests a pass beyond it *)
  List.iter
    (fun passes ->
      let n = 120 * passes in
      Alcotest.(check string) (Printf.sprintf "%d passes" passes)
        (Printf.sprintf "p95, %d beyond" (6 * passes))
        (Stats.tail_label n))
    [ 2; 3; 4 ];
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check close) "p90 of 1..100" 90. (Stats.tail xs);
  Alcotest.(check close) "median of 1..100" 50.5 (Stats.median xs)

(* --- quartiles as Python's statistics.quantiles(n=4) --- *)

let test_quartiles () =
  let check name xs (a, b, c) =
    let q1, q2, q3 = Stats.quartiles xs in
    Alcotest.(check (list close)) name [ a; b; c ] [ q1; q2; q3 ]
  in
  check "1..10" (List.init 10 (fun i -> float_of_int (i + 1))) (2.75, 5.5, 8.25);
  check "three" [ 3.; 1.; 2. ] (1., 2., 3.);
  check "two" [ 5.; 1. ] (0., 3., 6.);
  check "five" [ 0.9; 1.1; 1.0; 1.05; 0.95 ] (0.925, 1.0, 1.075)

(* --- the bound and unresolved comparator --- *)

let test_compare () =
  let v = Alcotest.testable (fun f v -> Format.pp_print_string f (Stats.verdict_name v)) ( = ) in
  let around m = [ m *. 0.99; m; m *. 1.01 ] in
  let cmp better base cand = Stats.compare_sides ~better ~bound:0.1 ~base ~cand in
  Alcotest.(check v) "within bound" Stats.Same (cmp Stats.Lower (around 100.) (around 105.));
  Alcotest.(check v) "slower" Stats.Worse (cmp Stats.Lower (around 100.) (around 120.));
  Alcotest.(check v) "faster" Stats.Better (cmp Stats.Lower (around 100.) (around 80.));
  Alcotest.(check v) "higher is better" Stats.Worse (cmp Stats.Higher (around 100.) (around 80.));
  Alcotest.(check v) "noisy side" Stats.Unresolved
    (cmp Stats.Lower [ 80.; 100.; 120. ] (around 100.));
  Alcotest.(check v) "noisy candidate" Stats.Unresolved
    (cmp Stats.Lower (around 100.) [ 60.; 100.; 140. ])

(* --- results files round-trip through the JSON AST --- *)

let test_results_roundtrip () =
  let result =
    {
      R.correct = true;
      attempted = 12;
      failed = 0;
      metrics =
        [
          { R.name = "latency_p50_ms"; unit_ = "ms"; value = 812.5 };
          { R.name = "throughput_rps"; unit_ = "req/s"; value = 1.25 };
        ];
    }
  in
  let file =
    {
      R.provenance = [ ("seed", J.Int 1); ("host", J.Str "cpu x2") ];
      runs =
        [
          [
            { R.workload = "analyze_cold"; result; detail = [ ("n", J.Int 12) ] };
            { R.workload = "daemon_warm"; result = { result with R.correct = false; failed = 1 }; detail = [] };
          ];
        ];
    }
  in
  (match J.parse (J.to_string ~indent:true (R.file_to_json file)) with
  | Error e -> Alcotest.fail e
  | Ok j -> (
    match R.file_of_json j with
    | Ok back -> Alcotest.(check bool) "file equal" true (back = file)
    | Error e -> Alcotest.fail e));
  match J.parse (J.to_string (R.result_to_json result)) with
  | Ok j -> Alcotest.(check bool) "result line equal" true (R.result_of_json j = Ok result)
  | Error e -> Alcotest.fail e

(* --- the churn key stream --- *)

let test_churn_stream () =
  let gen () = Churn.stream ~exponent:1.6 ~keys:54 ~length:120 in
  Alcotest.(check (array int)) "deterministic" (gen ()) (gen ());
  let m = Churn.multiplicities ~exponent:1.6 ~keys:54 ~length:120 in
  Alcotest.(check int) "multiset size" 120 (Array.fold_left ( + ) 0 m);
  Array.iteri
    (fun k c -> if k > 0 then Alcotest.(check bool) "popularity falls with rank" true (c <= m.(k - 1)))
    m;
  let counts = Array.make 54 0 in
  Array.iter (fun k -> counts.(k) <- counts.(k) + 1) (gen ());
  Alcotest.(check (array int)) "the stream is the Zipf multiset" m counts;
  Alcotest.(check (list bool)) "seeded file order is deterministic"
    (List.init 10 (fun s -> Churn.swap_files ~seed:s))
    (List.init 10 (fun s -> Churn.swap_files ~seed:s));
  Alcotest.(check bool) "seeds pick both orders" true
    (List.exists (fun s -> Churn.swap_files ~seed:s <> Churn.swap_files ~seed:0) (List.init 10 Fun.id))

let () =
  Alcotest.run "benchmark"
    [
      ( "stats",
        [
          Alcotest.test_case "tail percentile rule" `Quick test_tail_rule;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "bound comparator" `Quick test_compare;
        ] );
      ("results", [ Alcotest.test_case "json round trip" `Quick test_results_roundtrip ]);
      ("churn", [ Alcotest.test_case "key stream" `Quick test_churn_stream ]);
    ]

(* Results of a benchmark run, on the in-house JSON AST.

   One workload run prints a [result] as the last line of its standard
   output.  [run] collects one result per workload, and a results file
   holds several such runs under one provenance header. *)

module J = Olfu_obs.Json

type metric = { name : string; unit_ : string; value : float }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let result_to_json r =
  J.Obj
    [
      ("correct", J.Bool r.correct);
      ("attempted", J.Int r.attempted);
      ("failed", J.Int r.failed);
      ( "metrics",
        J.Obj
          (List.map
             (fun m ->
               (m.name, J.Obj [ ("value", J.Float m.value); ("unit", J.Str m.unit_) ]))
             r.metrics) );
    ]

let ( let* ) = Result.bind

let field k conv j =
  match Option.bind (J.member k j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or malformed %S" k)

let to_bool = function J.Bool b -> Some b | _ -> None
let to_obj = function J.Obj l -> Some l | _ -> None

let metric_of_json (name, j) =
  let* value = field "value" J.to_float_opt j in
  let* unit_ = field "unit" J.to_string_opt j in
  Ok { name; unit_; value }

let all_ok f l =
  List.fold_right
    (fun x acc ->
      let* v = f x in
      let* rest = acc in
      Ok (v :: rest))
    l (Ok [])

let result_of_json j =
  let* correct = field "correct" to_bool j in
  let* attempted = field "attempted" J.to_int_opt j in
  let* failed = field "failed" J.to_int_opt j in
  let* ms = field "metrics" to_obj j in
  let* metrics = all_ok metric_of_json ms in
  Ok { correct; attempted; failed; metrics }

type workload = {
  workload : string;
  result : result;
  detail : (string * J.t) list;
      (** what the metrics alone do not say: sample count, the tail
          percentile used, cache counts *)
}

type file = { provenance : (string * J.t) list; runs : workload list list }

let workload_to_json w =
  J.Obj
    [
      ("workload", J.Str w.workload);
      ("result", result_to_json w.result);
      ("detail", J.Obj w.detail);
    ]

let workload_of_json j =
  let* workload = field "workload" J.to_string_opt j in
  let* r = field "result" Option.some j in
  let* result = result_of_json r in
  let* detail = field "detail" to_obj j in
  Ok { workload; result; detail }

let file_to_json f =
  J.Obj
    [
      ("provenance", J.Obj f.provenance);
      ( "runs",
        J.List (List.map (fun r -> J.List (List.map workload_to_json r)) f.runs) );
    ]

let file_of_json j =
  let* provenance = field "provenance" to_obj j in
  let* runs = field "runs" J.to_list_opt j in
  let* runs =
    all_ok
      (fun r ->
        match J.to_list_opt r with
        | Some ws -> all_ok workload_of_json ws
        | None -> Error "a run is not a list")
      runs
  in
  Ok { provenance; runs }

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | s -> (
    match J.parse s with
    | Error e -> Error (path ^ ": " ^ e)
    | Ok j -> Result.map_error (fun e -> path ^ ": " ^ e) (file_of_json j))
